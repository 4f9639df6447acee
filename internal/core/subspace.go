package core

import (
	"errors"
	"fmt"
	"math"

	"netanomaly/internal/mat"
	"netanomaly/internal/stats"
)

// DefaultSigma is the deviation threshold of the paper's separation
// procedure: the first principal axis whose projection contains a 3-sigma
// deviation from its mean starts the anomalous subspace (Section 4.3).
const DefaultSigma = 3.0

// SeparateAxes applies the threshold-based separation procedure to the
// fitted PCA: it examines the projection u_i on each principal axis in
// order and returns r, the number of leading axes assigned to the normal
// subspace. Axis i is the first (0-based index r) whose projection
// deviates from its mean by more than sigma standard deviations at any
// timestep; that axis and all subsequent ones are anomalous.
//
// The returned r is clamped to [1, m-1] so that both subspaces are
// non-empty: r = 0 would leave no traffic model, and r = m would make
// detection impossible (the paper's datasets yield r = 4).
func SeparateAxes(p *PCA, sigma float64) int {
	m, t := p.NumComponents(), p.Projections.Rows()
	u := p.Projections.RawData()
	return separate(m, sigma, func(i int) bool {
		// Projection i is column i: walk it in place, m apart. A
		// covariance-only PCA has no temporal view.
		return t >= 2 && deviates(u[i:], m, sigma)
	})
}

// separate returns the normal-subspace rank over m principal axes: the
// index of the first axis whose projection violates the sigma test
// (deviates), clamped to [1, m-1]. It asks about one axis at a time, in order, and
// stops at the first violator, so a caller that computes projections on
// demand pays for r+1 of them.
func separate(m int, sigma float64, violates func(axis int) bool) int {
	if sigma <= 0 {
		panic(fmt.Sprintf("core: separation sigma %v <= 0", sigma))
	}
	r := m
	for i := 0; i < m; i++ {
		if violates(i) {
			r = i
			break
		}
	}
	return min(max(r, 1), m-1)
}

// deviates is the per-axis test of the separation procedure: whether the
// projection series u[0], u[stride], u[2*stride], ... strays more than
// sigma sample standard deviations from its mean at any timestep. The
// mean is a plain sum and the variance a second pass over squared
// deviations from it, with the n-1 denominator. A constant series never
// deviates, and the test is scale-invariant, so a projection need not be
// normalized first.
func deviates(u []float64, stride int, sigma float64) bool {
	var sum, ss float64
	t := 0
	for k := 0; k < len(u); k += stride {
		sum += u[k]
		t++
	}
	mean := sum / float64(t)
	for k := 0; k < len(u); k += stride {
		d := u[k] - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(t-1))
	if std == 0 {
		return false
	}
	for k := 0; k < len(u); k += stride {
		if u[k] > mean+sigma*std || u[k] < mean-sigma*std {
			return true
		}
	}
	return false
}

// Model is a fitted subspace separation: the normal principal axes P that
// span the normal subspace S (the first r axes) and so define the
// projections onto S and the anomalous subspace S~, plus what the
// Q-statistic needs.
type Model struct {
	rank  int
	means []float64
	// p is the m x rank matrix of normal principal axes (orthonormal
	// columns). The projectors C = P P^T onto S and C~ = I - P P^T onto S~
	// are never formed: every product with them goes through p in
	// O(m*rank) instead of O(m^2), so the model holds no m x m state. The
	// low-rank identity ||ytilde||^2 = ||yc||^2 - ||P^T yc||^2 likewise
	// lets batched SPE skip the residual vector altogether.
	p *mat.Dense
	// pmeans = P^T means, precomputed so batched SPE can project raw
	// (uncentered) measurements and correct afterwards.
	pmeans []float64
	// residVariances are the variances lambda_j for the anomalous axes
	// j > r, used by the Q-statistic.
	residVariances []float64
}

// Build constructs the subspace model from a fitted PCA with the first
// rank axes normal. rank must be in [1, m-1].
func Build(p *PCA, rank int) (*Model, error) {
	m := p.NumComponents()
	if rank < 1 || rank >= m {
		return nil, fmt.Errorf("core: rank %d out of [1, %d]", rank, m-1)
	}
	pm := mat.Zeros(m, rank)
	for j := 0; j < rank; j++ {
		pm.SetCol(j, p.Components.Col(j))
	}
	// Variances that are numerically zero relative to the leading one are
	// decomposition round-off, not signal; floor them so the Q-statistic
	// recognizes a genuinely degenerate residual subspace.
	resid := mat.CloneVec(p.Variances[rank:])
	floor := 1e-12 * p.Variances[0]
	for i, v := range resid {
		if v < floor {
			resid[i] = 0
		}
	}
	return &Model{
		rank:           rank,
		means:          mat.CloneVec(p.Means),
		p:              pm,
		pmeans:         mat.MulTVec(pm, p.Means),
		residVariances: resid,
	}, nil
}

// Rank returns r, the dimension of the normal subspace.
func (m *Model) Rank() int { return m.rank }

// NumLinks returns the number of links the model was fitted on.
func (m *Model) NumLinks() int { return len(m.means) }

// Means returns a copy of the per-link means the model removes.
func (m *Model) Means() []float64 { return mat.CloneVec(m.means) }

// center returns y - means, validating the dimension.
func (m *Model) center(y []float64) []float64 {
	if len(y) != len(m.means) {
		panic(fmt.Sprintf("core: measurement length %d != model links %d", len(y), len(m.means)))
	}
	return mat.SubVec(y, m.means)
}

// anomalous returns C~ v = v - P (P^T v), the projection of v onto S~.
func (m *Model) anomalous(v []float64) []float64 {
	out := mat.CloneVec(v)
	m.removeNormal(out)
	return out
}

// removeNormal projects v onto S~ in place: v -= P (P^T v).
func (m *Model) removeNormal(v []float64) {
	u := mat.MulTVec(m.p, v)
	pdata := m.p.RawData()
	for i := range v {
		var s float64
		for j, pv := range pdata[i*m.rank : (i+1)*m.rank] {
			s += pv * u[j]
		}
		v[i] -= s
	}
}

// Residual returns the anomalous-subspace projection
// ytilde = C~ (y-mean) = yc - P (P^T yc), in O(m*rank).
func (m *Model) Residual(y []float64) []float64 {
	yt := m.center(y)
	m.removeNormal(yt)
	return yt
}

// SPE returns the squared prediction error ||ytilde||^2 for the
// measurement vector y (Section 5.1).
func (m *Model) SPE(y []float64) float64 {
	return mat.SqNorm(m.Residual(y))
}

// Distance returns ||C~_m - C~_other||_F, how far the anomalous subspace
// moved between two models of the same links (ranks may differ); it is
// the quantity the drift gate compares against DriftTol. Because
// C~ = I - P P^T, it equals ||P1 P1^T - P2 P2^T||_F, computed here without
// forming either m x m projector as
//
//	sqrt(||P2 - P1 (P1^T P2)||_F^2 + ||P1 - P2 (P2^T P1)||_F^2)
//
// in O(m*r1*r2). Each term is the part of one basis outside the other
// subspace, so the sum is exact for unequal ranks and avoids the
// cancellation in the equivalent r1 + r2 - 2||P1^T P2||_F^2.
func (m *Model) Distance(other *Model) float64 {
	if m.NumLinks() != other.NumLinks() {
		panic(fmt.Sprintf("core: distance between models of %d and %d links", m.NumLinks(), other.NumLinks()))
	}
	cross := mat.Mul(m.p.T(), other.p) // P1^T P2, r1 x r2
	outside2 := mat.Sub(other.p, mat.Mul(m.p, cross)).Frobenius()
	outside1 := mat.Sub(m.p, mat.Mul(other.p, cross.T())).Frobenius()
	return math.Hypot(outside1, outside2)
}

// SPEBatch computes the squared prediction error for every row of the
// measurement matrix y (bins x links) in one matrix pass. Because P has
// orthonormal columns, ||ytilde||^2 = ||y-mean||^2 - ||P^T (y-mean)||^2,
// so the batch costs one bins x m x rank multiply (through the blocked
// kernels) plus two row-norm sweeps, without building the residual vector
// SPE forms. Results agree with SPE to floating-point roundoff and are
// clamped at zero. If out has capacity for one value per
// row it is reused, otherwise a new slice is allocated.
func (m *Model) SPEBatch(y *mat.Dense, out []float64) []float64 {
	bins, links := y.Dims()
	if links != len(m.means) {
		panic(fmt.Sprintf("core: batch has %d links, model has %d", links, len(m.means)))
	}
	if cap(out) < bins {
		out = make([]float64, bins)
	}
	out = out[:bins]
	// Project each raw row (u = P^T y) and correct for the mean
	// afterwards: P^T (y - mean) = P^T y - pmeans. The accumulation
	// iterates links-major so the inner loop runs over a contiguous
	// rank-length row of P, and the only scratch is one rank-sized
	// buffer reused across the batch — no per-call matrix allocation on
	// the streaming hot path.
	u := make([]float64, m.rank)
	ydata := y.RawData()
	pdata := m.p.RawData()
	rank := m.rank
	for b := 0; b < bins; b++ {
		row := ydata[b*links : (b+1)*links]
		var sq float64
		for k, v := range row {
			d := v - m.means[k]
			sq += d * d
		}
		for j := range u {
			u[j] = 0
		}
		// u += row * P, four P rows per pass (the mulStripe unroll).
		var k int
		for ; k+4 <= links; k += 4 {
			v0, v1, v2, v3 := row[k], row[k+1], row[k+2], row[k+3]
			p0 := pdata[k*rank : (k+1)*rank]
			p1 := pdata[(k+1)*rank : (k+2)*rank]
			p2 := pdata[(k+2)*rank : (k+3)*rank]
			p3 := pdata[(k+3)*rank : (k+4)*rank]
			for j := range u {
				u[j] += v0*p0[j] + v1*p1[j] + v2*p2[j] + v3*p3[j]
			}
		}
		for ; k < links; k++ {
			v := row[k]
			prow := pdata[k*rank : (k+1)*rank]
			for j, pv := range prow {
				u[j] += v * pv
			}
		}
		var proj float64
		for j, v := range u {
			d := v - m.pmeans[j]
			proj += d * d
		}
		spe := sq - proj
		if spe < 0 {
			spe = 0
		}
		out[b] = spe
	}
	return out
}

// ErrDegenerateResidual is returned by QLimit when the anomalous subspace
// carries no variance, leaving the Q-statistic undefined.
var ErrDegenerateResidual = errors.New("core: anomalous subspace has zero variance")

// QLimit returns the threshold delta^2_alpha for the SPE at the given
// confidence level (e.g. 0.999 for the paper's 99.9%), using the result of
// Jackson and Mudholkar (Section 5.1):
//
//	delta^2 = phi1 * [ c_a*sqrt(2*phi2*h0^2)/phi1 + 1 +
//	                   phi2*h0*(h0-1)/phi1^2 ]^(1/h0)
//
// with phi_i = sum_{j>r} lambda_j^i and h0 = 1 - 2*phi1*phi3/(3*phi2^2).
// The result holds regardless of how many components are retained, and is
// robust to departures from Gaussianity (Jensen and Solomon, cited in the
// paper).
//
// The limit is homogeneous of degree one in the lambdas, so they are
// scaled by a power of two that brings the largest below one, and the
// result is scaled back. Power-of-two scaling is exact, so the limit is
// bit-identical to the unscaled formula wherever that one is finite,
// while phi2^2 and phi3 no longer underflow or overflow at extreme load
// scales.
func (m *Model) QLimit(confidence float64) (float64, error) {
	if !(0 < confidence && confidence < 1) {
		return 0, fmt.Errorf("core: confidence %v out of (0,1)", confidence)
	}
	var top float64
	for _, l := range m.residVariances {
		top = max(top, l)
	}
	_, e := math.Frexp(top)
	var phi1, phi2, phi3 float64
	for _, l := range m.residVariances {
		l = math.Ldexp(l, -e)
		phi1 += l
		phi2 += l * l
		phi3 += l * l * l
	}
	if phi1 <= 0 || phi2 <= 0 {
		return 0, ErrDegenerateResidual
	}
	h0 := 1 - 2*phi1*phi3/(3*phi2*phi2)
	ca := stats.NormalQuantile(confidence)
	if h0 <= 0 {
		// Degenerate eigenvalue structure; fall back to the one-term
		// normal approximation SPE ~ N(phi1, 2*phi2).
		return math.Ldexp(phi1+ca*math.Sqrt(2*phi2), e), nil
	}
	term := ca*math.Sqrt(2*phi2)*h0/phi1 + 1 + phi2*h0*(h0-1)/(phi1*phi1)
	if term <= 0 {
		return 0, ErrDegenerateResidual
	}
	return math.Ldexp(phi1*math.Pow(term, 1/h0), e), nil
}
