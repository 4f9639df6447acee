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
// Q-statistic needs. It holds P twice, as P (m x rank) and as P^T
// (rank x m, padded to whole groups of four axes): about rank*m more
// floats, derived on construction and never serialized.
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
	// pt is P^T with zero rows appended up to a multiple of four: axis j
	// is row j, contiguous, so each projection P^T v is a run of dot
	// products over contiguous rows, four axes to a pass over v, rather
	// than a scatter into rank sums from every row of p. The padding
	// axes' sums are computed and ignored.
	pt *mat.Dense
	// pmeans = P^T means, precomputed so batched SPE can project raw
	// (uncentered) measurements and correct afterwards.
	pmeans []float64
	// residVariances are the variances lambda_j for the anomalous axes
	// j > r, used by the Q-statistic.
	residVariances []float64
}

// newModel assembles a model from its fitted parts, which it keeps, and
// derives P^T and P^T means from them. Build and DecodeDetector both
// construct through it, so a restored model computes what the fitted
// one did, to the bit.
func newModel(rank int, means []float64, p *mat.Dense, resid []float64) *Model {
	links := len(means)
	pt := mat.Zeros((rank+3)&^3, links)
	copy(pt.RawData(), p.T().RawData())
	return &Model{
		rank:           rank,
		means:          means,
		p:              p,
		pt:             pt,
		pmeans:         mat.MulTVec(p, means),
		residVariances: resid,
	}
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
	return newModel(rank, mat.CloneVec(p.Means), pm, resid), nil
}

// Rank returns r, the dimension of the normal subspace.
func (m *Model) Rank() int { return m.rank }

// NumLinks returns the number of links the model was fitted on.
func (m *Model) NumLinks() int { return len(m.means) }

// Means returns a copy of the per-link means the model removes.
func (m *Model) Means() []float64 { return mat.CloneVec(m.means) }

// center returns y - means, validating the dimension.
func (m *Model) center(y []float64) []float64 {
	return m.centerInto(make([]float64, len(y)), y)
}

// centerInto sets dst = y - means and returns it.
func (m *Model) centerInto(dst, y []float64) []float64 {
	if len(y) != len(m.means) {
		panic(fmt.Sprintf("core: measurement length %d != model links %d", len(y), len(m.means)))
	}
	dst = dst[:len(y)]
	for k, v := range y {
		dst[k] = v - m.means[k]
	}
	return dst
}

// axisRows returns the P^T rows of axes j..j+3.
func (m *Model) axisRows(j int) (t0, t1, t2, t3 []float64) {
	links := len(m.means)
	t := m.pt.RawData()[j*links : (j+4)*links]
	return t[:links], t[links : 2*links], t[2*links : 3*links], t[3*links:]
}

// anomalous returns C~ v = v - P (P^T v), the projection of v onto S~.
func (m *Model) anomalous(v []float64) []float64 {
	out := mat.CloneVec(v)
	m.removeNormal(out, make([]float64, m.pt.Rows()))
	return out
}

// removeNormal projects v onto S~ in place: v -= P (P^T v). u, one
// value per row of pt, receives P^T v, each sum taken one link at a
// time in link order, as mat.MulTVec(p, v) takes it.
func (m *Model) removeNormal(v, u []float64) {
	for j := 0; j < len(u); j += 4 {
		t0, t1, t2, t3 := m.axisRows(j)
		u[j], u[j+1], u[j+2], u[j+3] = dots4Seq(v, t0, t1, t2, t3)
	}
	rank := m.rank
	pdata := m.p.RawData()
	u = u[:rank]
	for i := range v {
		var s float64
		for j, pv := range pdata[i*rank : (i+1)*rank] {
			s += pv * u[j]
		}
		v[i] -= s
	}
}

// Residual returns the anomalous-subspace projection
// ytilde = C~ (y-mean) = yc - P (P^T yc), in O(m*rank).
func (m *Model) Residual(y []float64) []float64 {
	yt := m.center(y)
	m.removeNormal(yt, make([]float64, m.pt.Rows()))
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
// measurement matrix y (bins x links). Because P has orthonormal
// columns, ||ytilde||^2 = ||y-mean||^2 - ||P^T (y-mean)||^2, so a row
// costs its rank projections, dot products over contiguous P^T rows,
// four axes to a pass over the row with ||y-mean||^2 taken in the first,
// without building the residual vector SPE forms. Results agree with SPE
// to floating-point roundoff and are clamped at zero. They are
// bit-identical to the row-major test reference (speBatchRef): each sum
// runs in the reference's order, four links to a group, the groups in
// link order. If out has capacity for one value per row it is reused,
// otherwise a new slice is allocated.
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
	// afterwards: P^T (y - mean) = P^T y - pmeans. The only scratch is
	// one buffer per padded axis, reused across the batch.
	u := make([]float64, m.pt.Rows())
	ydata := y.RawData()
	for b := 0; b < bins; b++ {
		row := ydata[b*links : (b+1)*links]
		t0, t1, t2, t3 := m.axisRows(0)
		var sq float64
		u[0], u[1], u[2], u[3], sq = dots4Sq(row, m.means, t0, t1, t2, t3)
		for j := 4; j < len(u); j += 4 {
			t0, t1, t2, t3 := m.axisRows(j)
			u[j], u[j+1], u[j+2], u[j+3] = dots4(row, t0, t1, t2, t3)
		}
		var proj float64
		for j, v := range u[:m.rank] {
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

// dots4Sq returns the dot products of row with t0..t3, each summed in
// speBatchRef's order: four links at a time,
// r[k]t[k] + r[k+1]t[k+1] + r[k+2]t[k+2] + r[k+3]t[k+3] per group, the
// groups and then the leftover links added in link order. From the same
// loads of row it sums ||row - means||^2 one link at a time.
func dots4Sq(row, means, t0, t1, t2, t3 []float64) (s0, s1, s2, s3, sq float64) {
	n := len(row)
	means, t0, t1, t2, t3 = means[:n], t0[:n], t1[:n], t2[:n], t3[:n]
	k := 0
	for ; k+4 <= n; k += 4 {
		v0, v1, v2, v3 := row[k], row[k+1], row[k+2], row[k+3]
		d0, d1, d2, d3 := v0-means[k], v1-means[k+1], v2-means[k+2], v3-means[k+3]
		sq += d0 * d0
		sq += d1 * d1
		sq += d2 * d2
		sq += d3 * d3
		s0 += v0*t0[k] + v1*t0[k+1] + v2*t0[k+2] + v3*t0[k+3]
		s1 += v0*t1[k] + v1*t1[k+1] + v2*t1[k+2] + v3*t1[k+3]
		s2 += v0*t2[k] + v1*t2[k+1] + v2*t2[k+2] + v3*t2[k+3]
		s3 += v0*t3[k] + v1*t3[k+1] + v2*t3[k+2] + v3*t3[k+3]
	}
	for ; k < n; k++ {
		v := row[k]
		d := v - means[k]
		sq += d * d
		s0 += v * t0[k]
		s1 += v * t1[k]
		s2 += v * t2[k]
		s3 += v * t3[k]
	}
	return s0, s1, s2, s3, sq
}

// dots4 is dots4Sq without the squared norm, for the passes after the
// first.
func dots4(row, t0, t1, t2, t3 []float64) (s0, s1, s2, s3 float64) {
	n := len(row)
	t0, t1, t2, t3 = t0[:n], t1[:n], t2[:n], t3[:n]
	k := 0
	for ; k+4 <= n; k += 4 {
		v0, v1, v2, v3 := row[k], row[k+1], row[k+2], row[k+3]
		s0 += v0*t0[k] + v1*t0[k+1] + v2*t0[k+2] + v3*t0[k+3]
		s1 += v0*t1[k] + v1*t1[k+1] + v2*t1[k+2] + v3*t1[k+3]
		s2 += v0*t2[k] + v1*t2[k+1] + v2*t2[k+2] + v3*t2[k+3]
		s3 += v0*t3[k] + v1*t3[k+1] + v2*t3[k+2] + v3*t3[k+3]
	}
	for ; k < n; k++ {
		v := row[k]
		s0 += v * t0[k]
		s1 += v * t1[k]
		s2 += v * t2[k]
		s3 += v * t3[k]
	}
	return s0, s1, s2, s3
}

// dots4Seq returns the dot products of v with t0..t3, each summed one
// term at a time in index order.
func dots4Seq(v, t0, t1, t2, t3 []float64) (s0, s1, s2, s3 float64) {
	n := len(v)
	t0, t1, t2, t3 = t0[:n], t1[:n], t2[:n], t3[:n]
	for k, x := range v {
		s0 += t0[k] * x
		s1 += t1[k] * x
		s2 += t2[k] * x
		s3 += t3[k] * x
	}
	return s0, s1, s2, s3
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
