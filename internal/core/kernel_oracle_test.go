package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netanomaly/internal/mat"
)

// This file keeps SPEBatch and Identify as they were before either read
// P^T — projections scattered over the m rank-long rows of P, four
// allocations per identification — verbatim as references. The shipped
// kernels reorder loads, not sums, so they must match these to the bit.

// speBatchRef is the row-major SPEBatch: u += row * P four P rows at a
// time, the 4-term groups added in link order.
func speBatchRef(m *Model, y *mat.Dense) []float64 {
	bins, links := y.Dims()
	out := make([]float64, bins)
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

// removeNormalRef is v -= P (P^T v) with P^T v from mat.MulTVec.
func removeNormalRef(m *Model, v []float64) {
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

// argminTieRef is argminTie: the minimum first, then the lowest index
// within tieTol*scale of it.
func argminTieRef(vals []float64, scale float64) int {
	lo := math.Inf(1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
	}
	if math.IsInf(lo, 1) {
		return -1
	}
	for i, v := range vals {
		if v <= lo+tieTol*scale {
			return i
		}
	}
	return -1
}

// dotRef is theta_i^T v over flow i's path, indexed through start.
func dotRef(fp *flowPaths, i int, v []float64) float64 {
	var s float64
	for e := fp.start[i]; e < fp.start[i+1]; e++ {
		s += fp.theta[e] * v[fp.link[e]]
	}
	return s
}

// identifyRef is Identify with a fresh residual, projection and
// per-flow residual slice per call.
func identifyRef(id *Identifier, y []float64) Result {
	yt := mat.SubVec(y, id.model.means)
	removeNormalRef(id.model, yt)
	removeNormalRef(id.model, yt)
	base := mat.SqNorm(yt)
	resid := make([]float64, len(id.thetaTildeSq))
	for i, tsq := range id.thetaTildeSq {
		resid[i] = math.Inf(1)
		if tsq == 0 {
			continue
		}
		dot := dotRef(id.paths, i, yt)
		resid[i] = base - dot*dot/tsq
	}
	flow := argminTieRef(resid, base)
	if flow < 0 {
		return Result{Flow: -1, ResidualSq: base}
	}
	fhat := dotRef(id.paths, flow, yt) / id.thetaTildeSq[flow]
	return Result{Flow: flow, Magnitude: fhat, Bytes: id.quantify(flow, fhat), ResidualSq: resid[flow]}
}

// randomPCA fits a PCA to bins x links of correlated random load: a few
// shared factors plus noise, so the leading axes carry real structure.
func randomPCA(t *testing.T, rng *rand.Rand, links int) *PCA {
	t.Helper()
	const bins, factors = 160, 4
	load := make([][]float64, factors)
	for f := range load {
		load[f] = make([]float64, links)
		for k := range load[f] {
			load[f][k] = rng.NormFloat64() * 1e6
		}
	}
	y := mat.Zeros(bins, links)
	for b := 0; b < bins; b++ {
		row := y.RowView(b)
		for k := range row {
			row[k] = 5e7 + 1e5*rng.NormFloat64()
		}
		for f := range load {
			mat.AddScaled(row, rng.NormFloat64(), load[f])
		}
	}
	pca, err := FitEig(y)
	if err != nil {
		t.Fatal(err)
	}
	return pca
}

// pathRouting returns a 0/1 routing matrix of links x 3*links flows
// with random paths of 1 to 6 links, every seventh flow unroutable and
// every fifth a duplicate of the flow before it, so equal theta~ make
// the tie rule decide.
func pathRouting(rng *rand.Rand, links int) *mat.Dense {
	flows := 3 * links
	a := mat.Zeros(links, flows)
	for i := 0; i < flows; i++ {
		switch {
		case i%7 == 3:
			continue
		case i%5 == 4:
			for k := 0; k < links; k++ {
				a.Set(k, i, a.At(k, i-1))
			}
			continue
		}
		for _, k := range rng.Perm(links)[:1+rng.Intn(min(6, links))] {
			a.Set(k, i, 1)
		}
	}
	return a
}

// oracleRows returns measurements to score: the fit's own regime, rows
// of zeros and negative values, exact zeros mixed into real loads, and
// large single-flow spikes that identification must attribute.
func oracleRows(rng *rand.Rand, m *Model, a *mat.Dense) *mat.Dense {
	links, flows := a.Dims()
	const n = 24
	y := mat.Zeros(n, links)
	for b := 0; b < n; b++ {
		row := y.RowView(b)
		switch b % 4 {
		case 0: // the fit's regime
			for k := range row {
				row[k] = m.means[k] + 2e6*rng.NormFloat64()
			}
		case 1: // zeros and negative values
			for k := range row {
				if rng.Intn(3) > 0 {
					row[k] = -1e6 * rng.ExpFloat64()
				}
			}
		case 2: // real loads with exact zeros
			for k := range row {
				if rng.Intn(4) > 0 {
					row[k] = m.means[k] + 2e6*rng.NormFloat64()
				}
			}
		case 3: // a spike on one flow
			copy(row, m.means)
			f := rng.Intn(flows)
			for k := range row {
				row[k] += 3e7 * a.At(k, f)
			}
		}
	}
	return y
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestKernelsBitIdenticalToReference holds SPEBatch and Identify (alone
// and inside DiagnoseBatch's shared scratch) to the references above on
// random models at every rank up to 12, across link counts that leave
// each remainder of the four-wide link groups.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, links := range []int{5, 6, 41, 120, 121} {
		pca := randomPCA(t, rng, links)
		a := pathRouting(rng, links)
		fp := newFlowPaths(a)
		for rank := 1; rank <= min(links-1, 12); rank++ {
			t.Run(fmt.Sprintf("links=%d/rank=%d", links, rank), func(t *testing.T) {
				diag, err := diagnoserFromPCA(pca, rank, fp, 0.999)
				if err != nil {
					t.Fatal(err)
				}
				m, id := diag.det.model, diag.id
				y := oracleRows(rng, m, a)
				got, want := m.SPEBatch(y, nil), speBatchRef(m, y)
				for b := range want {
					if !sameBits(got[b], want[b]) {
						t.Fatalf("row %d: SPE %v, reference %v", b, got[b], want[b])
					}
				}
				// Every row alarms at a zero limit, so DiagnoseBatch
				// identifies all of them on its one scratch.
				diag.det.limit = 0
				diags, _ := diag.DiagnoseBatch(y)
				for b := range want {
					row := y.RowView(b)
					ref := identifyRef(id, row)
					res := id.Identify(row)
					if res.Flow != ref.Flow || !sameBits(res.Magnitude, ref.Magnitude) ||
						!sameBits(res.Bytes, ref.Bytes) || !sameBits(res.ResidualSq, ref.ResidualSq) {
						t.Fatalf("row %d: Identify %+v, reference %+v", b, res, ref)
					}
					if got[b] > 0 && (diags[b].Flow != ref.Flow || !sameBits(diags[b].Bytes, ref.Bytes)) {
						t.Fatalf("row %d: DiagnoseBatch flow %d bytes %v, reference %d %v",
							b, diags[b].Flow, diags[b].Bytes, ref.Flow, ref.Bytes)
					}
				}
			})
		}
	}
}

// TestIdentifyTieAndNaNMatchReference pins the corners of the scan's
// running minimum: a residual that puts two duplicate routes in an
// exact tie (the lower index wins), an all-unroutable identifier (flow
// -1), and a NaN measurement (no flow wins, as in argminTie).
func TestIdentifyTieAndNaNMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const links = 41
	pca := randomPCA(t, rng, links)
	m, err := Build(pca, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := pathRouting(rng, links)
	id, err := NewIdentifier(m, a)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, id *Identifier, y []float64) Result {
		t.Helper()
		res, ref := id.Identify(y), identifyRef(id, y)
		if res.Flow != ref.Flow || !sameBits(res.Magnitude, ref.Magnitude) ||
			!sameBits(res.Bytes, ref.Bytes) || !sameBits(res.ResidualSq, ref.ResidualSq) {
			t.Fatalf("%s: Identify %+v, reference %+v", name, res, ref)
		}
		return res
	}
	// pathRouting gives flow 9 flow 8's route, so a spike along it ties.
	dup := 9
	y := m.Means()
	for k := range y {
		y[k] += 4e7 * a.At(k, dup)
	}
	if res := check("duplicate route", id, y); res.Flow != dup-1 {
		t.Fatalf("duplicate route: flow %d, want the lower twin %d", res.Flow, dup-1)
	}
	y[7] = math.NaN()
	if res := check("NaN measurement", id, y); res.Flow != -1 {
		t.Fatalf("NaN measurement: flow %d, want -1", res.Flow)
	}
	none, err := NewIdentifier(m, mat.Zeros(links, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res := check("unroutable", none, m.Means()); res.Flow != -1 {
		t.Fatalf("unroutable: flow %d, want -1", res.Flow)
	}
}
