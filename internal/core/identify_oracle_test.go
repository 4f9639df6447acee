package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// This file keeps the dense identification this package shipped before
// the Identifier went sparse — per-flow theta_i and theta~_i = C~ theta_i
// rows with C~ = I - P P^T formed explicitly — verbatim as a reference,
// except that it breaks ties with the same rule (argminTie). The sparse
// Identifier must pick the same flows and agree on every number to
// round-off, and the low-rank Model must agree with the dense projectors.

// denseProjectors forms C = P P^T and C~ = I - C with the arithmetic
// Build used when the model still stored them.
func denseProjectors(m *Model) (c, ct *mat.Dense) {
	c = mat.Mul(m.p, m.p.T())
	return c, mat.Sub(mat.Identity(m.NumLinks()), c)
}

type denseIdentifier struct {
	model        *Model
	ct           *mat.Dense
	theta        [][]float64
	thetaTilde   [][]float64
	thetaTildeSq []float64
	aNorm        []float64
	aSum         []float64
}

func newDenseIdentifier(m *Model, a *mat.Dense) *denseIdentifier {
	_, flows := a.Dims()
	_, ct := denseProjectors(m)
	id := &denseIdentifier{
		model:        m,
		ct:           ct,
		theta:        make([][]float64, flows),
		thetaTilde:   make([][]float64, flows),
		thetaTildeSq: make([]float64, flows),
		aNorm:        make([]float64, flows),
		aSum:         make([]float64, flows),
	}
	for i := 0; i < flows; i++ {
		col := a.Col(i)
		var sum float64
		for _, v := range col {
			sum += v
		}
		norm := mat.Norm2(col)
		if norm == 0 {
			continue // unroutable flow, cannot hypothesize
		}
		theta := mat.CloneVec(col)
		mat.ScaleVec(theta, 1/norm)
		tt := mat.MulVec(ct, theta)
		id.theta[i] = theta
		id.thetaTilde[i] = tt
		id.thetaTildeSq[i] = mat.SqNorm(tt)
		id.aNorm[i] = norm
		id.aSum[i] = sum
	}
	return id
}

func (id *denseIdentifier) residual(y []float64) []float64 {
	return mat.MulVec(id.ct, id.model.center(y))
}

func (id *denseIdentifier) Identify(y []float64) Result {
	yt := id.residual(y)
	base := mat.SqNorm(yt)
	resid := make([]float64, len(id.theta))
	for i := range id.theta {
		resid[i] = math.Inf(1)
		if id.theta[i] == nil || id.thetaTildeSq[i] == 0 {
			continue
		}
		dot := mat.Dot(id.thetaTilde[i], yt)
		resid[i] = base - dot*dot/id.thetaTildeSq[i]
	}
	i := argminTie(resid, base)
	if i < 0 {
		return Result{Flow: -1, ResidualSq: base}
	}
	fhat := mat.Dot(id.thetaTilde[i], yt) / id.thetaTildeSq[i]
	return Result{Flow: i, Magnitude: fhat, Bytes: id.quantify(i, fhat), ResidualSq: resid[i]}
}

func (id *denseIdentifier) quantify(flow int, fhat float64) float64 {
	if id.aSum[flow] == 0 {
		return 0
	}
	return fhat * id.aNorm[flow] * id.aNorm[flow] / (id.aSum[flow] * id.aNorm[flow])
}

func (id *denseIdentifier) DetectabilityThreshold(flow int, delta float64) float64 {
	if id.theta[flow] == nil {
		return math.Inf(1)
	}
	proj := math.Sqrt(id.thetaTildeSq[flow])
	if proj == 0 {
		return math.Inf(1)
	}
	return 2 * delta / (proj * id.aNorm[flow])
}

func (id *denseIdentifier) IdentifyMulti(y []float64, candidates [][]int) MultiResult {
	yt := id.residual(y)
	resid := make([]float64, len(candidates))
	results := make([]MultiResult, len(candidates))
	for ci, flows := range candidates {
		resid[ci] = math.Inf(1)
		var usable []int
		for _, f := range flows {
			if id.theta[f] != nil {
				usable = append(usable, f)
			}
		}
		if len(usable) == 0 {
			continue
		}
		thetaT := mat.Zeros(len(yt), len(usable))
		for j, f := range usable {
			thetaT.SetCol(j, id.thetaTilde[f])
		}
		fvec, err := mat.SolveLS(thetaT, yt)
		if err != nil {
			continue
		}
		r := mat.CloneVec(yt)
		for j, f := range usable {
			mat.AddScaled(r, -fvec[j], id.thetaTilde[f])
		}
		resid[ci] = mat.SqNorm(r)
		bytes := make([]float64, len(usable))
		for j, f := range usable {
			bytes[j] = id.quantify(f, fvec[j])
		}
		results[ci] = MultiResult{Candidate: ci, Flows: usable, Magnitudes: fvec, Bytes: bytes, ResidualSq: resid[ci]}
	}
	best := argminTie(resid, mat.SqNorm(yt))
	if best < 0 {
		return MultiResult{Candidate: -1, ResidualSq: math.Inf(1)}
	}
	return results[best]
}

// oracleCase is one model and routing matrix to check the sparse
// Identifier against the dense oracle on.
type oracleCase struct {
	name string
	y    *mat.Dense // the fitted history; rows double as measurements
	a    *mat.Dense
	rank int
}

// randomRouting returns a links x flows routing matrix in the given
// style: "binary" 0/1 paths, "ecmp" paths whose traffic splits evenly
// over two branches, "empty" with every third flow unroutable, and
// "duplicate" with every odd flow routed exactly like its predecessor.
func randomRouting(rng *rand.Rand, links, flows int, style string) *mat.Dense {
	a := mat.Zeros(links, flows)
	for f := 0; f < flows; f++ {
		for l := 0; l < links; l++ {
			if rng.Float64() < 0.3 {
				a.Set(l, f, 1)
			}
		}
		a.Set(rng.Intn(links), f, 1) // never accidentally empty
		switch {
		case style == "ecmp":
			for l := 0; l < links; l++ {
				if a.At(l, f) == 1 && rng.Float64() < 0.5 {
					a.Set(l, f, 0.5)
				}
			}
		case style == "empty" && f%3 == 0:
			a.SetCol(f, make([]float64, links))
		case style == "duplicate" && f%2 == 1:
			a.SetCol(f, a.Col(f-1))
		}
	}
	return a
}

// lowRankTrace returns bins x links of a rank-3 signal plus noise around
// positive means.
func lowRankTrace(rng *rand.Rand, bins, links int) *mat.Dense {
	mix := randMatrix(rng, 3, links)
	y := mat.Mul(randMatrix(rng, bins, 3), mix)
	for b := 0; b < bins; b++ {
		row := y.RowView(b)
		for l := range row {
			row[l] = 10*row[l] + float64(100*(l+1)) + rng.NormFloat64()
		}
	}
	return y
}

func oracleCases(t *testing.T) []oracleCase {
	rng := rand.New(rand.NewSource(29))
	const links, flows = 10, 24
	var cases []oracleCase
	for _, style := range []string{"binary", "ecmp", "empty", "duplicate"} {
		y := lowRankTrace(rng, 120, links)
		a := randomRouting(rng, links, flows, style)
		for rank := 1; rank < links; rank++ {
			cases = append(cases, oracleCase{fmt.Sprintf("%s/rank=%d", style, rank), y, a, rank})
		}
	}
	for _, name := range []string{"abilene", "synthetic:30:45:7"} {
		topo, err := topology.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := traffic.DefaultConfig(31)
		cfg.Bins = 2 * topo.NumLinks()
		gen, err := traffic.NewGenerator(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		y := traffic.LinkLoads(topo, gen.Generate())
		p, err := Fit(y)
		if err != nil {
			t.Fatal(err)
		}
		m := topo.NumLinks()
		for _, rank := range []int{1, SeparateAxes(p, DefaultSigma), m - 1} {
			cases = append(cases, oracleCase{fmt.Sprintf("%s/rank=%d", name, rank), y, topo.RoutingMatrix(), rank})
		}
	}
	return cases
}

// near reports a and b equal to 1e-9 relative, or within floor.
func near(a, b, floor float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+floor
}

func TestIdentifierMatchesDenseOracle(t *testing.T) {
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			m := fitModel(t, c.y, c.rank)
			id, err := NewIdentifier(m, c.a)
			if err != nil {
				t.Fatal(err)
			}
			oracle := newDenseIdentifier(m, c.a)
			// theta~ lengths are dimensionless and at most 1; the floor
			// covers the round-off of the dense C~ itself.
			for f, want := range oracle.thetaTildeSq {
				if got := id.thetaTildeSq[f]; !near(got, want, 1e-14) {
					t.Fatalf("flow %d: ||theta~||^2 = %v, dense %v", f, got, want)
				}
				if got, want := id.DetectabilityThreshold(f, 3), oracle.DetectabilityThreshold(f, 3); !near(got, want, 0) {
					t.Fatalf("flow %d: detectability threshold %v, dense %v", f, got, want)
				}
			}
			rng := rand.New(rand.NewSource(int64(c.rank)))
			_, flows := c.a.Dims()
			var ys [][]float64
			for k := 0; k < 6; k++ {
				row := c.y.Row(rng.Intn(c.y.Rows()))
				ys = append(ys, row)
				spiked := mat.CloneVec(row)
				mat.AddScaled(spiked, 0.2*mat.Norm2(row), c.a.Col(rng.Intn(flows)))
				ys = append(ys, spiked)
			}
			for k, y := range ys {
				got, want := id.Identify(y), oracle.Identify(y)
				base := mat.SqNorm(oracle.residual(y))
				if got.Flow != want.Flow ||
					!near(got.Magnitude, want.Magnitude, 1e-9*math.Sqrt(base)) ||
					!near(got.Bytes, want.Bytes, 1e-9*math.Sqrt(base)) ||
					!near(got.ResidualSq, want.ResidualSq, 1e-9*base) {
					t.Fatalf("measurement %d: sparse %+v, dense %+v", k, got, want)
				}
				naive := id.IdentifyNaive(y)
				if naive.Flow != want.Flow || !near(naive.ResidualSq, want.ResidualSq, 1e-9*base) {
					t.Fatalf("measurement %d: Equation (1) %+v, dense %+v", k, naive, want)
				}
				candidates := [][]int{{want.Flow}, {rng.Intn(flows)}}
				for j := 0; j < 4; j++ {
					candidates = append(candidates, []int{rng.Intn(flows), rng.Intn(flows)})
				}
				if want.Flow < 0 {
					candidates[0] = []int{0}
				}
				gm, wm := id.IdentifyMulti(y, candidates), oracle.IdentifyMulti(y, candidates)
				if gm.Candidate != wm.Candidate || !near(gm.ResidualSq, wm.ResidualSq, 1e-9*base) {
					t.Fatalf("measurement %d: IdentifyMulti %+v, dense %+v", k, gm, wm)
				}
			}
		})
	}
}

func TestLowRankModelMatchesDenseProjector(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const links = 9
	y1, y2 := lowRankTrace(rng, 80, links), lowRankTrace(rng, 80, links)
	p1, err := Fit(y1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Fit(y2)
	if err != nil {
		t.Fatal(err)
	}
	for r1 := 1; r1 < links; r1++ {
		m1, err := Build(p1, r1)
		if err != nil {
			t.Fatal(err)
		}
		c1, ct1 := denseProjectors(m1)
		for b := 0; b < 5; b++ {
			v := y1.Row(b)
			yc := mat.SubVec(v, m1.means)
			tol := 1e-12 * mat.Norm2(yc)
			yhat, ytilde := m1.Decompose(v)
			if !mat.VecEqualApprox(yhat, mat.MulVec(c1, yc), tol) ||
				!mat.VecEqualApprox(ytilde, mat.MulVec(ct1, yc), tol) ||
				!mat.VecEqualApprox(m1.Residual(v), mat.MulVec(ct1, yc), tol) {
				t.Fatalf("rank %d bin %d: low-rank decomposition differs from the dense projectors", r1, b)
			}
		}
		if d := m1.Distance(m1); d > 1e-12 {
			t.Fatalf("rank %d: distance to itself %v", r1, d)
		}
		for r2 := 1; r2 < links; r2++ {
			for _, p := range []*PCA{p1, p2} {
				m2, err := Build(p, r2)
				if err != nil {
					t.Fatal(err)
				}
				_, ct2 := denseProjectors(m2)
				want := mat.Sub(ct1, ct2).Frobenius()
				if got := m1.Distance(m2); math.Abs(got-want) > 1e-9 {
					t.Fatalf("ranks %d/%d: distance %v, dense ||C~1 - C~2||_F %v", r1, r2, got, want)
				}
				if got := m2.Distance(m1); math.Abs(got-want) > 1e-9 {
					t.Fatalf("ranks %d/%d: distance is not symmetric: %v vs %v", r2, r1, got, want)
				}
			}
		}
	}
}
