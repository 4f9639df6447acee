package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// weekOn returns a 1008-bin week of simulated link loads on the named
// network.
func weekOn(t *testing.T, name string) *mat.Dense {
	t.Helper()
	topo, err := topology.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewGenerator(topo, traffic.DefaultConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	return traffic.LinkLoads(topo, gen.Generate())
}

// checkFitRankMatchesSVD fits y both ways — fitRank, and the offline
// oracle Fit + SeparateAxes + Build — and requires the same rank, a
// finite Q-limit within 1e-8 relative, and residual subspaces within
// 1e-8 (Model.Distance).
func checkFitRankMatchesSVD(t *testing.T, y *mat.Dense) {
	t.Helper()
	opts := Options{}
	opts.fillDefaults()
	oracle, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	wantRank := SeparateAxes(oracle, opts.Sigma)
	wantModel, err := Build(oracle, wantRank)
	if err != nil {
		t.Fatal(err)
	}
	wantQ, err := wantModel.QLimit(opts.Confidence)
	if err != nil {
		t.Fatalf("SVD oracle at rank %d: %v", wantRank, err)
	}

	p, rank, err := fitRank(y.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rank != wantRank {
		t.Fatalf("rank %d, SVD oracle %d", rank, wantRank)
	}
	model, err := Build(p, rank)
	if err != nil {
		t.Fatal(err)
	}
	q, err := model.QLimit(opts.Confidence)
	if err != nil {
		t.Fatalf("rank %d: %v", rank, err)
	}
	if math.IsNaN(q) || math.IsInf(q, 0) || math.Abs(q-wantQ) > 1e-8*wantQ {
		t.Fatalf("rank %d: Q-limit %v, SVD oracle %v (rel diff %.2e)", rank, q, wantQ, math.Abs(q-wantQ)/wantQ)
	}
	d := model.Distance(wantModel)
	if d > 1e-8 {
		t.Fatalf("rank %d: residual subspace %.2e from the SVD oracle's", rank, d)
	}
	t.Logf("rank %d, Q-limit rel diff %.1e, subspace distance %.1e", rank, math.Abs(q-wantQ)/wantQ, d)
	if pinned, pr, err := fitRank(y.Clone(), Options{Confidence: opts.Confidence, Sigma: opts.Sigma, Rank: rank}); err != nil || pr != rank ||
		!mat.VecEqualApprox(pinned.Variances, p.Variances, 0) {
		t.Fatalf("pinned rank %d: got rank %d, err %v, or different variances", rank, pr, err)
	}
}

// TestFitRankMatchesSVD is the one-solver bar: on a week of every bundled
// network, at its simulated scale and rescaled to a 1e12-byte peak, the
// Gram-eig fit every streaming detector seeds and refits with chooses the
// SVD's rank, Q-limit and subspace.
func TestFitRankMatchesSVD(t *testing.T) {
	for _, name := range []string{"abilene", "sprint", "synthetic:30:45:7"} {
		y := weekOn(t, name)
		peak := y.Clone()
		mat.ScaleVec(peak.RawData(), 1e12/peak.MaxAbs())
		t.Run(name, func(t *testing.T) { checkFitRankMatchesSVD(t, y) })
		t.Run(name+"/1e12", func(t *testing.T) { checkFitRankMatchesSVD(t, peak) })
	}
}

// TestFitRankDegenerateInputs runs the inputs the Gram squares into
// trouble — exact zeros and exact linear dependence in the spectrum — and
// the ones no fit can use.
func TestFitRankDegenerateInputs(t *testing.T) {
	week := weekOn(t, "abilene")
	bins, links := week.Dims()
	withCols := func(edit func(y *mat.Dense)) *mat.Dense {
		y := week.Clone()
		edit(y)
		return y
	}
	setCol := func(y *mat.Dense, j int, f func(b int) float64) {
		for b := 0; b < bins; b++ {
			y.Set(b, j, f(b))
		}
	}
	// A rank-2 history: a smooth diurnal direction with no 3-sigma
	// excursion, and a weaker direction carrying five spikes, over
	// per-link offsets.
	rank2 := mat.Zeros(bins, links)
	for b := 0; b < bins; b++ {
		day := math.Sin(2 * math.Pi * float64(b%144) / 144)
		spike := 0.0
		if b%200 == 77 {
			spike = 3e6
		}
		for l := 0; l < links; l++ {
			rank2.Set(b, l, 5e7+float64(l)*1e5+1e7*day*float64(1+l%3)+spike*float64(1+l%5))
		}
	}

	agree := []struct {
		name string
		y    *mat.Dense
	}{
		{"constant link", withCols(func(y *mat.Dense) { setCol(y, 3, func(int) float64 { return 5e6 }) })},
		{"all-zero link", withCols(func(y *mat.Dense) { setCol(y, 7, func(int) float64 { return 0 }) })},
		{"duplicated link", withCols(func(y *mat.Dense) { setCol(y, 10, func(b int) float64 { return y.At(b, 11) }) })},
		{"collinear links", withCols(func(y *mat.Dense) {
			setCol(y, 12, func(b int) float64 { return 2.5*y.At(b, 13) - 0.5*y.At(b, 14) })
		})},
		{"rank-2 history", rank2},
		{"t == m", mat.NewDense(links, links, week.RawData()[:links*links])},
		// Loads riding a 1e12-byte base: a Gram formed before centering
		// would lose the variance to cancellation against t*mu*mu^T.
		{"1e12 base load", withCols(func(y *mat.Dense) {
			for i, v := range y.RawData() {
				y.RawData()[i] = v + 1e12
			}
		})},
	}
	for _, c := range agree {
		t.Run(c.name, func(t *testing.T) { checkFitRankMatchesSVD(t, c.y) })
	}

	t.Run("t < m", func(t *testing.T) {
		y := mat.NewDense(links-1, links, week.RawData()[:(links-1)*links])
		_, _, err := fitRank(y, Options{Sigma: DefaultSigma})
		if err == nil || !strings.Contains(err.Error(), "need at least as many bins") {
			t.Fatalf("got %v, want the bins-versus-links error", err)
		}
	})
	for name, bad := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1)} {
		t.Run(name, func(t *testing.T) {
			y := week.Clone()
			y.Set(500, 20, bad)
			_, _, err := fitRank(y.Clone(), Options{Sigma: DefaultSigma})
			if !errors.Is(err, mat.ErrNoConvergence) || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("got %v, want the eigensolver's up-front non-finite rejection (mat.ErrNoConvergence)", err)
			}
			if _, err := seeded(NewOnlineDetector(mat.Identity(links), OnlineConfig{Window: bins}))(y); !errors.Is(err, mat.ErrNoConvergence) {
				t.Fatalf("seeding a detector: got %v, want mat.ErrNoConvergence", err)
			}
		})
	}
}
