package mat_test

import (
	"math"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// TestSVDBitIdenticalOnAbileneWeek runs the oracle comparison on the
// matrix the paper's method actually decomposes: one week of centered
// Abilene link loads (1008 bins x 41 links, ~1e8-byte entries, a few
// dominant diurnal axes over a long flat tail).
func TestSVDBitIdenticalOnAbileneWeek(t *testing.T) {
	topo := topology.Abilene()
	gen, err := traffic.NewGenerator(topo, traffic.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	y := traffic.LinkLoads(topo, gen.Generate())
	if rows, cols := y.Dims(); rows != 1008 || cols != 41 {
		t.Fatalf("Abilene week is %dx%d, want 1008x41", rows, cols)
	}
	y.CenterColumns()
	mat.AssertSVDMatchesOracle(t, "Abilene week", y)
}

// TestSymEigBitIdenticalOnDegenerateGrams runs the tridiagonalization
// oracle comparison on the centered Grams of the degenerate histories
// internal/core's TestFitRankDegenerateInputs fits: one Abilene week
// with a constant, an all-zero, a duplicated or a collinear link, a
// rank-2 history, a square t == m window, and loads on a 1e12 base.
func TestSymEigBitIdenticalOnDegenerateGrams(t *testing.T) {
	topo := topology.Abilene()
	gen, err := traffic.NewGenerator(topo, traffic.DefaultConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	week := traffic.LinkLoads(topo, gen.Generate())
	bins, links := week.Dims()
	withCol := func(j int, f func(y *mat.Dense, b int) float64) *mat.Dense {
		y := week.Clone()
		for b := 0; b < bins; b++ {
			y.Set(b, j, f(y, b))
		}
		return y
	}
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
	base := week.Clone()
	for i, v := range base.RawData() {
		base.RawData()[i] = v + 1e12
	}
	cases := []struct {
		name string
		y    *mat.Dense
	}{
		{"constant link", withCol(3, func(*mat.Dense, int) float64 { return 5e6 })},
		{"all-zero link", withCol(7, func(*mat.Dense, int) float64 { return 0 })},
		{"duplicated link", withCol(10, func(y *mat.Dense, b int) float64 { return y.At(b, 11) })},
		{"collinear links", withCol(12, func(y *mat.Dense, b int) float64 { return 2.5*y.At(b, 13) - 0.5*y.At(b, 14) })},
		{"rank-2 history", rank2},
		{"t == m", mat.NewDense(links, links, week.Clone().RawData()[:links*links])},
		{"1e12 base load", base},
	}
	for _, c := range cases {
		c.y.CenterColumns()
		mat.AssertSymEigMatchesTred2Oracle(t, c.name, c.y.Gram())
	}
}
