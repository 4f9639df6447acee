package mat_test

import (
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
