package traffic

// Bin-for-bin reproducibility pins. The end-to-end smokes and
// examples/compare quote exact alarm bins and byte counts; those
// numbers are only stable across runs and machines because every
// random draw in the pipeline flows from the configured seed through
// math/rand's stable generator. A refactor that sneaks in an unseeded
// source (or reorders draws per bin) breaks reproducibility silently —
// these tests make it loud.

import (
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
)

func TestGenerateBinForBinReproducible(t *testing.T) {
	topo := topology.Abilene()
	cfg := DefaultConfig(99)
	cfg.Bins = 288
	gen1, err := NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := gen1.Generate(), gen2.Generate()
	ar, br := a.RawData(), b.RawData()
	if len(ar) != len(br) {
		t.Fatalf("shapes differ: %d vs %d values", len(ar), len(br))
	}
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatalf("same seed diverged at value %d: %v vs %v", i, ar[i], br[i])
		}
	}
	// Repeated Generate on one generator must also restart the stream
	// identically — the generator reseeds per call, it does not consume
	// a shared RNG.
	c := gen1.Generate().RawData()
	for i := range ar {
		if ar[i] != c[i] {
			t.Fatalf("second Generate on the same generator diverged at value %d", i)
		}
	}

	cfg.Seed = 100
	gen3, err := NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := gen3.Generate().RawData()
	same := true
	for i := range ar {
		if ar[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traffic")
	}
}

// TestScenariosBinForBinReproducible extends the reproducibility pins
// to every attack-scenario kind: same seed, same topology → the
// mutated OD matrix, ground truth, flow-count injections and affected
// flows are identical value for value; a different seed must move the
// injection somewhere else for at least one scenario draw.
func TestScenariosBinForBinReproducible(t *testing.T) {
	topo := topology.Abilene()
	const start, bins = 64, 192
	apply := func(name string, seed int64) (*mat.Dense, *ScenarioResult) {
		cfg := DefaultConfig(seed)
		cfg.Bins = bins
		gen, err := NewGenerator(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		od := gen.Generate()
		sc, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Apply(topo, od, start, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return od, res
	}
	for _, sc := range Scenarios() {
		odA, resA := apply(sc.Name, 21)
		odB, resB := apply(sc.Name, 21)
		ar, br := odA.RawData(), odB.RawData()
		for i := range ar {
			if ar[i] != br[i] {
				t.Fatalf("%s: same seed diverged at value %d: %v vs %v", sc.Name, i, ar[i], br[i])
			}
		}
		if len(resA.Truth) != len(resB.Truth) {
			t.Fatalf("%s: truth lengths diverged: %d vs %d", sc.Name, len(resA.Truth), len(resB.Truth))
		}
		for i := range resA.Truth {
			if resA.Truth[i] != resB.Truth[i] {
				t.Fatalf("%s: truth[%d] diverged: %+v vs %+v", sc.Name, i, resA.Truth[i], resB.Truth[i])
			}
		}
		if len(resA.FlowCountAnomalies) != len(resB.FlowCountAnomalies) {
			t.Fatalf("%s: flow-count injections diverged in length", sc.Name)
		}
		for i := range resA.FlowCountAnomalies {
			if resA.FlowCountAnomalies[i] != resB.FlowCountAnomalies[i] {
				t.Fatalf("%s: flow-count injection %d diverged", sc.Name, i)
			}
		}
		if len(resA.AffectedFlows) != len(resB.AffectedFlows) {
			t.Fatalf("%s: affected flows diverged in length", sc.Name)
		}
		for i := range resA.AffectedFlows {
			if resA.AffectedFlows[i] != resB.AffectedFlows[i] {
				t.Fatalf("%s: affected flow %d diverged", sc.Name, i)
			}
		}
		// Different seed: at least the event placement must move for the
		// scenarios that label bins (the flash-crowd control has no
		// labels; its dispersion is checked in scenario_test.go).
		if len(resA.Truth) == 0 {
			continue
		}
		_, resC := apply(sc.Name, 22)
		same := len(resA.Truth) == len(resC.Truth)
		if same {
			for i := range resA.Truth {
				if resA.Truth[i] != resC.Truth[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical ground truth", sc.Name)
		}
	}
}
