package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"netanomaly/internal/mat"
	"netanomaly/internal/stats"
	"netanomaly/internal/topology"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Bins = 288 // two days, fast tests
	return cfg
}

func mustGen(t *testing.T, topo *topology.Topology, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	topo := topology.Abilene()
	bad := []func(*Config){
		func(c *Config) { c.Bins = 0 },
		func(c *Config) { c.BinDuration = 0 },
		func(c *Config) { c.TotalMeanRate = -1 },
		func(c *Config) { c.NoiseAR = 1 },
		func(c *Config) { c.DiurnalAmplitude = 2 },
		func(c *Config) { c.WeeklyAmplitude = -0.1 },
		func(c *Config) { c.NoiseSigma = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(1)
		mut(&cfg)
		if _, err := NewGenerator(topo, cfg); err == nil {
			t.Fatalf("case %d: expected config error", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	topo := topology.Abilene()
	g := mustGen(t, topo, smallConfig(1))
	x := g.Generate()
	r, c := x.Dims()
	if r != 288 || c != topo.NumFlows() {
		t.Fatalf("Generate dims = %dx%d", r, c)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	topo := topology.Abilene()
	x1 := mustGen(t, topo, smallConfig(7)).Generate()
	x2 := mustGen(t, topo, smallConfig(7)).Generate()
	if !mat.EqualApprox(x1, x2, 0) {
		t.Fatal("same seed must reproduce the matrix exactly")
	}
	x3 := mustGen(t, topo, smallConfig(8)).Generate()
	if mat.EqualApprox(x1, x3, 0) {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		topo := topology.Synthetic(5, 6, seed)
		cfg := smallConfig(seed)
		cfg.Bins = 144
		g, err := NewGenerator(topo, cfg)
		if err != nil {
			return false
		}
		x := g.Generate()
		r, c := x.Dims()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if x.At(i, j) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// FlowMeans returns the gravity-model mean rate of every OD flow, in
// bytes per bin. Deterministic in the configured seed.
func (g *Generator) FlowMeans() []float64 {
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	return g.flowMeans(rng)
}

func TestFlowMeansGravity(t *testing.T) {
	topo := topology.Abilene()
	cfg := DefaultConfig(3)
	g := mustGen(t, topo, cfg)
	means := g.FlowMeans()
	var sum float64
	for _, m := range means {
		if m <= 0 {
			t.Fatal("gravity means must be positive")
		}
		sum += m
	}
	if math.Abs(sum-cfg.TotalMeanRate)/cfg.TotalMeanRate > 1e-9 {
		t.Fatalf("means must sum to TotalMeanRate: %v", sum)
	}
	// Heavy-tailedness: the largest flow should dominate the median.
	lo, hi := stats.MinMax(means)
	if hi/lo < 10 {
		t.Fatalf("flow size spread too small: min %v max %v", lo, hi)
	}
}

func TestGenerateMeansApproximatelyGravity(t *testing.T) {
	topo := topology.Abilene()
	cfg := DefaultConfig(11)
	g := mustGen(t, topo, cfg)
	x := g.Generate()
	want := g.FlowMeans()
	// Time-averaged traffic per flow should track the gravity mean within
	// a modest tolerance (diurnal shape and weekend dip are mean-reducing,
	// so compare relative ordering and overall scale).
	var totGen, totWant float64
	for f := 0; f < topo.NumFlows(); f++ {
		totGen += stats.Mean(x.Col(f))
		totWant += want[f]
	}
	if math.Abs(totGen-totWant)/totWant > 0.25 {
		t.Fatalf("total generated %v too far from gravity total %v", totGen, totWant)
	}
}

func TestDiurnalCycleVisible(t *testing.T) {
	topo := topology.Abilene()
	cfg := DefaultConfig(5)
	cfg.Bins = 1008
	g := mustGen(t, topo, cfg)
	x := g.Generate()
	// Aggregate network traffic per bin; afternoon (peak) bins should
	// carry clearly more traffic than pre-dawn bins on weekdays.
	var peak, trough float64
	var npk, ntr int
	for b := 0; b < 5*144; b++ { // weekdays only
		hour := math.Mod(float64(b)/6.0, 24)
		var tot float64
		for f := 0; f < topo.NumFlows(); f++ {
			tot += x.At(b, f)
		}
		if hour >= 14 && hour < 16 {
			peak += tot
			npk++
		}
		if hour >= 3 && hour < 5 {
			trough += tot
			ntr++
		}
	}
	peak /= float64(npk)
	trough /= float64(ntr)
	if peak < 1.3*trough {
		t.Fatalf("diurnal cycle too weak: peak %v trough %v", peak, trough)
	}
}

func TestWeekendDip(t *testing.T) {
	topo := topology.Abilene()
	cfg := DefaultConfig(5)
	cfg.Bins = 1008
	x := mustGen(t, topo, cfg).Generate()
	dayTotal := func(day int) float64 {
		var tot float64
		for b := day * 144; b < (day+1)*144; b++ {
			for f := 0; f < topo.NumFlows(); f++ {
				tot += x.At(b, f)
			}
		}
		return tot
	}
	wed := dayTotal(2)
	sun := dayTotal(6)
	if sun > 0.95*wed {
		t.Fatalf("weekend dip missing: Wed %v Sun %v", wed, sun)
	}
}

func TestWeekendFactorBounds(t *testing.T) {
	for h := 0.0; h < 168; h += 0.5 {
		w := weekendFactor(h, 0.3)
		if w < 0.7-1e-12 || w > 1+1e-12 {
			t.Fatalf("weekendFactor(%v) = %v out of [0.7,1]", h, w)
		}
	}
	if weekendFactor(100, 0) != 1 {
		t.Fatal("zero amplitude must disable the dip")
	}
}

func TestLinkLoadsSuperposition(t *testing.T) {
	// Link loads must equal A*x at every timestep.
	topo := topology.SprintEurope()
	cfg := smallConfig(2)
	cfg.Bins = 12
	x := mustGen(t, topo, cfg).Generate()
	y := LinkLoads(topo, x)
	a := topo.RoutingMatrix()
	for b := 0; b < 12; b++ {
		want := mat.MulVec(a, x.Row(b))
		if !mat.VecEqualApprox(y.Row(b), want, 1e-6*(1+mat.Norm2(want))) {
			t.Fatalf("bin %d: link loads disagree with Ax", b)
		}
	}
}

func TestLinkLoadAtMatchesMatrix(t *testing.T) {
	topo := topology.Abilene()
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, topo.NumFlows())
	for i := range x {
		x[i] = rng.Float64() * 1e6
	}
	got := LinkLoadAt(topo, x)
	want := mat.MulVec(topo.RoutingMatrix(), x)
	if !mat.VecEqualApprox(got, want, 1e-6) {
		t.Fatal("LinkLoadAt disagrees with routing matrix product")
	}
}

func TestLinkLoadsDimensionPanic(t *testing.T) {
	topo := topology.Abilene()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LinkLoads(topo, mat.Zeros(5, 3))
}

func TestInject(t *testing.T) {
	x := mat.Zeros(10, 4)
	x.Set(3, 2, 100)
	Inject(x, []Anomaly{{Flow: 2, Bin: 3, Delta: 50}})
	if x.At(3, 2) != 150 {
		t.Fatalf("Inject add = %v", x.At(3, 2))
	}
	// Negative spikes clip at zero.
	Inject(x, []Anomaly{{Flow: 2, Bin: 3, Delta: -1000}})
	if x.At(3, 2) != 0 {
		t.Fatalf("Inject clip = %v", x.At(3, 2))
	}
}

func TestInjectOutOfRangePanics(t *testing.T) {
	x := mat.Zeros(5, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Inject(x, []Anomaly{{Flow: 9, Bin: 0, Delta: 1}})
}

func TestDefaultConfigIsPaperScale(t *testing.T) {
	cfg := DefaultConfig(1)
	if cfg.Bins != 1008 {
		t.Fatalf("Bins = %d want 1008", cfg.Bins)
	}
	if cfg.BinDuration != 10*time.Minute {
		t.Fatalf("BinDuration = %v want 10m", cfg.BinDuration)
	}
}
