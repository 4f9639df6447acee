package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) must be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("MinMax(nil) must be NaN,NaN")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{2.5758293035489004, 0.995},
		{3.0902323061678132, 0.999},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("NormalCDF(%v) = %v want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Float64()*0.998 + 0.001
		z := NormalQuantile(p)
		return math.Abs(NormalCDF(z)-p) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.999, 3.0902323061678132},
		{0.9995, 3.2905267314918945},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("NormalQuantile(%v) = %v want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileTails(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("endpoints must map to infinities")
	}
	if z := NormalQuantile(1e-10); z > -6 {
		t.Fatalf("deep left tail %v not negative enough", z)
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Float64()*0.498 + 0.001
		return math.Abs(NormalQuantile(p)+NormalQuantile(1-p)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NormalQuantile(-0.1)
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.AddAll([]float64{0.05, 0.15, 0.15, 0.95})
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.total != 4 {
		t.Fatalf("total = %d", h.total)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-0.5)
	h.Add(1.5)
	h.Add(1.0) // exactly max lands in last bin
	if h.Counts[0] != 1 || h.Counts[3] != 2 {
		t.Fatalf("clamping wrong: %v", h.Counts)
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if f := h.Fractions(); f[0] != 0 || f[1] != 0 {
		t.Fatal("empty histogram fractions must be zero")
	}
	h.Add(0.25)
	h.Add(0.75)
	h.Add(0.8)
	f := h.Fractions()
	if math.Abs(f[0]-1.0/3) > 1e-12 || math.Abs(f[1]-2.0/3) > 1e-12 {
		t.Fatalf("fractions = %v", f)
	}
}

func TestHistogramInvalidConstruction(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
