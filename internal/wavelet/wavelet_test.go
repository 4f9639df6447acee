package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// The inverse transform and the coefficient energy are test oracles:
// Decompose must invert exactly and preserve energy (Parseval).

// Inverse reconstructs a signal from one level of approximation and
// detail coefficients.
func Inverse(approx, detail []float64) []float64 {
	if len(approx) != len(detail) {
		panic(fmt.Sprintf("wavelet: Inverse length mismatch %d vs %d", len(approx), len(detail)))
	}
	x := make([]float64, 2*len(approx))
	for i := range approx {
		x[2*i] = (approx[i] + detail[i]) / sqrt2
		x[2*i+1] = (approx[i] - detail[i]) / sqrt2
	}
	return x
}

// Reconstruct inverts Decompose exactly.
func (d *Decomposition) Reconstruct() []float64 {
	cur := mat.CloneVec(d.Approx)
	for k := len(d.Details) - 1; k >= 0; k-- {
		cur = Inverse(cur, d.Details[k])
	}
	return cur
}

// Energy returns the squared norm of all coefficients.
func (d *Decomposition) Energy() float64 {
	e := mat.SqNorm(d.Approx)
	for _, det := range d.Details {
		e += mat.SqNorm(det)
	}
	return e
}

func TestForwardInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(64))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a, d := Forward(x)
		return mat.VecEqualApprox(Inverse(a, d), x, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardOddLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Forward(make([]float64, 3))
}

func TestInverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Inverse(make([]float64, 2), make([]float64, 3))
}

func TestForwardConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5}
	a, d := Forward(x)
	for i := range d {
		if d[i] != 0 {
			t.Fatalf("constant signal must have zero details: %v", d)
		}
		if math.Abs(a[i]-5*sqrt2) > 1e-12 {
			t.Fatalf("approx = %v", a)
		}
	}
}

func TestDecomposeReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := 1 + rng.Intn(4)
		n := (1 << levels) * (1 + rng.Intn(16))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		d, err := Decompose(x, levels)
		if err != nil {
			return false
		}
		return mat.VecEqualApprox(d.Reconstruct(), x, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeParseval(t *testing.T) {
	// Orthonormal transform preserves energy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 64)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		d, err := Decompose(x, 3)
		if err != nil {
			return false
		}
		return math.Abs(d.Energy()-mat.SqNorm(x)) < 1e-9*(1+mat.SqNorm(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(make([]float64, 6), 2); err == nil {
		t.Fatal("length not divisible by 2^levels must error")
	}
	if _, err := Decompose(nil, 1); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := Decompose(make([]float64, 8), 0); err == nil {
		t.Fatal("zero levels must error")
	}
}

func TestDetailMatrixShape(t *testing.T) {
	y := mat.Zeros(32, 3)
	dm, err := DetailMatrix(y, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, c := dm.Dims()
	if r != 8 || c != 3 {
		t.Fatalf("DetailMatrix dims %dx%d want 8x3", r, c)
	}
	if _, err := DetailMatrix(mat.Zeros(30, 3), 1); err == nil {
		t.Fatal("non-divisible bins must error")
	}
	if _, err := DetailMatrix(y, -1); err == nil {
		t.Fatal("negative level must error")
	}
}

func TestDetailMatrixLocalizesStep(t *testing.T) {
	// A sharp step between bins 16 and 17 shows up as a large level-0
	// detail coefficient at coefficient index 8.
	y := mat.Zeros(32, 1)
	for b := 17; b < 32; b++ {
		y.Set(b, 0, 100)
	}
	dm, err := DetailMatrix(y, 0)
	if err != nil {
		t.Fatal(err)
	}
	var maxIdx int
	var maxAbs float64
	for i := 0; i < dm.Rows(); i++ {
		if a := math.Abs(dm.At(i, 0)); a > maxAbs {
			maxAbs, maxIdx = a, i
		}
	}
	if maxIdx != 8 {
		t.Fatalf("step localized at coefficient %d want 8", maxIdx)
	}
}

// buildWaveletDataset produces a 1024-bin link-load matrix (divisible by
// 2^levels) on Abilene.
func buildWaveletDataset(t *testing.T, seed int64) (*topology.Topology, *mat.Dense, *mat.Dense) {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = 1024
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	return topo, x, traffic.LinkLoads(topo, x)
}

func TestMultiscaleDetectorFindsSustainedAnomaly(t *testing.T) {
	topo, x, _ := buildWaveletDataset(t, 91)
	// A sustained 8-bin (80-minute) anomaly of modest per-bin size,
	// deliberately misaligned with the dyadic grid (start 515) so its
	// edges carry detail energy: a constant block aligned on a multiple
	// of 2^levels would be invisible to detail coefficients, which only
	// see change.
	flow := topo.FlowID(3, 8)
	const start, length = 515, 8
	for b := start; b < start+length; b++ {
		x.Set(b, flow, x.At(b, flow)+5e7)
	}
	y := traffic.LinkLoads(topo, x)
	md, err := NewMultiscaleDetector(y, 3, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if md.Levels() != 3 {
		t.Fatalf("levels = %d", md.Levels())
	}
	dets, err := md.Detect(y)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dets {
		if d.BinEnd > start && d.BinStart < start+length {
			found = true
			if d.SPE <= d.Threshold {
				t.Fatal("alarm below threshold")
			}
		}
	}
	if !found {
		t.Fatalf("sustained anomaly not found at any scale; detections: %+v", dets)
	}
}

func TestMultiscaleDetectorFewFalseAlarmsOnCleanData(t *testing.T) {
	_, _, y := buildWaveletDataset(t, 92)
	md, err := NewMultiscaleDetector(y, 3, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	dets, err := md.Detect(y)
	if err != nil {
		t.Fatal(err)
	}
	// 512+256+128 = 896 scale-bins tested at 99.9%.
	if len(dets) > 10 {
		t.Fatalf("too many clean-data detections: %d", len(dets))
	}
}

func TestMultiscaleDetectorErrors(t *testing.T) {
	_, _, y := buildWaveletDataset(t, 93)
	if _, err := NewMultiscaleDetector(y, 0, 0.999); err == nil {
		t.Fatal("zero levels must error")
	}
	// Too many levels: coefficient rows < links.
	if _, err := NewMultiscaleDetector(y, 6, 0.999); err == nil {
		t.Fatal("too-deep decomposition must error")
	}
}
