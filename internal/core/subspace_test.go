package core

import (
	"math"
	"math/rand"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/stats"
)

// normal returns C v = P (P^T v), the projection of v onto S.
func (m *Model) normal(v []float64) []float64 {
	return mat.MulVec(m.p, mat.MulTVec(m.p, v))
}

// Decompose splits a link measurement vector y into its modeled part
// yhat (projection onto S) and residual part ytilde (projection onto S~),
// working on the mean-centered vector: y - mean = yhat + ytilde.
func (m *Model) Decompose(y []float64) (yhat, ytilde []float64) {
	yc := m.center(y)
	yhat = m.normal(yc)
	ytilde = mat.SubVec(yc, yhat)
	return yhat, ytilde
}

func fitModel(t *testing.T, y *mat.Dense, rank int) *Model {
	t.Helper()
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	if rank == 0 {
		rank = SeparateAxes(p, DefaultSigma)
	}
	m, err := Build(p, rank)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSeparateAxesRange(t *testing.T) {
	_, _, y := testDataset(t, 1, 432)
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	r := SeparateAxes(p, DefaultSigma)
	if r < 1 || r >= p.NumComponents() {
		t.Fatalf("rank %d out of [1,%d)", r, p.NumComponents())
	}
}

func TestSeparateAxesSpikeShrinksRank(t *testing.T) {
	// A giant spike in the measurements must push at least one early axis
	// into the anomalous subspace relative to clean data: rank must not
	// grow, and the spike's axis must violate 3 sigma.
	_, _, y := testDataset(t, 2, 432)
	pClean, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	rClean := SeparateAxes(pClean, DefaultSigma)

	dirty := y.Clone()
	row := dirty.RowView(200)
	for j := range row {
		row[j] *= 4 // network-wide burst at one bin
	}
	pDirty, err := Fit(dirty)
	if err != nil {
		t.Fatal(err)
	}
	rDirty := SeparateAxes(pDirty, DefaultSigma)
	if rDirty > rClean+1 {
		t.Fatalf("spike increased rank from %d to %d", rClean, rDirty)
	}
}

func TestSeparateAxesSigmaMonotone(t *testing.T) {
	// Looser sigma cannot shrink the normal subspace.
	_, _, y := testDataset(t, 3, 432)
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	r3 := SeparateAxes(p, 3)
	r6 := SeparateAxes(p, 6)
	if r6 < r3 {
		t.Fatalf("sigma=6 rank %d < sigma=3 rank %d", r6, r3)
	}
}

func TestSeparateAxesPanics(t *testing.T) {
	_, _, y := testDataset(t, 4, 288)
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SeparateAxes(p, 0)
}

func TestBuildRankValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	y := randMatrix(rng, 30, 5)
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 5, -1, 6} {
		if _, err := Build(p, r); err == nil {
			t.Fatalf("rank %d must be rejected", r)
		}
	}
	if _, err := Build(p, 2); err != nil {
		t.Fatalf("valid rank rejected: %v", err)
	}
}

func TestProjectionOperatorsComplementary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	y := randMatrix(rng, 40, 6)
	m := fitModel(t, y, 3)
	c, ct := denseProjectors(m)
	// C + C~ = I
	sum := mat.Add(c, ct)
	if !mat.EqualApprox(sum, mat.Identity(6), 1e-10) {
		t.Fatal("C + C~ != I")
	}
	// Both idempotent.
	if !mat.EqualApprox(mat.Mul(c, c), c, 1e-10) {
		t.Fatal("C not idempotent")
	}
	if !mat.EqualApprox(mat.Mul(ct, ct), ct, 1e-10) {
		t.Fatal("C~ not idempotent")
	}
	// Orthogonal: C * C~ = 0.
	if mat.Mul(c, ct).MaxAbs() > 1e-10 {
		t.Fatal("C and C~ not orthogonal")
	}
}

func TestDecomposeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	y := randMatrix(rng, 40, 6)
	m := fitModel(t, y, 2)
	v := y.Row(7)
	yhat, ytilde := m.Decompose(v)
	recon := mat.AddVec(mat.AddVec(yhat, ytilde), m.Means())
	if !mat.VecEqualApprox(recon, v, 1e-9) {
		t.Fatal("yhat + ytilde + mean != y")
	}
	// The two parts are orthogonal.
	if math.Abs(mat.Dot(yhat, ytilde)) > 1e-8 {
		t.Fatal("modeled and residual parts not orthogonal")
	}
}

func TestSPEOfNormalSubspaceVectorIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	y := randMatrix(rng, 40, 6)
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A vector along v_1 offset by the means lies in S: SPE ~ 0.
	v1 := p.Components.Col(0)
	vec := mat.AddVec(m.Means(), v1)
	if spe := m.SPE(vec); spe > 1e-15 {
		t.Fatalf("SPE of normal-subspace vector = %v", spe)
	}
	// A vector along v_m lies in S~: SPE ~ 1.
	vm := p.Components.Col(5)
	vec = mat.AddVec(m.Means(), vm)
	if spe := m.SPE(vec); math.Abs(spe-1) > 1e-9 {
		t.Fatalf("SPE of anomalous-subspace unit vector = %v want 1", spe)
	}
}

func TestSPEAdditivity(t *testing.T) {
	// SPE(y) = ||y-mean||^2 - ||C(y-mean)||^2 (Pythagoras).
	rng := rand.New(rand.NewSource(5))
	y := randMatrix(rng, 40, 6)
	m := fitModel(t, y, 2)
	v := y.Row(11)
	yhat, _ := m.Decompose(v)
	centered := mat.SubVec(v, m.Means())
	want := mat.SqNorm(centered) - mat.SqNorm(yhat)
	if got := m.SPE(v); math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("SPE = %v want %v", got, want)
	}
}

func TestModelAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	y := randMatrix(rng, 40, 6)
	m := fitModel(t, y, 2)
	if m.Rank() != 2 {
		t.Fatalf("Rank = %d", m.Rank())
	}
	if m.NumLinks() != 6 {
		t.Fatalf("NumLinks = %d", m.NumLinks())
	}
	means := m.Means()
	means[0] = 1e18 // mutating the copy must not affect the model
	if m.Means()[0] == 1e18 {
		t.Fatal("Means must return a copy")
	}
}

func TestSPEDimensionPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	y := randMatrix(rng, 40, 6)
	m := fitModel(t, y, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SPE([]float64{1, 2, 3})
}

func TestQLimitMonotoneInConfidence(t *testing.T) {
	_, _, y := testDataset(t, 8, 432)
	m := fitModel(t, y, 0)
	l995, err := m.QLimit(0.995)
	if err != nil {
		t.Fatal(err)
	}
	l999, err := m.QLimit(0.999)
	if err != nil {
		t.Fatal(err)
	}
	if l999 <= l995 || l995 <= 0 {
		t.Fatalf("QLimit not increasing: 99.5%% = %v, 99.9%% = %v", l995, l999)
	}
}

func TestQLimitBadConfidence(t *testing.T) {
	_, _, y := testDataset(t, 9, 288)
	m := fitModel(t, y, 0)
	for _, c := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := m.QLimit(c); err == nil {
			t.Fatalf("confidence %v must be rejected", c)
		}
	}
}

func TestQLimitDegenerateResidual(t *testing.T) {
	// Data of exact rank 2 with r=2: residual variance is zero.
	rng := rand.New(rand.NewSource(10))
	base := randMatrix(rng, 30, 2)
	mix := randMatrix(rng, 2, 5)
	y := mat.Mul(base, mix) // rank 2, 5 columns
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QLimit(0.999); err != ErrDegenerateResidual {
		t.Fatalf("expected ErrDegenerateResidual, got %v", err)
	}
}

// TestQLimitScaleInvariant pins QLimit's homogeneity: residual
// variances {3, 2, 1, .5, .25}*s give s times the s = 1 limit. Without
// power-of-two rescaling, phi2^2 underflows or overflows at the extreme
// scales, which returned NaN with a nil error (or a spurious
// ErrDegenerateResidual at 1e-200).
func TestQLimitScaleInvariant(t *testing.T) {
	base := []float64{3, 2, 1, 0.5, 0.25}
	limitAt := func(s float64) float64 {
		t.Helper()
		resid := make([]float64, len(base))
		for i, v := range base {
			resid[i] = v * s
		}
		limit, err := (&Model{residVariances: resid}).QLimit(0.999)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		return limit
	}
	unit := limitAt(1)
	for _, s := range []float64{1e-200, 1e-110, 1, 1e80, 1e150} {
		got := limitAt(s)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("scale %g: limit %v is not finite", s, got)
		}
		if rel := math.Abs(got/s-unit) / unit; rel > 1e-12 {
			t.Fatalf("scale %g: limit %g, want %g (relative error %g)", s, got, s*unit, rel)
		}
	}
}

// TestQLimitFalseAlarmRateGaussian checks the Q-statistic against its
// promise: on low-rank signal plus isotropic Gaussian noise, with the
// true rank pinned, the fraction of fresh rows whose SPE exceeds the
// limit is 1 - confidence. The alarm count must fall inside a two-sided
// 4-sigma binomial interval around the nominal count.
func TestQLimitFalseAlarmRateGaussian(t *testing.T) {
	cases := []struct {
		name        string
		dim, rank   int
		confidence  float64
		train, test int
		seed        int64
		signalStd   []float64
		loading     func(k, j int) float64
	}{
		{
			name: "10 links rank 2 at 0.995", dim: 10, rank: 2, confidence: 0.995,
			train: 4000, test: 4000, seed: 11, signalStd: []float64{10, 6},
			loading: func(k, j int) float64 {
				if k == 0 {
					return math.Sin(float64(j))
				}
				return math.Cos(2 * float64(j))
			},
		},
		{
			name: "41 links rank 4 at 0.999", dim: 41, rank: 4, confidence: 0.999,
			train: 2000, test: 40000, seed: 12, signalStd: []float64{20, 14, 10, 7},
			loading: func(k, j int) float64 {
				return math.Sin(float64((k+1)*(j+1)) + float64(k))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			gen := func(rows int) *mat.Dense {
				m := mat.Zeros(rows, tc.dim)
				s := make([]float64, len(tc.signalStd))
				for i := 0; i < rows; i++ {
					for k, sd := range tc.signalStd {
						s[k] = sd * rng.NormFloat64()
					}
					row := m.RowView(i)
					for j := range row {
						v := rng.NormFloat64()
						for k := range s {
							v += s[k] * tc.loading(k, j)
						}
						row[j] = v
					}
				}
				return m
			}
			p, err := Fit(gen(tc.train))
			if err != nil {
				t.Fatal(err)
			}
			m, err := Build(p, tc.rank)
			if err != nil {
				t.Fatal(err)
			}
			limit, err := m.QLimit(tc.confidence)
			if err != nil {
				t.Fatal(err)
			}
			test := gen(tc.test)
			alarms := 0
			for i := 0; i < tc.test; i++ {
				if m.SPE(test.RowView(i)) > limit {
					alarms++
				}
			}
			alpha := 1 - tc.confidence
			mean := float64(tc.test) * alpha
			sd := math.Sqrt(mean * (1 - alpha))
			if lo, hi := mean-4*sd, mean+4*sd; float64(alarms) < lo || float64(alarms) > hi {
				t.Fatalf("%d/%d alarms, want within [%.1f, %.1f] (nominal %.1f)", alarms, tc.test, lo, hi, mean)
			}
			t.Logf("%d/%d alarms, nominal %.1f", alarms, tc.test, mean)
		})
	}
}

func TestResidualVariancesMatchSPEMean(t *testing.T) {
	// E[SPE] over the training data should match phi1 = sum of residual
	// variances (up to the (t-1)/t normalization).
	_, _, y := testDataset(t, 12, 432)
	m := fitModel(t, y, 0)
	rows, _ := y.Dims()
	spes := make([]float64, rows)
	for b := 0; b < rows; b++ {
		spes[b] = m.SPE(y.Row(b))
	}
	var phi1 float64
	for _, l := range m.residVariances {
		phi1 += l
	}
	meanSPE := stats.Mean(spes)
	ratio := meanSPE / phi1
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("mean SPE %v vs phi1 %v (ratio %v)", meanSPE, phi1, ratio)
	}
}
