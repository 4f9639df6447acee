package core

import (
	"math"
	"math/rand"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/stats"
)

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
	for _, c := range []float64{0, 1, -0.5, 1.5} {
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

func TestQLimitFalseAlarmRateGaussian(t *testing.T) {
	// On multivariate Gaussian data the Q-statistic must deliver its
	// nominal false alarm rate. Build data with a known low-rank signal
	// plus noise, fit on one sample, test on fresh data from the same
	// distribution.
	rng := rand.New(rand.NewSource(11))
	const dim = 10
	const n = 4000
	gen := func(rows int) *mat.Dense {
		m := mat.Zeros(rows, dim)
		for i := 0; i < rows; i++ {
			// Strong 2-D signal + isotropic noise.
			s1, s2 := 10*rng.NormFloat64(), 6*rng.NormFloat64()
			row := m.RowView(i)
			for j := 0; j < dim; j++ {
				row[j] = s1*math.Sin(float64(j)) + s2*math.Cos(2*float64(j)) + rng.NormFloat64()
			}
		}
		return m
	}
	train := gen(n)
	p, err := Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	limit, err := m.QLimit(0.995)
	if err != nil {
		t.Fatal(err)
	}
	test := gen(n)
	var alarms int
	for i := 0; i < n; i++ {
		if m.SPE(test.Row(i)) > limit {
			alarms++
		}
	}
	rate := float64(alarms) / float64(n)
	// Nominal 0.5%; allow generous sampling slack.
	if rate > 0.02 {
		t.Fatalf("false alarm rate %v far above nominal 0.005", rate)
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
