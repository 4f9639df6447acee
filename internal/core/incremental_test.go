package core

import (
	"math"
	"testing"

	"netanomaly/internal/mat"
)

func TestCovTrackerValidation(t *testing.T) {
	if _, err := NewCovTracker(0, 0.9); err == nil {
		t.Fatal("zero dim must error")
	}
	if _, err := NewCovTracker(3, 0); err == nil {
		t.Fatal("lambda 0 must error")
	}
	if _, err := NewCovTracker(3, 1.5); err == nil {
		t.Fatal("lambda > 1 must error")
	}
}

func TestCovTrackerMatchesBatchWithLambdaOne(t *testing.T) {
	// With lambda=1 the tracker reproduces the batch mean and the
	// population covariance of the data.
	_, _, y := testDataset(t, 50, 288)
	_, dim := y.Dims()
	tr, err := NewCovTracker(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.UpdateAll(y)
	if tr.n != 288 {
		t.Fatalf("Count = %d", tr.n)
	}
	wantMean := y.ColMeans()
	if !mat.VecEqualApprox(tr.mean, wantMean, 1e-6*(1+mat.Norm2(wantMean))) {
		t.Fatal("tracked mean diverges from batch mean")
	}
	// Population covariance: (Y-mean)^T (Y-mean) / n.
	c := y.Clone()
	c.CenterColumns()
	want := c.Gram()
	want.Scale(1.0 / 288)
	got := tr.cov
	if !mat.EqualApprox(got, want, 1e-6*(1+want.MaxAbs())) {
		t.Fatalf("tracked covariance diverges: max diff %v", mat.Sub(got, want).MaxAbs())
	}
}

func TestCovTrackerPCAAgreesWithBatch(t *testing.T) {
	_, _, y := testDataset(t, 51, 432)
	_, dim := y.Dims()
	tr, _ := NewCovTracker(dim, 1)
	tr.UpdateAll(y)
	pInc, err := tr.PCA()
	if err != nil {
		t.Fatal(err)
	}
	pBatch, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	// Variances agree up to the n vs n-1 normalization.
	scale := float64(431) / 432
	for i := 0; i < 6; i++ {
		want := pBatch.Variances[i] * scale
		if math.Abs(pInc.Variances[i]-want) > 1e-6*(1+want) {
			t.Fatalf("variance[%d]: incremental %v batch %v", i, pInc.Variances[i], want)
		}
	}
	// Leading subspace agrees: projectors close for a fixed rank.
	mInc, err := tr.Model(4)
	if err != nil {
		t.Fatal(err)
	}
	mBatch, err := Build(pBatch, 4)
	if err != nil {
		t.Fatal(err)
	}
	diff := mInc.Distance(mBatch)
	if diff > 1e-6 {
		t.Fatalf("projector difference %v", diff)
	}
}

func TestCovTrackerDetectsWithQLimit(t *testing.T) {
	// A model built from the tracker must detect a spike exactly like the
	// batch pipeline.
	topo, x, y := testDataset(t, 52, 1008)
	_, dim := y.Dims()
	tr, _ := NewCovTracker(dim, 1)
	tr.UpdateAll(y)
	pBatch, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	rank := SeparateAxes(pBatch, DefaultSigma)
	m, err := tr.Model(rank)
	if err != nil {
		t.Fatal(err)
	}
	limit, err := m.QLimit(0.999)
	if err != nil {
		t.Fatal(err)
	}
	spiked := spikedLinkLoad(topo, x, 600, 9, 9e7)
	if m.SPE(spiked) <= limit {
		t.Fatal("incremental model missed a 9e7 spike")
	}
	if m.SPE(y.Row(600)) > limit {
		t.Fatal("incremental model false alarm on clean bin")
	}
}

func TestCovTrackerForgetsDrift(t *testing.T) {
	// With forgetting, the tracker adapts to a mean shift; without, it
	// lags. Feed 300 bins at one level then 300 at double the level.
	const dim = 4
	mkRow := func(level float64, i int) []float64 {
		return []float64{level, level / 2, level / 3, float64(i%7) + level/4}
	}
	forgetful, _ := NewCovTracker(dim, 0.98)
	stubborn, _ := NewCovTracker(dim, 1)
	for i := 0; i < 300; i++ {
		forgetful.Update(mkRow(100, i))
		stubborn.Update(mkRow(100, i))
	}
	for i := 0; i < 300; i++ {
		forgetful.Update(mkRow(200, i))
		stubborn.Update(mkRow(200, i))
	}
	fErr := math.Abs(forgetful.mean[0] - 200)
	sErr := math.Abs(stubborn.mean[0] - 200)
	if fErr > 5 {
		t.Fatalf("forgetful tracker mean error %v", fErr)
	}
	if sErr < 20 {
		t.Fatalf("lambda=1 tracker should lag a mean shift, error only %v", sErr)
	}
}

func TestCovTrackerDrift(t *testing.T) {
	_, _, y := testDataset(t, 53, 432)
	_, dim := y.Dims()
	tr, _ := NewCovTracker(dim, 1)
	tr.UpdateAll(y)
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.Model(ref.Rank())
	if err != nil {
		t.Fatal(err)
	}
	// Same data: the tracked subspace must not drift from the batch one.
	if d := ref.Distance(m); d > 1e-6 {
		t.Fatalf("drift on identical data = %v", d)
	}
}

func TestCovTrackerTooFewSamples(t *testing.T) {
	tr, _ := NewCovTracker(3, 1)
	if _, err := tr.PCA(); err != ErrTooFewSamples {
		t.Fatalf("expected ErrTooFewSamples, got %v", err)
	}
	tr.Update([]float64{1, 2, 3})
	if _, err := tr.PCA(); err != ErrTooFewSamples {
		t.Fatalf("expected ErrTooFewSamples after one sample, got %v", err)
	}
}

func TestCovTrackerUpdatePanics(t *testing.T) {
	tr, _ := NewCovTracker(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Update([]float64{1, 2})
}
