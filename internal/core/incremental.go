package core

import (
	"fmt"

	"netanomaly/internal/mat"
)

// CovTracker maintains an exponentially weighted running estimate of the
// mean and covariance of link measurements, supporting the occasional
// cheap model refresh that Section 7.1 recommends for online use: rather
// than refitting a full window, each arriving vector makes
// a rank-1 update, and Model() re-solves only the small m x m symmetric
// eigenproblem when a refreshed subspace is actually needed.
type CovTracker struct {
	dim    int
	lambda float64
	n      int
	mean   []float64
	cov    *mat.Dense
	// delta and delta2 are scratch for Update so the per-bin rank-1 pass
	// allocates nothing: batched ingest calls UpdateAll once per block
	// and must not churn the garbage collector per bin.
	delta, delta2 []float64
}

// NewCovTracker returns a tracker for dim-dimensional measurements with
// forgetting factor lambda in (0, 1]: lambda = 1 weights all history
// equally; smaller values forget with time constant ~1/(1-lambda) bins
// (e.g. 0.999 ~ a week of 10-minute bins).
func NewCovTracker(dim int, lambda float64) (*CovTracker, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("core: tracker dimension %d <= 0", dim)
	}
	if !(0 < lambda && lambda <= 1) {
		return nil, fmt.Errorf("core: forgetting factor %v out of (0,1]", lambda)
	}
	return &CovTracker{
		dim:    dim,
		lambda: lambda,
		mean:   make([]float64, dim),
		cov:    mat.Zeros(dim, dim),
		delta:  make([]float64, dim),
		delta2: make([]float64, dim),
	}, nil
}

// Snapshot returns an independent copy of the tracker's current state,
// so a model rebuild can solve a consistent mean and covariance outside
// the detector's lock while streaming updates continue on the original.
func (c *CovTracker) Snapshot() *CovTracker {
	return &CovTracker{
		dim:    c.dim,
		lambda: c.lambda,
		n:      c.n,
		mean:   mat.CloneVec(c.mean),
		cov:    c.cov.Clone(),
		delta:  make([]float64, c.dim),
		delta2: make([]float64, c.dim),
	}
}

// Update absorbs one measurement vector with a rank-1 covariance update
// (O(m^2) per observation).
func (c *CovTracker) Update(y []float64) {
	if len(y) != c.dim {
		panic(fmt.Sprintf("core: tracker update length %d != dim %d", len(y), c.dim))
	}
	c.n++
	if c.n == 1 {
		copy(c.mean, y)
		return
	}
	// Exponentially weighted analog of Welford's update. With lambda = 1
	// this reproduces the exact sample mean/covariance recursion.
	var w float64
	if c.lambda == 1 {
		w = 1 / float64(c.n)
	} else {
		w = 1 - c.lambda
	}
	delta, delta2 := c.delta, c.delta2
	for i, v := range y {
		delta[i] = v - c.mean[i]
		c.mean[i] += w * delta[i]
		delta2[i] = v - c.mean[i]
	}
	// cov <- (1-w)*cov + w*delta*delta2^T, fused over rows: the inner
	// loop runs over one contiguous covariance row with both scale and
	// rank-1 accumulation in a single pass.
	cov := c.cov.RawData()
	decay := 1 - w
	for i := 0; i < c.dim; i++ {
		row := cov[i*c.dim : (i+1)*c.dim]
		wdi := w * delta[i]
		for j, d2 := range delta2 {
			row[j] = decay*row[j] + wdi*d2
		}
	}
}

// UpdateAll absorbs every row of a measurement matrix. The covariance
// recursion is inherently sequential (each row's deltas depend on the
// mean after the previous row), so the fusion is within the per-row
// pass: all scratch is preallocated on the tracker and a whole batch
// allocates nothing.
func (c *CovTracker) UpdateAll(y *mat.Dense) {
	rows, cols := y.Dims()
	if cols != c.dim {
		panic(fmt.Sprintf("core: tracker batch width %d != dim %d", cols, c.dim))
	}
	data := y.RawData()
	for b := 0; b < rows; b++ {
		c.Update(data[b*cols : (b+1)*cols])
	}
}

// PCA solves the m x m eigenproblem on the tracked covariance and
// returns the equivalent of a batch PCA (without temporal projections,
// which a running estimate cannot provide; SeparateAxes on this PCA is
// not meaningful — choose the rank from a batch fit or a fixed policy).
func (c *CovTracker) PCA() (*PCA, error) {
	if c.n < 2 {
		return nil, ErrTooFewSamples
	}
	vals, vecs, err := mat.SymEig(c.cov)
	if err != nil {
		return nil, fmt.Errorf("core: tracker eigendecomposition: %w", err)
	}
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0 // PSD up to round-off
		}
	}
	return &PCA{
		Components:  vecs,
		Variances:   vals,
		Projections: mat.Zeros(1, len(vals)), // no temporal view
		Means:       mat.CloneVec(c.mean),
		SampleCount: c.n,
	}, nil
}

// Model builds a subspace model of the given rank from the tracked
// state.
func (c *CovTracker) Model(rank int) (*Model, error) {
	p, err := c.PCA()
	if err != nil {
		return nil, err
	}
	return Build(p, rank)
}

// IncrementalConfig configures NewIncrementalDetector.
type IncrementalConfig struct {
	// Lambda is the covariance forgetting factor in (0, 1]; 1 (the
	// default) weights all history equally, smaller values forget with
	// time constant ~1/(1-Lambda) bins (0.999 ~ a week of ten-minute
	// bins).
	Lambda float64
	// RefitEvery marks a model rebuild from the tracked covariance due
	// after this many processed bins, which Settle (or else the next
	// ProcessBatch) runs; 0 disables automatic rebuilds (call Refit
	// explicitly).
	RefitEvery int
	// DriftTol gates automatic rebuilds: the freshly solved model
	// replaces the active one only when the Frobenius distance between
	// their residual projectors reaches DriftTol (the paper observes
	// P P^T is stable week to week, so most intervals need no new
	// model). 0 swaps on every interval. Explicit Refit ignores the
	// gate.
	DriftTol float64
	// Options configure the diagnoser (confidence, sigma, fixed rank).
	Options Options
}

// NewIncrementalDetector returns the "incremental" backend for the links
// of routing matrix a, unseeded (see NewOnlineDetector): an
// OnlineDetector whose estimate is an exponentially weighted
// mean/covariance (CovTracker) instead of a window of raw measurements.
// Each batch makes rank-1 covariance updates in place — no window copy —
// and a rebuild solves the m x m symmetric eigenproblem on the tracked
// covariance directly, skipping the window backend's O(t·m^2) Gram
// (Section 7.1's "cheap model refresh"). Seed runs the same batch fit on
// history (bins x links) as the windowed backend, so both start from the
// same model; the normal-subspace rank resolved there is retained across
// rebuilds, since a running covariance has no temporal projections to
// separate on.
func NewIncrementalDetector(a *mat.Dense, cfg IncrementalConfig) (*OnlineDetector, error) {
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	return newDetector(&covEstimator{lambda: cfg.Lambda}, a, cfg.Options, cfg.RefitEvery, true, cfg.DriftTol)
}

// covEstimator is the tracked-covariance estimate and the rank its
// models are built at. Absorbed rows wait in pending until settle makes
// their O(m^2) rank-1 updates.
type covEstimator struct {
	lambda  float64
	tr      *CovTracker
	rank    int
	pending pendingRows
}

func (e *covEstimator) kind() byte { return SnapKindIncremental }

func (e *covEstimator) absorb(y *mat.Dense, skip []bool) { e.pending.add(y, skip) }

func (e *covEstimator) settle() error {
	return e.pending.fold(func(rows *mat.Dense) error {
		e.tr.UpdateAll(rows)
		return nil
	})
}

// fit solves the eigenproblem on a tracker copy. With lambda = 1 the
// tracked covariance is the population estimate (divide by n); the
// variances are rescaled to the sample convention (divide by n-1) so
// thresholds match the batch fit (fitRank) on the same bins.
func (e *covEstimator) fit(Options) func() (*PCA, int, error) {
	tr, rank := e.tr.Snapshot(), e.rank
	return func() (*PCA, int, error) {
		p, err := tr.PCA()
		if err == nil && tr.lambda == 1 && tr.n > 1 {
			mat.ScaleVec(p.Variances, float64(tr.n)/float64(tr.n-1))
		}
		return p, rank, err
	}
}

func (e *covEstimator) reseed(history *mat.Dense, opts Options) (estimator, *PCA, int, error) {
	p, rank, err := fitRank(history, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	tr, err := NewCovTracker(history.Cols(), e.lambda)
	if err != nil {
		return nil, nil, 0, err
	}
	tr.UpdateAll(history)
	return &covEstimator{lambda: e.lambda, tr: tr, rank: rank}, p, rank, nil
}

func (e *covEstimator) encode(sw *SnapshotWriter) {
	sw.F64(e.lambda)
	sw.Int(e.tr.n)
	sw.Floats(e.tr.mean)
	sw.Matrix(e.tr.cov)
	sw.Int(e.rank)
}

// decode requires the snapshot's forgetting factor to match the
// receiver's — a tracker restored under a different lambda would silently
// diverge — and its mean and covariance to be finite.
func (e *covEstimator) decode(sr *SnapshotReader, links int) (estimator, error) {
	if lambda := sr.F64(); sr.Err() == nil && lambda != e.lambda {
		return nil, SnapshotMismatchf("snapshot forgetting factor %v, detector uses %v", lambda, e.lambda)
	}
	n := sr.NonNegInt()
	mean := sr.Floats()
	cov := sr.Matrix()
	rank := sr.NonNegInt()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if len(mean) != links {
		return nil, snapshotFormatf("tracker mean has %d entries, want %d", len(mean), links)
	}
	if cov == nil || cov.Rows() != links || cov.Cols() != links {
		return nil, snapshotFormatf("tracker covariance is not %dx%d", links, links)
	}
	if rank < 1 || rank >= links {
		return nil, snapshotFormatf("retained rank %d out of [1, %d]", rank, links-1)
	}
	if !mat.AllFinite(mean) || !mat.AllFinite(cov.RawData()) {
		return nil, snapshotFormatf("tracker mean or covariance has a non-finite value")
	}
	tr := &CovTracker{
		dim: links, lambda: e.lambda, n: n, mean: mean, cov: cov,
		delta: make([]float64, links), delta2: make([]float64, links),
	}
	return &covEstimator{lambda: e.lambda, tr: tr, rank: rank}, nil
}
