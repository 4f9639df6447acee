package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"netanomaly/internal/mat"
)

// OnlineDetector applies the subspace method as a first-level online
// monitoring tool (Section 7.1): each arriving measurement vector is
// tested against P P^T fitted on recent history, and alarms carry the
// identified OD flow and estimated size so that fine-grained collection
// can be triggered. The projector is stable week to week, so refits are
// occasional (see RefitGate), not per-bin.
//
// It is the one streaming subspace detector. What the "subspace",
// "incremental" and "sketch" backends vary is only which estimate of the
// traffic covariance a refit solves — a sliding window of raw bins, an
// exponentially weighted m x m tracker, a Frequent-Directions sketch —
// and that is an estimator plugged in by the constructor
// (NewOnlineDetector, NewIncrementalDetector, NewSketchDetector).
// Everything else is shared: the width check, sequence numbering,
// withholding alarmed bins from the estimate, the drift-gated model swap,
// Stats, and the snapshot framing.
//
// OnlineDetector is safe for concurrent use: the active Diagnoser sits
// behind an atomic pointer that Process and ProcessBatch load without
// taking the mutex, fits run on an independent copy of the estimate
// outside it, and the fitted model is swapped in atomically.
type OnlineDetector struct {
	// paths is the routing matrix in the sparse form identification
	// reads; the routing never changes, so every model fitted shares it.
	paths *flowPaths
	opts  Options
	links int
	// driftTol gates automatic rebuilds of the covariance estimators
	// (IncrementalConfig.DriftTol); gated records that the backend has
	// such a gate at all, and so a skipped-rebuild count in its snapshots.
	driftTol float64
	gated    bool

	diag atomic.Pointer[Diagnoser]

	mu        sync.Mutex // guards the fields below
	est       estimator
	processed int
	skipped   int
	gate      *RefitGate
}

var _ ViewDetector = (*OnlineDetector)(nil)

// estimator is what a subspace-family backend reduces to: the running
// covariance estimate a refit solves. The detector calls every method
// under its mutex except the function fit returns.
type estimator interface {
	// kind is the backend's snapshot kind byte; KindName(kind()) is the
	// name Stats reports.
	kind() byte
	// absorb takes the rows of y whose skip flag is false into the
	// estimate — once per batch, never per bin. It may defer the costly
	// part of folding them in to settle, but must copy what it keeps: y
	// is the caller's and may be reused as soon as ProcessBatch returns.
	absorb(y *mat.Dense, skip []bool)
	// settle finishes folding whatever absorb deferred, so the estimate
	// is exactly what eager absorption would have built; the detector
	// calls it from Settle (and so before the next absorb), before every
	// fit and before every snapshot. A fold that fails drops the rows it
	// did not reach.
	settle() error
	// fit captures an independent copy of the settled estimate and
	// returns the function that solves it, outside the mutex, into a PCA
	// and the normal-subspace rank to build the model at.
	fit(opts Options) func() (*PCA, int, error)
	// reseed returns a fresh estimator of the receiver's configuration
	// holding only history, with the batch PCA of the rows it kept and
	// the rank the paper's separation procedure resolves on them. The
	// receiver is left untouched.
	reseed(history *mat.Dense, opts Options) (estimator, *PCA, int, error)
	// encode writes the estimate's portable state; decode reads it back
	// into a fresh estimator of the receiver's configuration, rejecting
	// state recorded under a different one as ErrSnapshotMismatch.
	encode(sw *SnapshotWriter)
	decode(sr *SnapshotReader, links int) (estimator, error)
}

// OnlineConfig configures NewOnlineDetector.
type OnlineConfig struct {
	// Window is the number of most recent bins kept for model fitting
	// (the paper fits on one week: 1008 ten-minute bins); 0 keeps the
	// whole first seed history. The first Seed fixes the capacity:
	// Window, or that history's length if it is shorter.
	Window int
	// RefitEvery marks an automatic refit due after this many processed
	// bins, which Settle (or else the next ProcessBatch) runs; 0
	// disables automatic refits (call Refit explicitly).
	RefitEvery int
	// Options configure the underlying diagnoser.
	Options Options
}

// NewOnlineDetector returns the windowed backend ("subspace") for the
// links of routing matrix a, unseeded: Seed fits its first model on a
// history (bins x links, at least as many bins as links) and Restore
// installs a checkpointed one. The model is refitted from a sliding
// window of the most recent Window non-anomalous bins, seeded with the
// tail of history. Seed and refit alike solve the window's centered
// m x m Gram and re-resolve the rank (fitRank): O(t*m^2) to form the
// Gram plus an O(m^3) eigensolve, not a t x m SVD.
//
// Every subspace-family constructor returns an unseeded detector. Until
// Seed or Restore succeeds it is valid only as their receiver; Stats
// reports its shape with rank 0.
func NewOnlineDetector(a *mat.Dense, cfg OnlineConfig) (*OnlineDetector, error) {
	if cfg.Window < 0 {
		return nil, fmt.Errorf("core: online window %d < 0", cfg.Window)
	}
	return newDetector(&windowEstimator{capacity: cfg.Window}, a, cfg.Options, cfg.RefitEvery, false, 0)
}

// newDetector returns an unseeded detector whose estimates proto's
// reseed builds.
func newDetector(proto estimator, a *mat.Dense, opts Options, every int, gated bool, driftTol float64) (*OnlineDetector, error) {
	// A NaN or negative tolerance would fail the gate's > 0 test and
	// silently turn the gate off; an infinite one would never swap.
	if !(0 <= driftTol && driftTol < math.Inf(1)) {
		return nil, fmt.Errorf("core: drift tolerance %v out of [0, +Inf)", driftTol)
	}
	opts.fillDefaults()
	d := &OnlineDetector{paths: newFlowPaths(a), opts: opts, links: a.Rows(), est: proto, driftTol: driftTol, gated: gated}
	d.gate = NewRefitGate(&d.mu, every)
	return d, nil
}

// seedFit builds the estimator and model a (re)seed on history installs.
func (d *OnlineDetector) seedFit(est estimator, history *mat.Dense) (estimator, *Diagnoser, error) {
	if history.Rows() < 2 {
		return nil, nil, ErrTooFewSamples
	}
	next, p, rank, err := est.reseed(history, d.opts)
	if err != nil {
		return nil, nil, err
	}
	diag, err := diagnoserFromPCA(p, rank, d.paths, d.opts.Confidence)
	return next, diag, err
}

// Alarm is an anomaly raised by the online detector.
type Alarm struct {
	// Seq is the running index of the processed measurement.
	Seq int
	Diagnosis
}

// ErrNonFinite classifies a measurement whose SPE is not finite — a NaN
// or ±Inf load, or loads so large their squares overflow. Such a bin
// can be neither judged nor folded into the estimate, where it would
// fail every later solve: it raises no alarm, is withheld from the
// estimate like an alarmed bin, and is reported with an error wrapping
// ErrNonFinite. The forecast detectors (package forecast) report a bin
// the same way when a link's squared forecast residual is not finite,
// and keep it out of their forecasters, thresholds and windows;
// HybridDetector reports an escalated bin whose SPE overflows, and
// withholds a clean bin whose squared norm does. Test with errors.Is.
var ErrNonFinite = errors.New("core: non-finite measurement")

// nonFinite is the error for the first non-finite bin of a call.
func nonFinite(seq int) error {
	return fmt.Errorf("%w: bin %d withheld from the estimate", ErrNonFinite, seq)
}

// Process tests one measurement vector against the active model and
// folds it into the estimate; see ProcessBatch. The returned Alarm
// carries the bin's SPE and threshold whether or not it is anomalous.
func (d *OnlineDetector) Process(y []float64) (Alarm, bool, error) {
	if len(y) != d.links {
		return Alarm{}, false, fmt.Errorf("core: measurement has %d links, detector expects %d", len(y), d.links)
	}
	err := d.Settle()
	diag, anomalous := d.diag.Load().DiagnoseAt(y)
	finite := diag.SPE <= math.MaxFloat64
	seq := d.absorb(mat.NewDense(1, d.links, y), []bool{anomalous || !finite})
	if !finite {
		anomalous = false
		err = errors.Join(nonFinite(seq), err)
	}
	diag.Bin = seq
	return Alarm{Seq: seq, Diagnosis: diag}, anomalous, err
}

// ProcessBatch tests a block of measurements (bins x links) in one
// batched pass (Diagnoser.DiagnoseBatch, lock-free against one consistent
// model) and returns the rows that alarm, numbered in row order. A
// mis-sized batch is rejected and not counted. A bin with a non-finite
// SPE is withheld and reported as ErrNonFinite, naming the first such
// bin; the batch's other bins are tested and folded as usual.
//
// The batch's clean rows reach the estimate after its alarms are out:
// the sketch and incremental estimators put the costly fold off, and a
// refit the cadence marks due waits too, both until Settle. A batch
// that finds them still pending settles them first, before it is
// tested, and reports their failure (a shrink whose Gram overflows, a
// refit that cannot solve) alongside its own detections; a failed
// refit leaves the previous model in force.
func (d *OnlineDetector) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	if cols := y.Cols(); cols != d.links {
		return nil, fmt.Errorf("core: batch has %d links, detector expects %d", cols, d.links)
	}
	err := d.Settle()
	diags, flags := d.diag.Load().DiagnoseBatch(y)
	// One pass picks the alarms and marks the non-finite bins withheld;
	// the alarms are numbered once absorb has assigned the batch's base.
	var alarms []Alarm
	bad := -1
	for b, flagged := range flags {
		switch {
		case !(diags[b].SPE <= math.MaxFloat64):
			flags[b] = true
			if bad < 0 {
				bad = b
			}
		case flagged:
			alarms = append(alarms, Alarm{Seq: b, Diagnosis: diags[b]})
		}
	}
	base := d.absorb(y, flags)
	for i := range alarms {
		alarms[i].Seq += base
		alarms[i].Bin = alarms[i].Seq
	}
	if bad >= 0 {
		err = errors.Join(nonFinite(base+bad), err)
	}
	return alarms, err
}

// absorb numbers a tested batch, hands its rows to the estimate (which
// the caller has settled) and advances the refit cadence. Alarmed rows
// are withheld so they do not inflate the residual variance of the next
// model (the paper's model is fit on normal traffic; one contaminated
// week changed results little, but exclusion is the conservative
// choice).
func (d *OnlineDetector) absorb(y *mat.Dense, alarmed []bool) (base int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	base = d.processed
	d.processed += y.Rows()
	d.est.absorb(y, alarmed)
	d.gate.DueLocked(y.Rows(), true)
	return base
}

// fitLocked settles and captures the estimate and returns the refit that
// solves it; a failed settle is the refit's error. An automatic refit of
// a drift-gated backend keeps the active model when the candidate's
// residual projector is within driftTol (Frobenius) of it — measured
// against the model active when the solve finishes, which an explicit
// Refit or Seed may have replaced since the batch.
func (d *OnlineDetector) fitLocked(automatic bool) Refit {
	name := KindName(d.est.kind())
	var solve func() (*PCA, int, error)
	if err := d.est.settle(); err != nil {
		solve = func() (*PCA, int, error) { return nil, 0, err }
	} else {
		solve = d.est.fit(d.opts)
	}
	return func() (func() bool, error) {
		p, rank, err := solve()
		var cand *Diagnoser
		if err == nil {
			cand, err = diagnoserFromPCA(p, rank, d.paths, d.opts.Confidence)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s refit: %w", name, err)
		}
		if automatic && d.driftTol > 0 {
			active := d.diag.Load().det.model
			if active.Distance(cand.det.model) < d.driftTol {
				return func() bool { d.skipped++; return false }, nil
			}
		}
		return func() bool { d.diag.Store(cand); return true }, nil
	}
}

// Refit synchronously rebuilds the model from the current estimate,
// bypassing the drift gate.
func (d *OnlineDetector) Refit() error {
	return d.gate.Run(func() Refit { return d.fitLocked(false) })
}

// Seed replaces the estimate with one built from history alone and
// refits the model on it with a full batch fit. Estimate and model are
// built off to the side and committed together only when the fit
// succeeds: a history that cannot be fitted leaves both untouched. The
// processed-bin counter keeps running. The first model a detector gets
// is its baseline, not a refit, so only a re-seed counts in Refits.
func (d *OnlineDetector) Seed(history *mat.Dense) error {
	if cols := history.Cols(); cols != d.links {
		return fmt.Errorf("core: seed history has %d links, detector expects %d", cols, d.links)
	}
	return d.gate.Run(func() Refit {
		est := d.est
		return func() (func() bool, error) {
			next, diag, err := d.seedFit(est, history)
			if err != nil {
				return nil, fmt.Errorf("core: %s seed: %w", KindName(est.kind()), err)
			}
			return func() bool {
				d.est = next
				reseeded := d.diag.Swap(diag) != nil
				d.gate.RestartLocked()
				return reseeded
			}, nil
		}
	})
}

// Stats reports the detector's current state under the streaming
// contract. Refits counts swapped-in models; intervals the drift gate
// declined are visible through SkippedRebuilds.
func (d *OnlineDetector) Stats() ViewStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	stats := ViewStats{
		Backend:   KindName(d.est.kind()),
		Links:     d.links,
		Processed: d.processed,
		Refits:    d.gate.RefitsLocked(),
	}
	if diag := d.diag.Load(); diag != nil {
		stats.Rank = diag.det.model.rank
	}
	return stats
}

// Settle folds the rows the last batch left pending into the estimate,
// then runs a refit the cadence marked due, and returns both failures
// joined. Calling it after a batch's alarms are delivered moves that
// work off the next batch's path; a detector nobody settles does it at
// the start of its next ProcessBatch, with the same result.
func (d *OnlineDetector) Settle() error {
	d.mu.Lock()
	err := d.est.settle()
	d.mu.Unlock()
	return errors.Join(err, d.gate.Settle(func() Refit { return d.fitLocked(true) }))
}

// Snapshot settles, then serializes the estimate, the counters and the
// exact active model as one NAMS envelope of the estimator's kind. A
// failed settle is returned and nothing is written.
func (d *OnlineDetector) Snapshot(w io.Writer) error {
	if err := d.Settle(); err != nil {
		return err
	}
	return d.gate.Quiesced(func() error {
		return EncodeSnapshot(w, d.est.kind(), func(sw *SnapshotWriter) {
			sw.Int(d.links)
			d.est.encode(sw)
			sw.Int(d.processed)
			d.gate.EncodeLocked(sw)
			if d.gated {
				sw.Int(d.skipped)
			}
			EncodeDetector(sw, d.diag.Load().det)
		})
	})
}

// Restore replaces the estimate, counters and active model with a
// snapshot from an identically configured detector of the same kind; the
// receiver need not have been seeded. The decoded state is committed
// only after the whole payload validates; a rejected snapshot leaves the
// receiver untouched. The receiver's routing matrix, refit cadence and
// options stay in force.
func (d *OnlineDetector) Restore(r io.Reader) error {
	return d.gate.Quiesced(func() error {
		return DecodeSnapshot(r, d.est.kind(), func(sr *SnapshotReader) error {
			if links := sr.Int(); sr.Err() == nil && links != d.links {
				return SnapshotMismatchf("snapshot has %d links, detector expects %d", links, d.links)
			}
			est, err := d.est.decode(sr, d.links)
			if err != nil {
				return err
			}
			processed := sr.NonNegInt()
			counters := d.gate.DecodeLocked(sr)
			skipped := 0
			if d.gated {
				skipped = sr.NonNegInt()
			}
			if err := sr.Err(); err != nil {
				return err
			}
			diag, err := decodeDiagnoser(sr, d.paths, d.links)
			if err != nil {
				return err
			}
			d.est, d.processed, d.skipped = est, processed, skipped
			counters()
			d.diag.Store(diag)
			return nil
		})
	})
}

// Diagnoser returns the currently active model pipeline. The returned
// value is immutable; a refit swaps in a new one rather than mutating it.
func (d *OnlineDetector) Diagnoser() *Diagnoser { return d.diag.Load() }

// Processed returns the number of measurements seen so far.
func (d *OnlineDetector) Processed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.processed
}

// SkippedRebuilds returns how many automatic refit intervals solved a
// candidate model but left the active one in place because the subspace
// had drifted less than DriftTol.
func (d *OnlineDetector) SkippedRebuilds() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.skipped
}

// windowEstimator is the paper's own estimate: the raw bins themselves,
// the most recent capacity of them, refitted by the batch fit (fitRank)
// that re-resolves the rank every time. Until the first reseed builds
// the ring, capacity is the configured window (0: the seed history's
// length).
type windowEstimator struct {
	capacity int
	ring     *mat.RowRing
}

func (w *windowEstimator) kind() byte { return SnapKindSubspace }

// absorb pushes the clean rows straight into the ring: the copy is the
// whole of the fold, so there is nothing to defer.
func (w *windowEstimator) absorb(y *mat.Dense, skip []bool) {
	for b, s := range skip {
		if !s {
			w.ring.Push(y.RowView(b))
		}
	}
}

func (w *windowEstimator) settle() error { return nil }

// fit copies the window once, now, and the fit centers that copy in
// place.
func (w *windowEstimator) fit(opts Options) func() (*PCA, int, error) {
	rows := w.ring.Matrix()
	return func() (*PCA, int, error) {
		if rows == nil {
			return nil, 0, fmt.Errorf("core: online window empty")
		}
		return fitRank(rows, opts)
	}
}

func (w *windowEstimator) reseed(history *mat.Dense, opts Options) (estimator, *PCA, int, error) {
	capacity := w.capacity
	if w.ring == nil && (capacity == 0 || capacity > history.Rows()) {
		capacity = history.Rows()
	}
	// The window holds the history's last rows, and the fit centers its
	// own copy of them, as a refit does.
	next := &windowEstimator{capacity: capacity, ring: tailRing(history, capacity)}
	p, rank, err := fitRank(next.ring.Matrix(), opts)
	return next, p, rank, err
}

func (w *windowEstimator) encode(sw *SnapshotWriter) { sw.RowRing(w.ring) }

// decode takes the window's capacity from the snapshot and rejects a
// non-finite row, which no bin the detector folds in can carry and which
// would fail every later refit.
func (w *windowEstimator) decode(sr *SnapshotReader, links int) (estimator, error) {
	ring := sr.rowRing(links, true)
	if err := sr.Err(); err != nil {
		return nil, err
	}
	return &windowEstimator{capacity: ring.Cap(), ring: ring}, nil
}

// pendingRows is where the covariance estimators keep the clean rows of
// the last absorbed batch until settle folds them in. It copies them out
// of the caller's batch, which the engine recycles as soon as
// ProcessBatch returns, and its storage is reused batch after batch.
type pendingRows struct {
	data []float64
	cols int
}

// add appends the rows of y whose skip flag is false.
func (p *pendingRows) add(y *mat.Dense, skip []bool) {
	p.cols = y.Cols()
	for b, s := range skip {
		if !s {
			p.data = append(p.data, y.RowView(b)...)
		}
	}
}

// fold hands the pending rows, in arrival order, to f and empties the
// buffer whatever f returns: rows a failing fold did not reach are
// dropped, as an eager fold would have dropped them.
func (p *pendingRows) fold(f func(rows *mat.Dense) error) error {
	if len(p.data) == 0 {
		return nil
	}
	rows := mat.NewDense(len(p.data)/p.cols, p.cols, p.data)
	p.data = p.data[:0]
	return f(rows)
}

// tailRing returns a ring of the given capacity holding the most recent
// rows of a non-empty history.
func tailRing(history *mat.Dense, capacity int) *mat.RowRing {
	bins, cols := history.Dims()
	ring := mat.NewRowRing(capacity, cols)
	from := max(0, bins-capacity)
	copy(ring.Load(bins-from), history.RawData()[from*cols:])
	return ring
}
