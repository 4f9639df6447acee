package wavelet

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
)

// StreamConfig configures NewStreamDetector.
type StreamConfig struct {
	// Levels is the number of wavelet scales (default 3: 2-, 4- and
	// 8-bin features).
	Levels int
	// Confidence is the per-scale detection confidence (default 0.999).
	Confidence float64
	// Window is the number of recent bins retained for refits, rounded
	// down to a multiple of 2^Levels; 0 uses the seed history length.
	// Each scale k must retain at least as many coefficient rows as
	// links, so Window must be at least links * 2^Levels.
	Window int
	// RefitEvery triggers a background refit after this many processed
	// bins; 0 disables automatic refits.
	RefitEvery int
}

// StreamDetector adapts the Section 7.3 multiscale detector to the
// streaming ViewDetector contract: arriving bins accumulate into
// 2^Levels-aligned blocks, each completed block is tested against one
// fitted subspace model per wavelet scale, and alarms report the
// original-time region that misbehaved (Seq is the region's first bin;
// no flow identification — wavelet coefficients mix bins, so Flow is
// always -1 and a subspace or incremental shard on the same view should
// localize). Detection latency is therefore up to 2^Levels bins: a
// spike is only testable once its enclosing block completes.
//
// The fitted per-scale models sit behind an atomic pointer that
// ProcessBatch loads without the mutex; refits of them on a window
// snapshot run under core.RefitGate.
type StreamDetector struct {
	levels     int
	span       int // 1 << levels, the block size in bins
	links      int
	confidence float64

	det atomic.Pointer[MultiscaleDetector]

	mu sync.Mutex // guards the fields below
	// window is nil until the first Seed or Restore; capacity is the
	// configured Window, rounded to whole blocks, until then.
	window    *mat.RowRing
	capacity  int
	pending   []float64 // partial block, pendingN*links of span*links
	pendingN  int
	processed int
	gate      *core.RefitGate
}

var _ core.ViewDetector = (*StreamDetector)(nil)

// NewStreamDetector returns a streaming multiscale detector over links
// links, unseeded: Seed fits the per-scale models on a history of at
// least links * 2^Levels bins, of which only the largest
// 2^Levels-aligned suffix is used, and Restore installs checkpointed
// ones. Until one of them succeeds the detector is valid only as their
// receiver; Stats reports its shape.
func NewStreamDetector(links int, cfg StreamConfig) (*StreamDetector, error) {
	if cfg.Levels <= 0 {
		cfg.Levels = 3
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = 0.999
	}
	span := 1 << cfg.Levels
	window := max(cfg.Window, 0)
	window -= window % span
	if cfg.Window > 0 && window < links*span {
		return nil, fmt.Errorf("wavelet: window %d bins cannot hold %d coefficient rows per scale at %d levels", window, links, cfg.Levels)
	}
	s := &StreamDetector{
		levels:     cfg.Levels,
		span:       span,
		links:      links,
		confidence: cfg.Confidence,
		capacity:   window,
		pending:    make([]float64, span*links),
	}
	s.gate = core.NewRefitGate(&s.mu, cfg.RefitEvery)
	return s, nil
}

// SetRefitHook installs a function that runs inside every background
// refit goroutine before fitting begins; tests use it to hold a refit
// open. Call before streaming starts.
func (s *StreamDetector) SetRefitHook(h func()) { s.gate.SetHook(h) }

// seedFit fits the per-scale models on the aligned suffix of history and
// builds a refit window of the given capacity (0: the suffix's length)
// holding the suffix's most recent bins.
func (s *StreamDetector) seedFit(history *mat.Dense, capacity int) (*MultiscaleDetector, *mat.RowRing, error) {
	bins, links := history.Dims()
	if links != s.links {
		return nil, nil, fmt.Errorf("wavelet: seed history has %d links, detector expects %d", links, s.links)
	}
	aligned := bins - bins%s.span
	if aligned < s.links*s.span {
		return nil, nil, fmt.Errorf("wavelet: seed history %d bins cannot hold %d coefficient rows per scale at %d levels", bins, s.links, s.levels)
	}
	fit := mat.NewDense(aligned, links, history.RawData()[(bins-aligned)*links:])
	md, err := NewMultiscaleDetector(fit, s.levels, s.confidence)
	if err != nil {
		return nil, nil, fmt.Errorf("wavelet: seed: %w", err)
	}
	if capacity == 0 {
		capacity = aligned
	}
	window := mat.NewRowRing(capacity, links)
	for b := aligned - min(aligned, capacity); b < aligned; b++ {
		window.Push(fit.RowView(b))
	}
	return md, window, nil
}

// Seed fits the per-scale models on (the aligned suffix of) history and
// refills the refit window; the first Seed fixes the window's capacity
// (the configured Window, or the aligned suffix's length). The
// processed-bin counter and any partially accumulated block carry over,
// and only a re-seed counts in Refits.
func (s *StreamDetector) Seed(history *mat.Dense) error {
	return s.gate.Run(func() core.Refit {
		capacity := s.capacity
		if s.window != nil {
			capacity = s.window.Cap()
		}
		return func() (func() bool, error) {
			md, window, err := s.seedFit(history, capacity)
			if err != nil {
				return nil, err
			}
			return func() bool {
				reseeded := s.det.Swap(md) != nil
				s.window = window
				s.gate.RestartLocked()
				return reseeded
			}, nil
		}
	})
}

// ProcessBatch accumulates the rows of y (bins x links) into
// 2^Levels-aligned blocks and scans every completed block at all fitted
// scales. Alarms carry the first original-time bin of each anomalous
// region as Seq (deduplicated across scales, keeping the strongest
// exceedance); Flow is always -1. The per-block scan runs outside the
// detector lock — like the other backends, detection never blocks a
// concurrent Stats, Refit or WaitRefits.
func (s *StreamDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	bins, cols := y.Dims()
	if cols != s.links {
		return nil, fmt.Errorf("wavelet: batch has %d links, detector expects %d", cols, s.links)
	}
	det := s.det.Load()

	// Fold rows into the pending block under the lock, copying each
	// completed block out with its start sequence; the expensive
	// wavelet scan happens after release.
	type block struct {
		start int
		rows  *mat.Dense
	}
	s.mu.Lock()
	err := s.gate.TakeErrorLocked()
	base := s.processed
	var blocks []block
	for b := 0; b < bins; b++ {
		copy(s.pending[s.pendingN*s.links:(s.pendingN+1)*s.links], y.RowView(b))
		s.pendingN++
		if s.pendingN < s.span {
			continue
		}
		s.pendingN = 0
		rows := mat.Zeros(s.span, s.links)
		copy(rows.RawData(), s.pending)
		blocks = append(blocks, block{start: base + b + 1 - s.span, rows: rows})
	}
	s.processed += bins
	s.mu.Unlock()

	var alarms []core.Alarm
	var clean []*mat.Dense
	for _, blk := range blocks {
		dets, derr := det.Detect(blk.rows)
		if derr != nil {
			// A block sized to span is always transformable; keep the
			// error visible rather than dropping it.
			if err == nil {
				err = derr
			}
			continue
		}
		if len(dets) == 0 {
			// Clean blocks feed the refit window; anomalous blocks are
			// withheld so they cannot inflate the next model's residual
			// variance (block-level analog of the subspace backend's
			// window exclusion).
			clean = append(clean, blk.rows)
			continue
		}
		// One alarm per region start, strongest exceedance wins.
		best := make(map[int]core.Alarm, len(dets))
		for _, d := range dets {
			seq := blk.start + d.BinStart
			a := core.Alarm{Seq: seq, Diagnosis: core.Diagnosis{
				Bin:       seq,
				SPE:       d.SPE,
				Threshold: d.Threshold,
				Flow:      -1,
			}}
			if prev, ok := best[seq]; !ok || a.SPE/a.Threshold > prev.SPE/prev.Threshold {
				best[seq] = a
			}
		}
		for _, a := range best {
			alarms = append(alarms, a)
		}
	}
	sort.Slice(alarms, func(i, j int) bool { return alarms[i].Seq < alarms[j].Seq })

	s.mu.Lock()
	for _, rows := range clean {
		raw := rows.RawData()
		for r := 0; r < s.span; r++ {
			s.window.Push(raw[r*s.links : (r+1)*s.links])
		}
	}
	// Every bin advances the cadence, but a refit only launches at a block
	// boundary so it always follows fresh window rows.
	var refit core.Refit
	if s.gate.DueLocked(bins, len(blocks) > 0) {
		refit = s.refitLocked()
	}
	s.mu.Unlock()

	if refit != nil {
		s.gate.Go(refit)
	}
	return alarms, err
}

// refitLocked captures the window and returns the refit of the per-scale
// models on it. Callers hold s.mu.
func (s *StreamDetector) refitLocked() core.Refit {
	w := s.window.Matrix()
	return func() (func() bool, error) {
		if w == nil {
			return nil, fmt.Errorf("wavelet: refit window empty")
		}
		md, err := NewMultiscaleDetector(w, s.levels, s.confidence)
		if err != nil {
			return nil, fmt.Errorf("wavelet: refit: %w", err)
		}
		return func() bool { s.det.Store(md); return true }, nil
	}
}

// Refit synchronously refits the per-scale models on the current window
// contents. A failed fit leaves the previous models in force.
func (s *StreamDetector) Refit() error { return s.gate.Run(s.refitLocked) }

// Snapshot serializes the detector's portable state — the refit window,
// the partially accumulated block, the processed-bin counters, and the
// fitted per-scale subspace models — as one multiscale envelope. It
// waits out any in-flight refit so the serialized models are never
// half-swapped.
func (s *StreamDetector) Snapshot(w io.Writer) error {
	return s.gate.Quiesced(func() error {
		return core.EncodeSnapshot(w, core.SnapKindMultiscale, func(sw *core.SnapshotWriter) {
			sw.Int(s.links)
			sw.Int(s.levels)
			sw.F64(s.confidence)
			sw.RowRing(s.window)
			sw.Int(s.pendingN)
			sw.Floats(s.pending[:s.pendingN*s.links])
			sw.Int(s.processed)
			s.gate.EncodeLocked(sw)
			for _, det := range s.det.Load().detectors {
				core.EncodeDetector(sw, det)
			}
		})
	})
}

// Restore replaces the detector's mutable state with a Snapshot taken
// from an equivalently configured detector (same links, levels and
// confidence — construction parameters are validated, not restored),
// seeded or not.
// On any error the receiver is left unchanged.
func (s *StreamDetector) Restore(r io.Reader) error {
	return s.gate.Quiesced(func() error { return core.DecodeSnapshot(r, core.SnapKindMultiscale, s.decode) })
}

// decode is Restore's payload decoder. Callers hold s.mu and the gate.
func (s *StreamDetector) decode(sr *core.SnapshotReader) error {
	if links := sr.Int(); sr.Err() == nil && links != s.links {
		return core.SnapshotMismatchf("snapshot has %d links, detector expects %d", links, s.links)
	}
	if levels := sr.Int(); sr.Err() == nil && levels != s.levels {
		return core.SnapshotMismatchf("snapshot has %d levels, detector expects %d", levels, s.levels)
	}
	if conf := sr.F64(); sr.Err() == nil && conf != s.confidence {
		return core.SnapshotMismatchf("snapshot confidence %v, detector expects %v", conf, s.confidence)
	}
	window := sr.RowRing(s.links)
	pendingN := sr.NonNegInt()
	part := sr.Floats()
	processed := sr.NonNegInt()
	cadence := s.gate.DecodeLocked(sr)
	if err := sr.Err(); err != nil {
		return err
	}
	if pendingN >= s.span {
		return core.SnapshotFormatf("pending block has %d rows, span is %d", pendingN, s.span)
	}
	if len(part) != pendingN*s.links {
		return core.SnapshotFormatf("pending block has %d values, want %d", len(part), pendingN*s.links)
	}
	md := &MultiscaleDetector{levels: s.levels, confidence: s.confidence}
	for k := 0; k < s.levels; k++ {
		det, err := core.DecodeDetector(sr)
		if err != nil {
			return fmt.Errorf("scale %d: %w", k, err)
		}
		if det.Model().NumLinks() != s.links {
			return core.SnapshotMismatchf("scale %d model has %d links, detector expects %d",
				k, det.Model().NumLinks(), s.links)
		}
		md.detectors = append(md.detectors, det)
	}
	s.window, s.pendingN, s.processed = window, pendingN, processed
	copy(s.pending, part)
	cadence()
	s.det.Store(md)
	return nil
}

// WaitRefits blocks until no model fit is in flight.
func (s *StreamDetector) WaitRefits() { s.gate.Wait() }

// TakeRefitError returns and clears the deferred error from the last
// failed background refit, if any.
func (s *StreamDetector) TakeRefitError() error { return s.gate.TakeError() }

// Stats reports the detector's current state. Rank is 0: each scale
// keeps its own normal subspace, so no single rank is meaningful.
func (s *StreamDetector) Stats() core.ViewStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.ViewStats{
		Backend:   "multiscale",
		Links:     s.links,
		Processed: s.processed,
		Refits:    s.gate.RefitsLocked(),
	}
}

// Levels returns the number of fitted wavelet scales.
func (s *StreamDetector) Levels() int { return s.levels }
