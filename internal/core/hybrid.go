package core

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"netanomaly/internal/mat"
)

// HybridConfig configures NewHybridDetector.
type HybridConfig struct {
	// Window is the capacity of the hybrid's clean-bin window, which
	// feeds the identification stage's background re-seeds; 0 uses the
	// seed history length.
	Window int
	// RefitEvery re-seeds the identification stage from the clean-bin
	// window in the background after this many processed bins; 0
	// disables the re-seed (the triage stage's own refit cadence is
	// configured on the triage detector itself).
	RefitEvery int
}

// HybridStats is a HybridDetector's two-stage breakdown: the per-stage
// detector snapshots plus the escalation counters that price the
// triage→identification trade.
type HybridStats struct {
	// Triage and Identify are the stage detectors' own Stats.
	Triage, Identify ViewStats
	// TriageAlarms counts bins the triage stage flagged.
	TriageAlarms int
	// Escalated counts bins handed to the identification stage — the
	// subspace work actually paid for. Every triage alarm escalates, so
	// it equals TriageAlarms.
	Escalated int
	// Identified counts escalated bins the identification stage
	// confirmed; their alarms carry Flow attribution.
	Identified int
}

// HybridDetector pairs a cheap always-on triage stage with a subspace
// identification stage behind one ViewDetector: every bin runs through
// the triage detector (typically a per-link forecast backend whose
// steady-state cost is a smoothing recursion), and only escalated bins
// reach the identification detector (typically the windowed subspace
// backend), whose DiagnoseBatch supplies the OD-flow attribution
// temporal methods cannot. On an anomaly-free stream the hybrid's cost
// is the triage recursion; when the triage stage alarms, the escalated
// bins pay one batched subspace pass and the resulting alarms carry
// Flow and Bytes — the paper's Section 6.2/7.3 trade (temporal methods
// localize in time+link, the subspace method identifies the flow)
// collapsed into one operating point.
//
// Alarm semantics: a bin alarms exactly when the triage stage flags it,
// and every flagged bin escalates. When the identification stage
// confirms an escalated bin, the alarm carries its Diagnosis — subspace
// SPE, threshold, identified Flow and estimated Bytes; otherwise the
// alarm carries the triage stage's Diagnosis (worst link's residual,
// Flow = -1). One alarm per bin, in sequence order.
//
// Model freshness: the identification stage never sees clean bins, so
// its sliding window would go stale. The hybrid keeps its own window of
// recent clean (un-alarmed) bins and re-seeds the identification stage
// from it every RefitEvery bins under its own RefitGate. The triage
// stage schedules its own refits exactly as it would standalone.
//
// Concurrency follows the ViewDetector contract: one ProcessBatch
// caller at a time, with Seed, Refit, WaitRefits, TakeRefitError and
// Stats callable concurrently. The hybrid must be the stages' only
// caller — handing either stage to another Monitor view breaks the
// one-ProcessBatch-caller guarantee it relies on.
type HybridDetector struct {
	triage   ViewDetector
	identify ViewDetector
	links    int

	mu        sync.Mutex // guards the fields below
	window    *mat.RowRing
	processed int
	gate      *RefitGate
	// counts holds the escalation counters HybridStats surfaces (its
	// Triage and Identify fields are filled on demand, not kept here).
	counts HybridStats
}

var _ ViewDetector = (*HybridDetector)(nil)

// NewHybridDetector composes two already-seeded stage detectors into a
// hybrid view. history (bins x links) prefills the clean-bin window the
// identification stage re-seeds from — normally the same history both
// stages were seeded on. The stages must agree on the measurement
// width, and the hybrid must become their only caller.
func NewHybridDetector(triage, identify ViewDetector, history *mat.Dense, cfg HybridConfig) (*HybridDetector, error) {
	tLinks, iLinks := triage.Stats().Links, identify.Stats().Links
	if tLinks != iLinks {
		return nil, fmt.Errorf("core: hybrid stages disagree on width: triage %d links, identify %d", tLinks, iLinks)
	}
	bins, cols := history.Dims()
	if cols != tLinks {
		return nil, fmt.Errorf("core: hybrid history has %d links, stages expect %d", cols, tLinks)
	}
	if bins == 0 {
		return nil, fmt.Errorf("core: hybrid history is empty")
	}
	capacity := cfg.Window
	if capacity <= 0 {
		capacity = bins
	}
	d := &HybridDetector{
		triage:   triage,
		identify: identify,
		links:    tLinks,
		window:   tailRing(history, capacity),
	}
	d.gate = NewRefitGate(&d.mu, cfg.RefitEvery)
	return d, nil
}

// SetRefitHook installs a function that runs inside every background
// re-seed goroutine before fitting begins; tests use it to hold a
// re-seed open. Call before streaming starts.
func (d *HybridDetector) SetRefitHook(h func()) { d.gate.SetHook(h) }

// ProcessBatch runs the batch through the triage stage, escalates the
// bins it alarms, identifies them with the subspace stage, and returns
// one alarm per alarmed bin in sequence order. Clean bins feed the
// window the identification stage re-seeds from; a deferred failure
// from either stage's background fit (or the hybrid's own re-seed)
// reports alongside the batch's detections.
func (d *HybridDetector) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	bins, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("core: batch has %d links, detector expects %d", cols, d.links)
	}

	// Stage 1: triage, every bin. The stages keep their own sequence
	// counts (they may have streamed before the hybrid wrapped them),
	// so stage alarms are rebased to batch rows via the counter read
	// just before the call — safe because the hybrid is the only
	// ProcessBatch caller.
	tBase := d.triage.Stats().Processed
	tAlarms, err := d.triage.ProcessBatch(y)
	triaged := make(map[int]Diagnosis, len(tAlarms))
	for _, a := range tAlarms {
		row := a.Seq - tBase
		if row < 0 || row >= bins {
			return nil, fmt.Errorf("core: hybrid triage alarm seq %d outside batch of %d bins at base %d", a.Seq, bins, tBase)
		}
		triaged[row] = a.Diagnosis
	}

	// The sequence base and alarm count are the only state the batch
	// touches before identification.
	d.mu.Lock()
	base := d.processed
	d.processed += bins
	d.counts.TriageAlarms += len(tAlarms)
	d.mu.Unlock()

	// Stage 2: identification of every triage-alarmed bin — one batched
	// subspace pass over just those rows.
	var escRows []int
	for b := 0; b < bins; b++ {
		if _, alarmed := triaged[b]; alarmed {
			escRows = append(escRows, b)
		}
	}

	identified := make(map[int]Diagnosis)
	if len(escRows) > 0 {
		esc := mat.Zeros(len(escRows), d.links)
		for i, b := range escRows {
			esc.SetRow(i, y.RowView(b))
		}
		iBase := d.identify.Stats().Processed
		iAlarms, ierr := d.identify.ProcessBatch(esc)
		if ierr != nil {
			err = errors.Join(err, ierr)
		}
		for _, a := range iAlarms {
			row := a.Seq - iBase
			if row < 0 || row >= len(escRows) {
				return nil, fmt.Errorf("core: hybrid identify alarm seq %d outside %d escalated bins at base %d", a.Seq, len(escRows), iBase)
			}
			identified[escRows[row]] = a.Diagnosis
		}
	}

	// Emit one alarm per alarmed bin; the identification stage's
	// diagnosis wins when it confirmed the bin (it carries Flow).
	var alarms []Alarm
	for b := 0; b < bins; b++ {
		diag, ok := identified[b]
		if !ok {
			if diag, ok = triaged[b]; !ok {
				continue
			}
		}
		diag.Bin = base + b
		alarms = append(alarms, Alarm{Seq: base + b, Diagnosis: diag})
	}

	// Window and re-seed bookkeeping: bins neither stage flagged are
	// clean and feed the identification stage's next model.
	d.mu.Lock()
	d.counts.Identified += len(identified)
	for b := 0; b < bins; b++ {
		if _, tOK := triaged[b]; tOK {
			continue
		}
		if _, iOK := identified[b]; iOK {
			continue
		}
		d.window.Push(y.RowView(b))
	}
	if derr := d.gate.TakeErrorLocked(); derr != nil {
		err = errors.Join(err, derr)
	}
	var reseed Refit
	if d.gate.DueLocked(bins, d.window.Len() > 0) {
		reseed = d.reseedLocked(nil)
	}
	d.mu.Unlock()

	if reseed != nil {
		d.gate.Go(reseed)
	}
	return alarms, err
}

// reseedLocked captures the clean-bin window and returns the fit that
// re-seeds the identification stage from it (the previous model stays in
// force on failure — Seed commits nothing on error), joined with an
// earlier stage error the caller may already hold. The window is never
// empty: construction and Seed reject empty histories and prefill the
// ring, and rows are only ever added.
func (d *HybridDetector) reseedLocked(earlier error) Refit {
	snap := d.window.Matrix()
	return func() (func() bool, error) {
		err := d.identify.Seed(snap)
		if err != nil {
			err = fmt.Errorf("core: hybrid identify re-seed: %w", err)
		}
		return nil, errors.Join(earlier, err)
	}
}

// Refit synchronously refits both stages: the triage stage from its own
// retained state, the identification stage re-seeded from the hybrid's
// clean-bin window. A failed fit leaves that stage's previous model in
// force.
func (d *HybridDetector) Refit() error {
	terr := d.triage.Refit()
	return d.gate.Run(func() Refit { return d.reseedLocked(terr) })
}

// Seed re-seeds both stages from the history block and refills the
// clean-bin window with it. The processed-bin counter and stage sequence
// numbers keep running.
func (d *HybridDetector) Seed(history *mat.Dense) error {
	bins, cols := history.Dims()
	if cols != d.links {
		return fmt.Errorf("core: seed history has %d links, detector expects %d", cols, d.links)
	}
	if bins == 0 {
		return fmt.Errorf("core: seed history is empty")
	}
	return d.gate.Run(func() Refit {
		capacity := d.window.Cap()
		return func() (func() bool, error) {
			if err := errors.Join(d.triage.Seed(history), d.identify.Seed(history)); err != nil {
				return nil, err
			}
			window := tailRing(history, capacity)
			return func() bool {
				d.window = window
				d.gate.RestartLocked()
				return true
			}, nil
		}
	})
}

// WaitRefits blocks until no fit is in flight anywhere in the hybrid:
// its own background re-seed, then each stage's internal fits.
func (d *HybridDetector) WaitRefits() {
	d.gate.Wait()
	d.triage.WaitRefits()
	d.identify.WaitRefits()
}

// TakeRefitError returns and clears the deferred errors from the last
// failed background fits — the hybrid's own re-seed and both stages' —
// joined, if any.
func (d *HybridDetector) TakeRefitError() error {
	return errors.Join(d.gate.TakeError(), d.triage.TakeRefitError(), d.identify.TakeRefitError())
}

// Stats reports the detector's current state. Rank is the
// identification stage's normal-subspace rank; Refits counts hybrid-
// level fits (explicit Refit/Seed and background re-seeds of the
// identification stage — the triage stage's own refit cadence is
// visible through HybridStats).
func (d *HybridDetector) Stats() ViewStats {
	d.mu.Lock()
	processed, refits := d.processed, d.gate.RefitsLocked()
	d.mu.Unlock()
	return ViewStats{
		Backend:   "hybrid",
		Links:     d.links,
		Processed: processed,
		Rank:      d.identify.Stats().Rank,
		Refits:    refits,
	}
}

// Snapshot serializes the clean-bin window, the escalation counters,
// and then both stage detectors' own envelopes nested inside the
// payload — everything ProcessBatch's sequence rebasing relies on
// (the stage processed counters travel inside the stage envelopes).
func (d *HybridDetector) Snapshot(w io.Writer) error {
	return d.gate.Quiesced(func() error {
		return EncodeSnapshot(w, SnapKindHybrid, func(sw *SnapshotWriter) {
			sw.Int(d.links)
			sw.RowRing(d.window)
			sw.Int(d.processed)
			d.gate.EncodeLocked(sw)
			for _, n := range d.counts.counters() {
				sw.Int(*n)
			}
			sw.Nested(d.triage.Snapshot)
			sw.Nested(d.identify.Snapshot)
		})
	})
}

// counters lists the escalation counters in snapshot order.
func (hs *HybridStats) counters() []*int {
	return []*int{&hs.TriageAlarms, &hs.Identified}
}

// Restore replaces the hybrid's window, counters, and both stage
// detectors' state with a snapshot from an identically composed hybrid
// (same stage kinds, same link count; the re-seed cadence stays the
// receiver's). Stage state is restored through the stages' own
// Restore, so a snapshot whose nested stage kinds do not match the
// receiver's stages is rejected; if a stage restore fails the hybrid
// should be discarded, as the stages may no longer agree.
func (d *HybridDetector) Restore(r io.Reader) error {
	return d.gate.Quiesced(func() error {
		return DecodeSnapshot(r, SnapKindHybrid, func(sr *SnapshotReader) error {
			links := sr.Int()
			if sr.Err() == nil && links != d.links {
				return SnapshotMismatchf("snapshot has %d links, detector expects %d", links, d.links)
			}
			window := sr.RowRing(d.links)
			processed := sr.NonNegInt()
			cadence := d.gate.DecodeLocked(sr)
			var counts HybridStats
			for _, n := range counts.counters() {
				*n = sr.NonNegInt()
			}
			if err := sr.Err(); err != nil {
				return err
			}
			sr.Nested(d.triage.Restore)
			sr.Nested(d.identify.Restore)
			if err := sr.Err(); err != nil {
				return err
			}
			d.window, d.processed, d.counts = window, processed, counts
			cadence()
			return nil
		})
	})
}

// HybridStats reports the two-stage breakdown: per-stage detector
// snapshots and the escalation counters.
func (d *HybridDetector) HybridStats() HybridStats {
	d.mu.Lock()
	hs := d.counts
	d.mu.Unlock()
	hs.Escalated = hs.TriageAlarms
	hs.Triage = d.triage.Stats()
	hs.Identify = d.identify.Stats()
	return hs
}
