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
	// feeds the identification stage's re-seeds; 0 uses the seed history
	// length.
	Window int
	// RefitEvery re-seeds the identification stage from the clean-bin
	// window after this many processed bins, in Settle; 0 disables the
	// re-seed (the triage stage's own refit cadence is
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
// stage schedules its own refits exactly as it would standalone. Settle
// runs what is due in a fixed order: the triage stage's refit, the
// identification stage's, then the re-seed.
//
// Concurrency follows the ViewDetector contract: one ProcessBatch and
// Settle caller at a time, with Seed, Refit and Stats callable
// concurrently. The hybrid must be the stages' only
// caller — handing either stage to another Monitor view breaks the
// one-ProcessBatch-caller guarantee it relies on.
type HybridDetector struct {
	triage   ViewDetector
	identify ViewDetector
	links    int
	// esc backs the batch of escalated rows, reused batch to batch: no
	// stage keeps a batch past its ProcessBatch. Only ProcessBatch,
	// which has one caller at a time, touches it.
	esc []float64

	mu sync.Mutex // guards the fields below
	// window is nil until the first Seed or Restore; capacity is the
	// configured HybridConfig.Window until then.
	window    *mat.RowRing
	capacity  int
	processed int
	gate      *RefitGate
	// counts holds the escalation counters HybridStats surfaces (its
	// Triage and Identify fields are filled on demand, not kept here).
	counts HybridStats
}

var _ ViewDetector = (*HybridDetector)(nil)

// NewHybridDetector composes two stage detectors into a hybrid view,
// unseeded: Seed seeds both stages and prefills the clean-bin window the
// identification stage re-seeds from, and Restore installs a
// checkpointed hybrid. The stages must agree on the measurement width,
// and the hybrid must become their only caller.
func NewHybridDetector(triage, identify ViewDetector, cfg HybridConfig) (*HybridDetector, error) {
	tLinks, iLinks := triage.Stats().Links, identify.Stats().Links
	if tLinks != iLinks {
		return nil, fmt.Errorf("core: hybrid stages disagree on width: triage %d links, identify %d", tLinks, iLinks)
	}
	d := &HybridDetector{
		triage:   triage,
		identify: identify,
		links:    tLinks,
		capacity: cfg.Window,
	}
	d.gate = NewRefitGate(&d.mu, cfg.RefitEvery)
	return d, nil
}

// ProcessBatch runs the batch through the triage stage, escalates the
// bins it alarms, identifies them with the subspace stage, and returns
// one alarm per alarmed bin in sequence order. Clean bins feed the
// window the identification stage re-seeds from. A batch that finds a
// fit still due settles first, before it is tested, and reports the
// fit's failure alongside its own detections. A clean bin with a NaN or
// ±Inf load stays out of the window and is reported as ErrNonFinite
// (by the triage stage, or else by the hybrid). A stage whose alarms
// do not name distinct bins of its batch in increasing order fails the
// batch.
func (d *HybridDetector) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	bins, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("core: batch has %d links, detector expects %d", cols, d.links)
	}

	// Stage 1: triage, every bin. The stages keep their own sequence
	// counts (they may have streamed before the hybrid wrapped them),
	// so stage alarms are rebased to batch rows via the counter read
	// just before the call — safe because the hybrid is the only
	// ProcessBatch caller. The triage alarms are the escalation list and
	// become the hybrid's alarms: rows[i] is alarms[i]'s batch row.
	serr := d.Settle()
	tBase := d.triage.Stats().Processed
	alarms, err := d.triage.ProcessBatch(y)
	// A triage stage that withholds non-finite bins names the first one
	// itself; the hybrid names it only when the stage did not.
	reported := errors.Is(err, ErrNonFinite)
	err = errors.Join(serr, err)
	rows := make([]int, len(alarms))
	prev := -1
	for i, a := range alarms {
		row, rerr := stageRow("triage", a.Seq, tBase, bins, prev)
		if rerr != nil {
			return nil, rerr
		}
		rows[i], prev = row, row
	}

	// The sequence base and alarm count are the only state the batch
	// touches before identification.
	d.mu.Lock()
	base := d.processed
	d.processed += bins
	d.counts.TriageAlarms += len(alarms)
	d.mu.Unlock()

	// Stage 2: identification of every triage-alarmed bin — one batched
	// subspace pass over just those rows. A confirmed bin's diagnosis
	// replaces the triage stage's: it carries Flow.
	identified := 0
	if len(rows) > 0 {
		size := len(rows) * d.links
		if cap(d.esc) < size {
			d.esc = make([]float64, size)
		}
		esc := mat.NewDense(len(rows), d.links, d.esc[:size])
		for i, b := range rows {
			copy(esc.RowView(i), y.RowView(b))
		}
		iBase := d.identify.Stats().Processed
		iAlarms, ierr := d.identify.ProcessBatch(esc)
		if ierr != nil {
			err = errors.Join(err, ierr)
		}
		prev := -1
		for _, a := range iAlarms {
			i, rerr := stageRow("identify", a.Seq, iBase, len(rows), prev)
			if rerr != nil {
				return nil, rerr
			}
			alarms[i].Diagnosis, prev = a.Diagnosis, i
		}
		identified = len(iAlarms)
	}
	for i, b := range rows {
		alarms[i].Seq = base + b
		alarms[i].Bin = base + b
	}

	// Window and re-seed bookkeeping: the bins the triage stage passed
	// are clean and feed the identification stage's next model — all but
	// those with a non-finite load, which no model may see.
	d.mu.Lock()
	d.counts.Identified += identified
	bad := -1
	next := 0
	for b := 0; b < bins; b++ {
		if next < len(rows) && rows[next] == b {
			next++
			continue
		}
		if row := y.RowView(b); mat.AllFinite(row) {
			d.window.Push(row)
		} else if bad < 0 {
			bad = b
		}
	}
	d.gate.DueLocked(bins, d.window.Len() > 0)
	d.mu.Unlock()

	if bad >= 0 && !reported {
		err = errors.Join(nonFinite(base+bad), err)
	}
	return alarms, err
}

// stageRow rebases a stage alarm's sequence number to its row of the
// n-row batch the stage was handed at sequence base, and checks that it
// follows prev, the row of the stage's previous alarm in the batch (-1
// for the first): stage alarms name distinct rows in increasing order,
// so the hybrid pairs them with their bins in one walk.
func stageRow(stage string, seq, base, n, prev int) (int, error) {
	row := seq - base
	if row < 0 || row >= n {
		return 0, fmt.Errorf("core: hybrid %s alarm seq %d outside batch of %d bins at base %d", stage, seq, n, base)
	}
	if row <= prev {
		return 0, fmt.Errorf("core: hybrid %s alarm seq %d does not follow seq %d: stage alarms must name distinct bins in order", stage, seq, base+prev)
	}
	return row, nil
}

// reseedLocked captures the clean-bin window and returns the fit that
// re-seeds the identification stage from it (the previous model stays in
// force on failure — Seed commits nothing on error). The window is never
// empty: Seed rejects empty histories and prefills the ring, and rows
// are only ever added.
func (d *HybridDetector) reseedLocked() Refit {
	snap := d.window.Matrix()
	return func() (func() bool, error) {
		if err := d.identify.Seed(snap); err != nil {
			return nil, fmt.Errorf("core: hybrid identify re-seed: %w", err)
		}
		return nil, nil
	}
}

// Refit synchronously refits both stages: the triage stage from its own
// retained state, the identification stage re-seeded from the hybrid's
// clean-bin window. A failed fit leaves that stage's previous model in
// force.
func (d *HybridDetector) Refit() error {
	return errors.Join(d.triage.Refit(), d.gate.Run(d.reseedLocked))
}

// Seed seeds both stages from the history block and refills the
// clean-bin window with it; the first Seed fixes the window's capacity
// (the configured Window, or the history's length). The processed-bin
// counter and stage sequence numbers keep running, and only a re-seed
// counts in Refits.
func (d *HybridDetector) Seed(history *mat.Dense) error {
	bins, cols := history.Dims()
	if cols != d.links {
		return fmt.Errorf("core: seed history has %d links, detector expects %d", cols, d.links)
	}
	if bins == 0 {
		return fmt.Errorf("core: seed history is empty")
	}
	return d.gate.Run(func() Refit {
		capacity := d.capacity
		if d.window != nil {
			capacity = d.window.Cap()
		} else if capacity <= 0 {
			capacity = bins
		}
		return func() (func() bool, error) {
			if err := errors.Join(d.triage.Seed(history), d.identify.Seed(history)); err != nil {
				return nil, err
			}
			window := tailRing(history, capacity)
			return func() bool {
				reseeded := d.window != nil
				d.window = window
				d.gate.RestartLocked()
				return reseeded
			}, nil
		}
	})
}

// Settle settles the triage stage, then the identification stage, then
// runs the hybrid's own re-seed if one is due, and returns their
// failures joined.
func (d *HybridDetector) Settle() error {
	return errors.Join(d.triage.Settle(), d.identify.Settle(), d.gate.Settle(d.reseedLocked))
}

// Stats reports the detector's current state. Rank is the
// identification stage's normal-subspace rank; Refits counts hybrid-
// level fits (explicit Refit/Seed and automatic re-seeds of the
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
// (the stage processed counters travel inside the stage envelopes). It
// settles first; a failed settle is returned and nothing is written.
func (d *HybridDetector) Snapshot(w io.Writer) error {
	if err := d.Settle(); err != nil {
		return err
	}
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
// receiver's), seeded or not. Stage state is restored through the
// stages' own Restore, so a snapshot whose nested stage kinds do not
// match the receiver's stages is rejected; if a stage restore fails the
// hybrid should be discarded, as the stages may no longer agree.
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
