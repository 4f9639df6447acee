package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"netanomaly/internal/mat"
)

// HybridStats is a HybridDetector's escalation breakdown: the triage
// stage's own Stats plus the counters that price the
// triage→identification trade. The identification stage's Stats are the
// hybrid's own.
type HybridStats struct {
	// Triage is the triage stage detector's own Stats.
	Triage ViewStats
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

// HybridDetector pairs a cheap always-on triage stage with the view's
// subspace detector behind one ViewDetector: every bin runs through the
// triage detector (typically a per-link forecast backend whose
// steady-state cost is a smoothing recursion), and only escalated bins
// are tested against the subspace detector's model, whose DiagnoseBatch
// supplies the OD-flow attribution temporal methods cannot. On an
// anomaly-free stream the hybrid's cost is the triage recursion; when
// the triage stage alarms, the escalated bins pay one batched subspace
// pass and the resulting alarms carry Flow and Bytes — the paper's
// Section 6.2/7.3 trade (temporal methods localize in time+link, the
// subspace method identifies the flow) collapsed into one operating
// point.
//
// Alarm semantics: a bin alarms exactly when the triage stage flags it,
// and every flagged bin escalates. When the subspace model confirms an
// escalated bin, the alarm carries its Diagnosis — subspace SPE,
// threshold, identified Flow and estimated Bytes; otherwise the alarm
// carries the triage stage's Diagnosis (worst link's residual, Flow =
// -1). One alarm per bin, in sequence order.
//
// Model freshness: every bin reaches the subspace detector's window
// except the escalated ones and those with a non-finite load, so its
// window is a window of recent clean traffic, and the subspace detector
// numbers the bins and refits from that window on its own cadence
// (OnlineConfig.RefitEvery). The triage stage schedules its own refits
// exactly as it would standalone. Settle runs what is due in a fixed
// order: the triage stage's refit, then the subspace detector's.
//
// Concurrency follows the ViewDetector contract: one ProcessBatch and
// Settle caller at a time, with Seed, Refit and Stats callable
// concurrently. The hybrid must be the stages' only caller — handing
// either stage to another Monitor view breaks the one-ProcessBatch-caller
// guarantee it relies on.
type HybridDetector struct {
	triage   ViewDetector
	identify *OnlineDetector
	links    int
	// esc backs the batch of escalated rows, reused batch to batch: no
	// stage keeps a batch past its call. Only ProcessBatch, which has one
	// caller at a time, touches it.
	esc []float64

	mu sync.Mutex // guards counts
	// counts holds the escalation counters HybridStats surfaces (its
	// Triage field is filled on demand, not kept here).
	counts HybridStats
}

var _ ViewDetector = (*HybridDetector)(nil)

// NewHybridDetector composes a triage stage and the view's subspace
// detector into a hybrid view, unseeded: Seed seeds both stages and
// Restore installs a checkpointed hybrid. The stages must agree on the
// measurement width, and the hybrid must become their only caller.
func NewHybridDetector(triage ViewDetector, identify *OnlineDetector) (*HybridDetector, error) {
	tLinks, iLinks := triage.Stats().Links, identify.Stats().Links
	if tLinks != iLinks {
		return nil, fmt.Errorf("core: hybrid stages disagree on width: triage %d links, identify %d", tLinks, iLinks)
	}
	return &HybridDetector{triage: triage, identify: identify, links: tLinks}, nil
}

// ProcessBatch runs the batch through the triage stage, tests the bins
// it alarms against the subspace model, and returns one alarm per
// alarmed bin in sequence order; the subspace detector then takes the
// clean bins into its window and numbers the batch. A batch that finds
// a fit still due settles first, before it is tested, and reports the
// fit's failure alongside its own detections. A bin the subspace model
// cannot judge (an escalated bin whose SPE overflows) or a clean bin
// whose squared norm is not finite (a NaN or ±Inf load, or loads so
// large their squares overflow) stays out of the window and is reported
// as ErrNonFinite — by the triage stage when it withheld the bin too,
// or else by the hybrid.
// A triage stage whose alarms do not name distinct bins of its batch in
// increasing order fails the batch.
func (d *HybridDetector) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	bins, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("core: batch has %d links, detector expects %d", cols, d.links)
	}

	// Stage 1: triage, every bin. The triage stage keeps its own sequence
	// count (it may have streamed before the hybrid wrapped it), so its
	// alarms are rebased to batch rows via the counter read just before
	// the call — safe because the hybrid is the only ProcessBatch caller.
	// The triage alarms are the escalation list and become the hybrid's
	// alarms, numbered by batch row until the batch has its base.
	serr := d.Settle()
	tBase := d.triage.Stats().Processed
	alarms, err := d.triage.ProcessBatch(y)
	// A triage stage that withholds non-finite bins names the first one
	// itself; the hybrid names a non-finite load only when it did not.
	reported := errors.Is(err, ErrNonFinite)
	err = errors.Join(serr, err)
	skip := make([]bool, bins)
	prev := -1
	for i, a := range alarms {
		row := a.Seq - tBase
		if row < 0 || row >= bins {
			return nil, fmt.Errorf("core: hybrid triage alarm seq %d outside batch of %d bins at base %d", a.Seq, bins, tBase)
		}
		if row <= prev {
			return nil, fmt.Errorf("core: hybrid triage alarm seq %d does not follow seq %d: stage alarms must name distinct bins in order", a.Seq, tBase+prev)
		}
		alarms[i].Seq, skip[row], prev = row, true, row
	}

	// Stage 2: identification of every escalated bin — one batched
	// subspace pass over just those rows. A confirmed bin's diagnosis
	// replaces the triage stage's: it carries Flow. Escalated bins and
	// non-finite ones stay out of the subspace window.
	var diags []Diagnosis
	var flags []bool
	if n := len(alarms); n > 0 {
		if cap(d.esc) < n*d.links {
			d.esc = make([]float64, n*d.links)
		}
		esc := mat.NewDense(n, d.links, d.esc[:n*d.links])
		for i, a := range alarms {
			copy(esc.RowView(i), y.RowView(a.Seq))
		}
		diags, flags = d.identify.Diagnoser().DiagnoseBatch(esc)
	}
	// One scan clears the whole batch: no square of loads this small
	// overflows. Only a batch that fails it checks its clean bins one
	// by one.
	small := mat.SumAbs(y.RawData()) <= 0x1p500
	identified, bad, next := 0, -1, 0
	for b := range skip {
		withheld := false
		if skip[b] {
			i := next
			next++
			withheld = !(diags[i].SPE <= math.MaxFloat64)
			if !withheld && flags[i] {
				alarms[i].Diagnosis = diags[i]
				identified++
			}
		} else if !small && !(mat.SqNorm(y.RowView(b)) <= math.MaxFloat64) {
			skip[b], withheld = true, !reported
		}
		if withheld && bad < 0 {
			bad = b
		}
	}
	base := d.identify.absorb(y, skip)
	for i := range alarms {
		alarms[i].Seq += base
		alarms[i].Bin = alarms[i].Seq
	}
	d.mu.Lock()
	d.counts.TriageAlarms += len(alarms)
	d.counts.Identified += identified
	d.mu.Unlock()
	if bad >= 0 {
		err = errors.Join(nonFinite(base+bad), err)
	}
	return alarms, err
}

// Refit synchronously refits both stages from their own retained state:
// the triage stage's, and the subspace detector's window of clean bins.
// A failed fit leaves that stage's previous model in force.
func (d *HybridDetector) Refit() error {
	return errors.Join(d.triage.Refit(), d.identify.Refit())
}

// Seed seeds both stages from the history block; the subspace detector
// refills its window with it. The sequence numbers keep running, and
// only a re-seed counts in Refits.
func (d *HybridDetector) Seed(history *mat.Dense) error {
	return errors.Join(d.triage.Seed(history), d.identify.Seed(history))
}

// Settle settles the triage stage, then the subspace detector, and
// returns their failures joined.
func (d *HybridDetector) Settle() error {
	return errors.Join(d.triage.Settle(), d.identify.Settle())
}

// Stats reports the subspace detector's state under the hybrid's name:
// it numbers every bin, and its Refits count explicit Refits, re-seeds
// and automatic refits of the subspace model — the triage stage's own
// refit cadence is visible through HybridStats.
func (d *HybridDetector) Stats() ViewStats {
	stats := d.identify.Stats()
	stats.Backend = "hybrid"
	return stats
}

// Snapshot serializes the escalation counters and then both stage
// detectors' own envelopes nested inside the payload (the window and
// the bin count travel inside the subspace detector's). It settles
// first; a failed settle is returned and nothing is written.
func (d *HybridDetector) Snapshot(w io.Writer) error {
	if err := d.Settle(); err != nil {
		return err
	}
	d.mu.Lock()
	counts := d.counts
	d.mu.Unlock()
	return EncodeSnapshot(w, SnapKindHybrid, func(sw *SnapshotWriter) {
		sw.Int(d.links)
		for _, n := range counts.counters() {
			sw.Int(*n)
		}
		sw.Nested(d.triage.Snapshot)
		sw.Nested(d.identify.Snapshot)
	})
}

// counters lists the escalation counters in snapshot order.
func (hs *HybridStats) counters() []*int {
	return []*int{&hs.TriageAlarms, &hs.Identified}
}

// Restore replaces the counters and both stage detectors' state with a
// snapshot from an identically composed hybrid (same stage kinds, same
// link count; the refit cadences stay the receiver's), seeded or not.
// Stage state is restored through the stages' own Restore, so a
// snapshot whose nested stage kinds do not match the receiver's stages
// is rejected; if a stage restore fails the hybrid should be discarded,
// as the stages may no longer agree.
func (d *HybridDetector) Restore(r io.Reader) error {
	return DecodeSnapshot(r, SnapKindHybrid, func(sr *SnapshotReader) error {
		if links := sr.Int(); sr.Err() == nil && links != d.links {
			return SnapshotMismatchf("snapshot has %d links, detector expects %d", links, d.links)
		}
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
		d.mu.Lock()
		d.counts = counts
		d.mu.Unlock()
		return nil
	})
}

// HybridStats reports the escalation breakdown: the triage stage's
// Stats and the escalation counters.
func (d *HybridDetector) HybridStats() HybridStats {
	d.mu.Lock()
	hs := d.counts
	d.mu.Unlock()
	hs.Escalated = hs.TriageAlarms
	hs.Triage = d.triage.Stats()
	return hs
}
