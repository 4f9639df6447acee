package netmeas

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
)

// DefaultMetricNames are the three per-link series of Section 7.2: byte
// counts, active IP-flow counts, and mean packet size.
var DefaultMetricNames = []string{"bytes", "flows", "pktsize"}

// MultiMetricConfig configures NewMultiMetricDetector.
type MultiMetricConfig struct {
	// Metrics names the stacked measurement blocks, in column order;
	// its length fixes how many links-wide blocks each batch must carry.
	// Default: DefaultMetricNames (bytes, flows, pktsize).
	Metrics []string
	// Online configures each per-metric subspace detector (window,
	// refit cadence, diagnosis options).
	Online core.OnlineConfig
}

// MultiMetricDetector fans one subspace detector per traffic metric over
// shared routing (Section 7.2: "the subspace method applies to any link
// metric for which the L2 norm is meaningful") and merges their per-bin
// verdicts into a single alarm stream: a bin alarms when any metric
// flags it. The paper's point is that scans and small-flow DDoS move
// flow counts without moving bytes, so demanding agreement across
// metrics would hide exactly those. Measurement batches carry the
// metric blocks stacked column-wise — bins x (len(Metrics)*links), the
// layout StackMatrices and LinkMetricSet.Stacked produce.
//
// The winning alarm's diagnosis comes from the lowest-index metric that
// flagged the bin, so with the conventional ordering a byte-visible
// anomaly reports bytes while a scan that only moves flow counts
// reports the flow-count residual (Bytes is then in that metric's
// units). Each sub-detector inherits OnlineDetector's concurrency
// story: lock-free detection, background refits, atomic model swaps.
type MultiMetricDetector struct {
	names    []string
	linksPer int
	dets     []*core.OnlineDetector
	// scratch backs the per-metric block handed to each sub-detector,
	// reused across batches (grown on demand) so the streaming hot path
	// does not allocate a fresh bins x links matrix per metric per
	// batch. Safe because the ViewDetector contract serializes
	// ProcessBatch/Seed callers and each sub-detector consumes its
	// block fully (copying what it keeps) before the next is built.
	scratch []float64
}

var _ core.ViewDetector = (*MultiMetricDetector)(nil)

// NewMultiMetricDetector returns one unseeded subspace detector per
// metric over shared routing (links x flows): Seed fits every metric's
// model from a stacked history (bins x len(Metrics)*links), and Restore
// installs checkpointed ones. Until one of them succeeds the detector is
// valid only as their receiver; Stats reports its shape.
func NewMultiMetricDetector(routing *mat.Dense, cfg MultiMetricConfig) (*MultiMetricDetector, error) {
	names := cfg.Metrics
	if len(names) == 0 {
		names = DefaultMetricNames
	}
	d := &MultiMetricDetector{
		names:    append([]string(nil), names...),
		linksPer: routing.Rows(),
		dets:     make([]*core.OnlineDetector, len(names)),
	}
	for j := range names {
		sub, err := core.NewOnlineDetector(routing, cfg.Online)
		if err != nil {
			return nil, fmt.Errorf("netmeas: metric %q: %w", names[j], err)
		}
		d.dets[j] = sub
	}
	return d, nil
}

// metricBlock copies metric j's column block out of a stacked matrix
// into the reusable scratch buffer; the returned matrix is only valid
// until the next metricBlock call.
func (d *MultiMetricDetector) metricBlock(y *mat.Dense, bins, j int) *mat.Dense {
	need := bins * d.linksPer
	if cap(d.scratch) < need {
		d.scratch = make([]float64, need)
	}
	out := mat.NewDense(bins, d.linksPer, d.scratch[:need])
	data := out.RawData()
	raw := y.RawData()
	stride := len(d.names) * d.linksPer
	for b := 0; b < bins; b++ {
		copy(data[b*d.linksPer:(b+1)*d.linksPer], raw[b*stride+j*d.linksPer:b*stride+(j+1)*d.linksPer])
	}
	return out
}

// Metrics returns the configured metric names in column order.
func (d *MultiMetricDetector) Metrics() []string { return append([]string(nil), d.names...) }

// ProcessBatch splits the stacked batch (bins x len(Metrics)*links) into
// its metric blocks, runs each through its subspace detector, and emits
// one alarm per bin that any metric flagged. Deferred
// refit errors from any metric are reported alongside the detections.
func (d *MultiMetricDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	bins, cols := y.Dims()
	if cols != len(d.names)*d.linksPer {
		return nil, fmt.Errorf("netmeas: stacked batch has %d columns, want %d metrics x %d links", cols, len(d.names), d.linksPer)
	}
	winner := make(map[int]core.Alarm)
	var errs []error
	for j, sub := range d.dets {
		alarms, err := sub.ProcessBatch(d.metricBlock(y, bins, j))
		if err != nil {
			errs = append(errs, fmt.Errorf("netmeas: metric %q: %w", d.names[j], err))
		}
		for _, a := range alarms {
			if _, ok := winner[a.Seq]; !ok {
				winner[a.Seq] = a // lowest metric index wins the diagnosis
			}
		}
	}
	var out []core.Alarm
	for _, a := range winner {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, errors.Join(errs...)
}

// Seed seeds every metric's model from the stacked history block.
func (d *MultiMetricDetector) Seed(history *mat.Dense) error {
	bins, cols := history.Dims()
	if cols != len(d.names)*d.linksPer {
		return fmt.Errorf("netmeas: stacked seed has %d columns, want %d metrics x %d links", cols, len(d.names), d.linksPer)
	}
	var errs []error
	for j, sub := range d.dets {
		if err := sub.Seed(d.metricBlock(history, bins, j)); err != nil {
			errs = append(errs, fmt.Errorf("netmeas: metric %q: %w", d.names[j], err))
		}
	}
	return errors.Join(errs...)
}

// Refit synchronously rebuilds every metric's model from its window.
func (d *MultiMetricDetector) Refit() error {
	var errs []error
	for j, sub := range d.dets {
		if err := sub.Refit(); err != nil {
			errs = append(errs, fmt.Errorf("netmeas: metric %q: %w", d.names[j], err))
		}
	}
	return errors.Join(errs...)
}

// WaitRefits blocks until no metric has a model fit in flight.
func (d *MultiMetricDetector) WaitRefits() {
	for _, sub := range d.dets {
		sub.WaitRefits()
	}
}

// TakeRefitError returns and clears the deferred refit errors across
// all metrics, if any.
func (d *MultiMetricDetector) TakeRefitError() error {
	var errs []error
	for j, sub := range d.dets {
		if err := sub.TakeRefitError(); err != nil {
			errs = append(errs, fmt.Errorf("netmeas: metric %q: %w", d.names[j], err))
		}
	}
	return errors.Join(errs...)
}

// Snapshot serializes every metric's subspace detector state as nested
// envelopes inside one multiflow envelope. Each sub-detector quiesces
// its own refits, so the composite never serializes a half-swapped
// model.
func (d *MultiMetricDetector) Snapshot(w io.Writer) error {
	return core.EncodeSnapshot(w, core.SnapKindMultiflow, func(sw *core.SnapshotWriter) {
		sw.Int(len(d.names))
		sw.Int(d.linksPer)
		for _, sub := range d.dets {
			sw.Nested(sub.Snapshot)
		}
	})
}

// Restore replaces every metric's detector state from a Snapshot taken
// on an equivalently configured detector (same metric count and links
// per metric), seeded or not. Restoration is per-metric in order; a failure part-way
// leaves earlier metrics restored, so callers should discard the
// detector on error.
func (d *MultiMetricDetector) Restore(r io.Reader) error {
	return core.DecodeSnapshot(r, core.SnapKindMultiflow, func(sr *core.SnapshotReader) error {
		if n := sr.Int(); sr.Err() == nil && n != len(d.names) {
			return core.SnapshotMismatchf("snapshot has %d metrics, detector expects %d", n, len(d.names))
		}
		if lp := sr.Int(); sr.Err() == nil && lp != d.linksPer {
			return core.SnapshotMismatchf("snapshot has %d links per metric, detector expects %d", lp, d.linksPer)
		}
		if err := sr.Err(); err != nil {
			return err
		}
		for j, sub := range d.dets {
			sr.Nested(sub.Restore)
			if err := sr.Err(); err != nil {
				return fmt.Errorf("netmeas: metric %q: %w", d.names[j], err)
			}
		}
		return nil
	})
}

// Stats reports the detector's state. Links is the stacked width;
// Rank and Refits are the first (conventionally bytes) metric's.
func (d *MultiMetricDetector) Stats() core.ViewStats {
	first := d.dets[0].Stats()
	return core.ViewStats{
		Backend:   "multiflow",
		Links:     len(d.names) * d.linksPer,
		Processed: first.Processed,
		Rank:      first.Rank,
		Refits:    first.Refits,
	}
}

// StackMatrices column-stacks matrices with identical row counts into
// one bins x (sum of columns) matrix — the layout MultiMetricDetector
// consumes.
func StackMatrices(ms ...*mat.Dense) (*mat.Dense, error) {
	if len(ms) == 0 {
		return nil, errors.New("netmeas: nothing to stack")
	}
	bins := ms[0].Rows()
	total := 0
	for _, m := range ms {
		if m.Rows() != bins {
			return nil, fmt.Errorf("netmeas: stacking %d-row matrix with %d-row matrix", m.Rows(), bins)
		}
		total += m.Cols()
	}
	out := mat.Zeros(bins, total)
	data := out.RawData()
	off := 0
	for _, m := range ms {
		raw := m.RawData()
		cols := m.Cols()
		for b := 0; b < bins; b++ {
			copy(data[b*total+off:b*total+off+cols], raw[b*cols:(b+1)*cols])
		}
		off += cols
	}
	return out, nil
}

// Stacked returns the metric set's three series column-stacked in the
// conventional order (bytes, flows, pktsize).
func (s *LinkMetricSet) Stacked() (*mat.Dense, error) {
	return StackMatrices(s.Bytes, s.FlowCounts, s.MeanPacketSize)
}
