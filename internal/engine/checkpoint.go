package engine

// Checkpoint/restore: a Monitor's portable state is the per-view
// detector snapshots plus the queue accounting that keeps alarm Seq
// rebasing truthful across a restart. A view checkpoint is one NAMS
// view envelope (kind SnapKindView) wrapping the view's name, link
// count, queue counters, and the detector's own self-framed snapshot; a
// whole-monitor checkpoint (kind SnapKindMonitor) is the view envelopes
// nested in deterministic name order plus three reserved fields.
// Restores follow the core taxonomy: corruption wraps
// core.ErrSnapshotFormat, truncation wraps io.ErrUnexpectedEOF, and a
// snapshot offered to a mismatched view (wrong link count) wraps
// core.ErrSnapshotMismatch.

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"netanomaly/internal/core"
)

// quiesceLocked blocks until the shard has no queued work and no worker
// owns it, with s.qmu held on entry and exit. Workers broadcast on
// s.space whenever they release ownership with an empty queue, so the
// wait ends at the first idle instant. A view under sustained ingest
// never goes idle — pause the producer (or Close the monitor) before
// checkpointing a hot view.
func (s *shard) quiesceLocked() {
	for s.owned || s.queuedBins > 0 {
		s.space.Wait()
	}
}

// checkpointShard serializes one quiesced shard as a view envelope. It
// holds the queue lock for the duration (new ingests wait) and the
// processing lock (synchronous ProcessBatch callers wait), so the
// detector state and the queue counters are captured at one consistent
// instant; the detector's own Snapshot additionally waits out any
// in-flight background refit through its refit gate.
func (m *Monitor) checkpointShard(s *shard, w io.Writer) error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.quiesceLocked()
	s.procMu.Lock()
	defer s.procMu.Unlock()
	return core.EncodeSnapshot(w, core.SnapKindView, func(sw *core.SnapshotWriter) {
		sw.String(s.name)
		sw.Int(s.links)
		sw.I64(s.enqueuedBins)
		sw.I64(s.droppedBins)
		sw.I64(s.droppedBatches)
		sw.I64(s.rejectedBins)
		sw.Int(s.queuedHighWater)
		sw.Nested(s.det.Snapshot)
	})
}

// CheckpointView waits for the view to go idle (empty queue, no batch
// in flight), then writes its portable state — detector snapshot plus
// the queue counters that keep post-restore Seq numbering truthful — as
// one view envelope. It works on a closed monitor too: Close drains
// every queue, which is exactly the quiesced state a final checkpoint
// wants.
func (m *Monitor) CheckpointView(view string, w io.Writer) error {
	s, err := m.lookupAny(view)
	if err != nil {
		return err
	}
	return m.checkpointShard(s, w)
}

// RestoreView replaces the view's detector state and queue counters
// with a CheckpointView envelope taken from an equivalently configured
// view (same backend kind and link count — the detector validates its
// own construction parameters). The view quiesces first, so bins
// ingested before the call are processed against the pre-restore state;
// bins ingested after it continue the restored stream, with Seq
// numbering picking up exactly where the checkpointed monitor left off.
func (m *Monitor) RestoreView(view string, r io.Reader) error {
	s, err := m.lookupAny(view)
	if err != nil {
		return err
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.quiesceLocked()
	s.procMu.Lock()
	defer s.procMu.Unlock()
	var enqueued, dropped, droppedBatches, rejected int64
	var highWater int
	err = core.DecodeSnapshot(r, core.SnapKindView, func(sr *core.SnapshotReader) error {
		_ = sr.String() // original view name: informative, migration may rename
		if links := sr.Int(); sr.Err() == nil && links != s.links {
			return core.SnapshotMismatchf("view snapshot has %d links, view %q expects %d", links, s.name, s.links)
		}
		enqueued = sr.I64()
		dropped = sr.I64()
		droppedBatches = sr.I64()
		rejected = sr.I64()
		highWater = sr.NonNegInt()
		if err := sr.Err(); err != nil {
			return err
		}
		sr.Nested(s.det.Restore)
		return sr.Err()
	})
	if err != nil {
		return fmt.Errorf("engine: view %q: %w", view, err)
	}
	s.enqueuedBins = enqueued
	s.delivered.Store(enqueued)
	s.droppedBins = dropped
	s.droppedBatches = droppedBatches
	s.rejectedBins = rejected
	s.queuedHighWater = highWater
	return nil
}

// Checkpoint writes the whole monitor — every view envelope in
// deterministic name order, then three reserved zero fields — as one
// monitor envelope, for a warm restart via
// NewMonitorFromCheckpoint. Views quiesce one at a time; checkpoint a
// live monitor only when its producers are paused, or after Close.
func (m *Monitor) Checkpoint(w io.Writer) error {
	m.mu.Lock()
	names := make([]string, 0, len(m.shards))
	for name := range m.shards {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)
	return core.EncodeSnapshot(w, core.SnapKindMonitor, func(sw *core.SnapshotWriter) {
		sw.Int(len(names))
		for _, name := range names {
			s, err := m.lookupAny(name)
			if err != nil {
				continue // removed mid-iteration: nothing to persist
			}
			sw.Nested(func(w io.Writer) error { return m.checkpointShard(s, w) })
		}
		// Reserved for compatibility: older monitors stored elastic-pool
		// state here (F64, F64, I64). Written as zeros, ignored on read.
		sw.F64(0)
		sw.F64(0)
		sw.I64(0)
	})
}

// DetectorFactory builds the detector one view's checkpoint restores
// into during NewMonitorFromCheckpoint: name and links come from the
// view envelope, kind is the backend name ("subspace", "ewma", ...)
// recovered from the embedded detector snapshot. The returned detector
// need not be seeded, but must be constructed with the same parameters
// the checkpointed one was (link count, lambda, levels, ...); the
// restore then supplies its state and validates those parameters.
type DetectorFactory func(name, kind string, links int) (core.ViewDetector, error)

// NewMonitorFromCheckpoint rebuilds a monitor from a Checkpoint stream:
// each view envelope names its backend kind, the factory constructs a
// compatible detector, and the embedded snapshot restores its state and
// the view's queue counters — so the restarted monitor's alarm stream
// (Seq offsets included) continues bin-for-bin where the checkpointed
// one stopped. The three reserved trailing fields are read and
// discarded, whatever they hold. On any error the partially built
// monitor is closed and the error returned.
func NewMonitorFromCheckpoint(cfg Config, r io.Reader, factory DetectorFactory) (*Monitor, error) {
	m := NewMonitor(cfg)
	err := core.DecodeSnapshot(r, core.SnapKindMonitor, func(sr *core.SnapshotReader) error {
		n := sr.NonNegInt()
		if err := sr.Err(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			sr.Nested(func(r io.Reader) error { return m.restoreViewInto(r, factory) })
			if err := sr.Err(); err != nil {
				return err
			}
		}
		sr.F64()
		sr.F64()
		sr.I64()
		return sr.Err()
	})
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("engine: restore checkpoint: %w", err)
	}
	return m, nil
}

// restoreViewInto consumes one view envelope, constructs the view's
// detector through the factory, restores its state, and registers the
// shard with its checkpointed queue counters.
func (m *Monitor) restoreViewInto(r io.Reader, factory DetectorFactory) error {
	var (
		name                                  string
		links, highWater                      int
		enqueued, dropped, droppedBs, rejects int64
		detKind                               byte
		detBlob                               []byte
	)
	err := core.DecodeSnapshot(r, core.SnapKindView, func(sr *core.SnapshotReader) error {
		name = sr.String()
		links = sr.NonNegInt()
		enqueued = sr.I64()
		dropped = sr.I64()
		droppedBs = sr.I64()
		rejects = sr.I64()
		highWater = sr.NonNegInt()
		if err := sr.Err(); err != nil {
			return err
		}
		sr.Nested(func(r io.Reader) error {
			var err error
			detKind, detBlob, err = core.ReadSnapshotEnvelope(r)
			if err == io.EOF {
				err = fmt.Errorf("core: snapshot header truncated: %w", io.ErrUnexpectedEOF)
			}
			return err
		})
		return sr.Err()
	})
	if err != nil {
		return err
	}
	kindName := core.KindName(detKind)
	if detKind >= core.SnapKindView || kindName == "" {
		return fmt.Errorf("%w: view %q embeds a %q envelope, want a detector state",
			core.ErrSnapshotFormat, name, kindName)
	}
	det, err := factory(name, kindName, links)
	if err != nil {
		return fmt.Errorf("engine: view %q: %w", name, err)
	}
	if err := det.Restore(bytes.NewReader(detBlob)); err != nil {
		return fmt.Errorf("engine: view %q: %w", name, err)
	}
	if err := m.AddDetectorView(name, det); err != nil {
		return err
	}
	s, err := m.lookupAny(name)
	if err != nil {
		return err
	}
	s.qmu.Lock()
	s.enqueuedBins = enqueued
	s.delivered.Store(enqueued)
	s.droppedBins = dropped
	s.droppedBatches = droppedBs
	s.rejectedBins = rejects
	s.queuedHighWater = highWater
	s.qmu.Unlock()
	return nil
}
