package engine

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
	"netanomaly/internal/snaptest"
	"netanomaly/internal/topology"
)

// halves splits a fixture stream into its two 64-bin halves.
func halves(f backendFixture) (*mat.Dense, *mat.Dense) {
	cols := f.stream.Cols()
	half := confStreamBins / 2
	first := mat.NewDense(half, cols, f.stream.RawData()[:half*cols])
	second := mat.NewDense(confStreamBins-half, cols, f.stream.RawData()[half*cols:])
	return first, second
}

// restoreTarget builds the detector a checkpoint of fixture f restores
// into the way netanomaly.Restore builds one: backend.New from the
// fixture's kind and configuration, with no seed.
func restoreTarget(t *testing.T, f backendFixture) core.ViewDetector {
	t.Helper()
	spec := backend.Spec{Kind: f.name, Window: confHistoryBins, Levels: 2}
	det, err := backend.New(spec, topology.Abilene().RoutingMatrix())
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestSnapshotResumeConformance is the conformance battery's
// checkpoint leg, run for all nine backends: processing half the
// stream, snapshotting, restoring into an unseeded detector built as a
// warm start builds it, and processing the rest must be
// indistinguishable — alarms, Seq and Stats — from the uninterrupted
// run. It also pins the canonical encoding: a restored detector
// re-snapshots byte-for-byte.
func TestSnapshotResumeConformance(t *testing.T) {
	const seed = 140
	control := conformanceFixtures(t, seed)
	subject := conformanceFixtures(t, seed)
	for i := range control {
		cf, sf := control[i], subject[i]
		t.Run(cf.name, func(t *testing.T) {
			target := restoreTarget(t, cf)
			first, second := halves(cf)

			wantFirst, err := cf.det.ProcessBatch(first)
			if err != nil {
				t.Fatal(err)
			}
			wantTail, err := cf.det.ProcessBatch(second)
			if err != nil {
				t.Fatal(err)
			}
			want := append(append([]core.Alarm{}, wantFirst...), wantTail...)

			gotFirst, err := sf.det.ProcessBatch(first)
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := sf.det.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if err := target.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := target.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), again.Bytes()) {
				t.Fatalf("restore→snapshot not byte-identical: %d vs %d bytes", snap.Len(), again.Len())
			}

			gotTail, err := target.ProcessBatch(second)
			if err != nil {
				t.Fatal(err)
			}
			got := append(append([]core.Alarm{}, gotFirst...), gotTail...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed alarm stream diverged:\n got %+v\nwant %+v", got, want)
			}
			if gs, ws := target.Stats(), cf.det.Stats(); gs != ws {
				t.Fatalf("resumed stats %+v, uninterrupted %+v", gs, ws)
			}
			spiked := false
			for _, a := range want {
				if a.Seq >= cf.spikeLo && a.Seq <= cf.spikeHi {
					spiked = true
				}
			}
			if !spiked {
				t.Fatal("spike missing from the control run; the equality proved nothing")
			}
		})
	}
}

// migrationIngest pushes one chunk through the view and returns the
// alarms it raised, in order.
func migrationIngest(t *testing.T, m *Monitor, view string, chunk *mat.Dense) []core.Alarm {
	t.Helper()
	if err := m.Ingest(view, chunk); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	var out []core.Alarm
	for _, a := range m.TakeAlarms() {
		out = append(out, a.Alarm)
	}
	return out
}

// TestViewMigration is the tentpole's acceptance test: a view
// checkpointed on one monitor and restored into an equivalently
// configured, unseeded view on another must continue the alarm stream
// bin-for-bin — sequence offsets included — exactly as the monitor
// that was never interrupted. Run for all nine backends, under -race
// in CI.
func TestViewMigration(t *testing.T) {
	const seed = 141
	control := conformanceFixtures(t, seed)
	subject := conformanceFixtures(t, seed)
	for i := range control {
		cf, sf := control[i], subject[i]
		t.Run(cf.name, func(t *testing.T) {
			first, second := halves(cf)
			cfgOne := Config{Workers: 1, BatchSize: 32}

			mc := NewMonitor(cfgOne)
			defer mc.Close()
			if err := mc.AddDetectorView("v", cf.det); err != nil {
				t.Fatal(err)
			}
			want := migrationIngest(t, mc, "v", first)
			want = append(want, migrationIngest(t, mc, "v", second)...)

			ma := NewMonitor(cfgOne)
			if err := ma.AddDetectorView("v", sf.det); err != nil {
				t.Fatal(err)
			}
			got := migrationIngest(t, ma, "v", first)
			var ckpt bytes.Buffer
			if err := ma.CheckpointView("v", &ckpt); err != nil {
				t.Fatal(err)
			}
			ma.Close()

			mb := NewMonitor(cfgOne)
			defer mb.Close()
			if err := mb.AddDetectorView("v", restoreTarget(t, cf)); err != nil {
				t.Fatal(err)
			}
			if err := mb.RestoreView("v", bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			got = append(got, migrationIngest(t, mb, "v", second)...)

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("migrated alarm stream diverged:\n got %+v\nwant %+v", got, want)
			}
			stats, err := mb.ViewStats("v")
			if err != nil {
				t.Fatal(err)
			}
			if stats.Processed != confStreamBins {
				t.Fatalf("migrated view processed %d, want %d", stats.Processed, confStreamBins)
			}
			qs, err := mb.QueueStats("v")
			if err != nil {
				t.Fatal(err)
			}
			if qs.EnqueuedBins != int64(confStreamBins) {
				t.Fatalf("migrated queue counters did not carry over: %+v", qs)
			}
			spiked := false
			for _, a := range want {
				if a.Seq >= cf.spikeLo && a.Seq <= cf.spikeHi {
					spiked = true
				}
			}
			if !spiked {
				t.Fatal("spike missing from the control run; the equality proved nothing")
			}
		})
	}
}

// TestMonitorCheckpointRestore pins the whole-monitor path: Checkpoint
// on a multi-view monitor, NewMonitorFromCheckpoint through a factory,
// then resumed ingest — view names, per-view counters, and post-restore
// alarm Seq (and flow attribution) must all be truthful. The spike sits
// in the second half, so it is detected by the restored monitor.
func TestMonitorCheckpointRestore(t *testing.T) {
	topo, history, stream, flow := viewData(t, 160, 1008, 128, 100)
	routing := topo.RoutingMatrix()
	links := history.Cols()
	cols := stream.Cols()
	first := mat.NewDense(64, cols, stream.RawData()[:64*cols])
	second := mat.NewDense(64, cols, stream.RawData()[64*cols:])

	build := func(kind string) (core.ViewDetector, error) {
		switch kind {
		case "subspace":
			return seeded(core.NewOnlineDetector(routing, core.OnlineConfig{Window: history.Rows()}))(history)
		case "ewma":
			return forecast.NewDetector(history, forecast.Config{Kind: forecast.EWMA})
		default:
			return nil, errors.New("unexpected kind " + kind)
		}
	}
	cfg := Config{Workers: 2, BatchSize: 32}
	ma := NewMonitor(cfg)
	for _, kv := range [][2]string{{"sub", "subspace"}, {"fore", "ewma"}} {
		det, err := build(kv[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := ma.AddDetectorView(kv[0], det); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []string{"sub", "fore"} {
		if err := ma.Ingest(v, first); err != nil {
			t.Fatal(err)
		}
	}
	ma.Flush()
	ma.TakeAlarms()
	wantQS, err := ma.QueueStats("sub")
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := ma.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	ma.Close()

	factory := func(name, kind string, gotLinks int) (core.ViewDetector, error) {
		if gotLinks != links {
			t.Fatalf("factory offered %d links, want %d", gotLinks, links)
		}
		return build(kind)
	}
	mb, err := NewMonitorFromCheckpoint(cfg, bytes.NewReader(ckpt.Bytes()), factory)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if got := mb.Views(); len(got) != 2 {
		t.Fatalf("restored monitor has views %v", got)
	}
	for _, v := range []string{"sub", "fore"} {
		stats, err := mb.ViewStats(v)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Processed != 64 {
			t.Fatalf("restored view %q processed %d, want 64", v, stats.Processed)
		}
	}
	gotQS, err := mb.QueueStats("sub")
	if err != nil {
		t.Fatal(err)
	}
	if gotQS.EnqueuedBins != wantQS.EnqueuedBins || gotQS.DepthHighWater != wantQS.DepthHighWater ||
		gotQS.DroppedBins != wantQS.DroppedBins || gotQS.RejectedBins != wantQS.RejectedBins {
		t.Fatalf("queue counters did not survive the checkpoint: got %+v want %+v", gotQS, wantQS)
	}

	for _, v := range []string{"sub", "fore"} {
		if err := mb.Ingest(v, second); err != nil {
			t.Fatal(err)
		}
	}
	mb.Flush()
	if errs := mb.Errs(); len(errs) != 0 {
		t.Fatalf("restored monitor errors: %v", errs)
	}
	spiked := false
	for _, a := range mb.TakeAlarms() {
		if a.View == "sub" && a.Seq == 100 {
			spiked = true
			if a.Flow != flow {
				t.Fatalf("post-restore spike attributed to flow %d, want %d", a.Flow, flow)
			}
		}
	}
	if !spiked {
		t.Fatal("restored monitor missed the spike, or its Seq offset drifted")
	}

	// A truncated checkpoint must classify as truncation, and a factory
	// failure must surface, closing the partial monitor either way.
	if _, err := NewMonitorFromCheckpoint(cfg, bytes.NewReader(ckpt.Bytes()[:ckpt.Len()/2]), factory); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, core.ErrSnapshotFormat) {
		t.Fatalf("truncated checkpoint: %v", err)
	}
	bad := func(name, kind string, links int) (core.ViewDetector, error) {
		return nil, errors.New("no detector for you")
	}
	if _, err := NewMonitorFromCheckpoint(cfg, bytes.NewReader(ckpt.Bytes()), bad); err == nil {
		t.Fatal("factory failure did not fail the restore")
	}
}

// monitorEnvelope assembles a whole-monitor checkpoint by hand in the
// layout Checkpoint writes: the view envelopes, then the three trailing
// fields that older monitors filled with elastic-pool state.
func monitorEnvelope(t *testing.T, views [][]byte, ewBacklog, ewLatency float64, calmTicks int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := core.EncodeSnapshot(&buf, core.SnapKindMonitor, func(sw *core.SnapshotWriter) {
		sw.Int(len(views))
		for _, v := range views {
			sw.Nested(func(w io.Writer) error {
				_, err := w.Write(v)
				return err
			})
		}
		sw.F64(ewBacklog)
		sw.F64(ewLatency)
		sw.I64(calmTicks)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// alarmsByView drains the monitor's alarm buffer into per-view lists;
// one view's alarms arrive in Seq order.
func alarmsByView(m *Monitor) map[string][]core.Alarm {
	out := make(map[string][]core.Alarm)
	for _, a := range m.TakeAlarms() {
		out[a.View] = append(out[a.View], a.Alarm)
	}
	return out
}

// TestMonitorCheckpointIgnoresAutoscalerState pins the monitor envelope's
// three trailing fields. A checkpoint written by an older monitor with
// an elastic pool carries nonzero values there; it must still restore
// every view with its queue counters and Seq numbering, and the restored
// monitor re-checkpoints with the fields zeroed. A fixed-pool checkpoint
// is exactly its view envelopes plus three zeros.
func TestMonitorCheckpointIgnoresAutoscalerState(t *testing.T) {
	topo, history, stream, _ := viewData(t, 161, 1008, 128, 100)
	routing := topo.RoutingMatrix()
	cols := stream.Cols()
	first := mat.NewDense(64, cols, stream.RawData()[:64*cols])
	second := mat.NewDense(64, cols, stream.RawData()[64*cols:])
	build := func(kind string) (core.ViewDetector, error) {
		switch kind {
		case "subspace":
			return seeded(core.NewOnlineDetector(routing, core.OnlineConfig{Window: history.Rows()}))(history)
		case "ewma":
			return forecast.NewDetector(history, forecast.Config{Kind: forecast.EWMA})
		default:
			return nil, errors.New("unexpected kind " + kind)
		}
	}
	factory := func(name, kind string, links int) (core.ViewDetector, error) { return build(kind) }
	names := [][2]string{{"fore", "ewma"}, {"sub", "subspace"}} // name order, as Checkpoint writes
	cfg := Config{Workers: 2, BatchSize: 32}
	newLoaded := func() *Monitor {
		m := NewMonitor(cfg)
		for _, nk := range names {
			det, err := build(nk[1])
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AddDetectorView(nk[0], det); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	ingestAll := func(m *Monitor, batch *mat.Dense) {
		for _, nk := range names {
			if err := m.Ingest(nk[0], batch); err != nil {
				t.Fatal(err)
			}
		}
		m.Flush()
	}

	// The uninterrupted run both halves are checked against.
	control := newLoaded()
	defer control.Close()
	ingestAll(control, first)
	control.TakeAlarms()
	ingestAll(control, second)
	want := alarmsByView(control)
	if len(want["sub"]) == 0 {
		t.Fatal("control run raised no subspace alarms; the equality below would prove nothing")
	}

	ma := newLoaded()
	ingestAll(ma, first)
	ma.TakeAlarms()
	var views [][]byte
	wantQS := make(map[string]QueueStats)
	for _, nk := range names {
		var buf bytes.Buffer
		if err := ma.CheckpointView(nk[0], &buf); err != nil {
			t.Fatal(err)
		}
		views = append(views, buf.Bytes())
		qs, err := ma.QueueStats(nk[0])
		if err != nil {
			t.Fatal(err)
		}
		wantQS[nk[0]] = qs
	}
	var fixed bytes.Buffer
	if err := ma.Checkpoint(&fixed); err != nil {
		t.Fatal(err)
	}
	ma.Close()
	zeroed := monitorEnvelope(t, views, 0, 0, 0)
	if !bytes.Equal(fixed.Bytes(), zeroed) {
		t.Fatalf("fixed-pool checkpoint (%d bytes) differs from its view envelopes plus three zeros (%d bytes)", fixed.Len(), len(zeroed))
	}

	older := monitorEnvelope(t, views, 3.5, 2.5e6, 4)
	mb, err := NewMonitorFromCheckpoint(cfg, bytes.NewReader(older), factory)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	for _, nk := range names {
		got, err := mb.QueueStats(nk[0])
		if err != nil {
			t.Fatal(err)
		}
		if got != wantQS[nk[0]] {
			t.Fatalf("view %q queue counters %+v, want %+v", nk[0], got, wantQS[nk[0]])
		}
	}
	var again bytes.Buffer
	if err := mb.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), zeroed) {
		t.Fatal("restored monitor's checkpoint is not the same envelope with the trailing fields zeroed")
	}

	ingestAll(mb, second)
	if errs := mb.Errs(); len(errs) != 0 {
		t.Fatalf("restored monitor errors: %v", errs)
	}
	if got := alarmsByView(mb); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored alarm stream diverged:\n got %+v\nwant %+v", got, want)
	}
}

// smallPatternHistory builds a tiny non-degenerate history for the
// rejection and race tests.
func smallPatternHistory(bins, links int) *mat.Dense {
	h := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			h.Set(i, j, 100+10*float64((i*7+j*3)%13))
		}
	}
	return h
}

// TestRestoreViewRejections pins the engine-level mismatch checks: a
// view envelope restored into a view with a different backend kind or
// a different link count must fail with ErrSnapshotMismatch and leave
// the target view's state untouched.
func TestRestoreViewRejections(t *testing.T) {
	mkMonitor := func(det core.ViewDetector) *Monitor {
		m := NewMonitor(Config{Workers: 1, BatchSize: 16})
		if err := m.AddDetectorView("v", det); err != nil {
			t.Fatal(err)
		}
		return m
	}
	history6 := smallPatternHistory(64, 6)
	det6, err := seeded(core.NewOnlineDetector(mat.Identity(6), core.OnlineConfig{Window: 64}))(history6)
	if err != nil {
		t.Fatal(err)
	}
	src := mkMonitor(det6)
	defer src.Close()
	var ckpt bytes.Buffer
	if err := src.CheckpointView("v", &ckpt); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong links", func(t *testing.T) {
		history4 := smallPatternHistory(64, 4)
		det4, err := seeded(core.NewOnlineDetector(mat.Identity(4), core.OnlineConfig{Window: 64}))(history4)
		if err != nil {
			t.Fatal(err)
		}
		m := mkMonitor(det4)
		defer m.Close()
		if err := m.RestoreView("v", bytes.NewReader(ckpt.Bytes())); !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Fatalf("6-link view envelope restored into 4-link view: %v", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		fore, err := forecast.NewDetector(history6, forecast.Config{Kind: forecast.EWMA})
		if err != nil {
			t.Fatal(err)
		}
		m := mkMonitor(fore)
		defer m.Close()
		if err := m.RestoreView("v", bytes.NewReader(ckpt.Bytes())); !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Fatalf("subspace view envelope restored into ewma view: %v", err)
		}
		// The failed restore must not have corrupted the target: it
		// still processes and still checkpoints.
		if _, err := m.QueueStats("v"); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := m.CheckpointView("v", &out); err != nil {
			t.Fatalf("view unusable after rejected restore: %v", err)
		}
	})
}

// rawEnvelope is a stub view whose snapshot is a fixed detector
// envelope, for building checkpoints around envelopes the current
// detectors no longer write.
type rawEnvelope struct {
	loadDetector
	env []byte
}

func (d *rawEnvelope) Snapshot(w io.Writer) error {
	_, err := w.Write(d.env)
	return err
}

// TestRetiredHybridCheckpointRejected restores a monitor checkpoint
// whose view holds a hybrid envelope in the retired layout (kind byte
// 8, see internal/core's TestRetiredHybridEnvelopeRejected). The view
// must route to a hybrid detector and the restore must fail as a
// re-seed ErrSnapshotMismatch, not as a malformed checkpoint.
func TestRetiredHybridCheckpointRejected(t *testing.T) {
	const links = 6
	env, err := os.ReadFile("../core/testdata/hybrid-v1.nams")
	if err != nil {
		t.Fatal(err)
	}
	src := NewMonitor(Config{Workers: 1})
	if err := src.AddDetectorView("h", &rawEnvelope{loadDetector: loadDetector{links: links}, env: env}); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := src.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	src.Close()

	var kinds []string
	history := snaptest.Traffic(snaptest.HistoryBins, links, 0)
	factory := func(name, kind string, links int) (core.ViewDetector, error) {
		kinds = append(kinds, kind)
		return backend.Build(backend.Spec{Kind: kind, Window: 64}, history, mat.Identity(links))
	}
	m, err := NewMonitorFromCheckpoint(Config{Workers: 1}, &ckpt, factory)
	if err == nil {
		m.Close()
		t.Fatal("retired hybrid checkpoint restored")
	}
	if !reflect.DeepEqual(kinds, []string{"hybrid"}) {
		t.Fatalf("factory asked for %v, want one hybrid", kinds)
	}
	if !errors.Is(err, core.ErrSnapshotMismatch) || errors.Is(err, core.ErrSnapshotFormat) || !strings.Contains(err.Error(), "re-seed") {
		t.Fatalf("retired hybrid checkpoint: got %v, want a re-seed ErrSnapshotMismatch", err)
	}
}

// TestCheckpointDuringRefit pins the satellite fix: a checkpoint taken
// while a background refit is in flight must wait the refit out through
// the detector's refit gate — it may neither deadlock nor serialize a
// half-swapped model. Run under -race in CI.
func TestCheckpointDuringRefit(t *testing.T) {
	const bins, links = 40, 6
	history := smallPatternHistory(bins, links)
	det, err := seeded(core.NewOnlineDetector(mat.Identity(links), core.OnlineConfig{Window: bins, RefitEvery: bins}))(history)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	det.SetRefitHook(func() {
		close(started)
		<-release
	})

	m := NewMonitor(Config{Workers: 1, BatchSize: bins})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	// Re-ingesting the history pattern keeps the window non-degenerate,
	// so the triggered refit succeeds while the hook holds it open.
	if err := m.Ingest("v", history); err != nil {
		t.Fatal(err)
	}
	<-started

	var ckpt bytes.Buffer
	snapped := make(chan error, 1)
	go func() { snapped <- m.CheckpointView("v", &ckpt) }()
	select {
	case err := <-snapped:
		t.Fatalf("checkpoint completed while the refit was still swapping (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-snapped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint deadlocked against the background refit")
	}

	// The envelope serialized the post-refit state: restoring it into a
	// fresh same-construction view must succeed and carry the refit.
	fresh, err := seeded(core.NewOnlineDetector(mat.Identity(links), core.OnlineConfig{Window: bins, RefitEvery: bins}))(history)
	if err != nil {
		t.Fatal(err)
	}
	mb := NewMonitor(Config{Workers: 1, BatchSize: bins})
	defer mb.Close()
	if err := mb.AddDetectorView("v", fresh); err != nil {
		t.Fatal(err)
	}
	if err := mb.RestoreView("v", bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	stats, err := mb.ViewStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != bins || stats.Refits != 1 {
		t.Fatalf("restored view stats %+v, want processed %d and 1 refit", stats, bins)
	}
}
