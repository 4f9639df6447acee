package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// addSubspaceView registers a windowed subspace detector seeded on
// history with the monitor's Window, RefitEvery and Options — the view
// the root package's AddView builds by default.
func addSubspaceView(m *Monitor, name string, history, routing *mat.Dense) error {
	cfg := m.Config()
	window := cfg.Window
	if window <= 0 {
		window = history.Rows()
	}
	det, err := seeded(core.NewOnlineDetector(routing, core.OnlineConfig{
		Window:     window,
		RefitEvery: cfg.RefitEvery,
		Options:    cfg.Options,
	}))(history)
	if err != nil {
		return err
	}
	return m.AddDetectorView(name, det)
}

// viewData generates a simulated view: a seeded history block and a
// continuation stream with an optional spike injected at streamBin of
// the stream (flow src->dst 1->7).
func viewData(t *testing.T, seed int64, historyBins, streamBins, spikeBin int) (*topology.Topology, *mat.Dense, *mat.Dense, int) {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = historyBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	flow := topo.FlowID(1, 7)
	if spikeBin >= 0 {
		x.Set(historyBins+spikeBin, flow, x.At(historyBins+spikeBin, flow)+9e7)
	}
	y := traffic.LinkLoads(topo, x)
	links := topo.NumLinks()
	history := mat.Zeros(historyBins, links)
	for b := 0; b < historyBins; b++ {
		history.SetRow(b, y.RowView(b))
	}
	stream := mat.Zeros(streamBins, links)
	for b := 0; b < streamBins; b++ {
		stream.SetRow(b, y.RowView(historyBins+b))
	}
	return topo, history, stream, flow
}

func TestMonitorEndToEnd(t *testing.T) {
	topo, historyA, streamA, flow := viewData(t, 80, 1008, 288, 100)
	_, historyB, streamB, _ := viewData(t, 81, 1008, 288, -1)

	m := NewMonitor(Config{Workers: 4, BatchSize: 48})
	defer m.Close()
	if err := addSubspaceView(m, "backbone-a", historyA, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	if err := addSubspaceView(m, "backbone-b", historyB, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("backbone-a", streamA); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("backbone-b", streamB); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if errs := m.Errs(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	alarms := m.TakeAlarms()
	spiked := false
	for _, a := range alarms {
		if a.View == "backbone-a" && a.Seq == 100 {
			spiked = true
			if a.Flow != flow {
				t.Fatalf("spike identified flow %d want %d", a.Flow, flow)
			}
			if a.Bytes < 4e7 {
				t.Fatalf("spike quantified at %v bytes", a.Bytes)
			}
		}
	}
	if !spiked {
		t.Fatalf("injected spike not alarmed; %d alarms: %+v", len(alarms), alarms)
	}
	if len(alarms) > 20 {
		t.Fatalf("too many false alarms: %d", len(alarms))
	}
	statsA, err := m.ViewStats("backbone-a")
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Processed != 288 {
		t.Fatalf("view a processed %d bins want 288", statsA.Processed)
	}
	if statsA.Backend != "subspace" {
		t.Fatalf("default backend = %q", statsA.Backend)
	}
}

func TestMonitorConcurrentIngest(t *testing.T) {
	// Race hammer (run under -race in CI): several producers feeding
	// several views through the shared pool, with refits enabled.
	topo, history, stream, _ := viewData(t, 82, 600, 240, -1)
	m := NewMonitor(Config{Workers: 4, BatchSize: 16, RefitEvery: 60})
	views := []string{"v0", "v1", "v2"}
	for _, v := range views {
		if err := addSubspaceView(m, v, history, topo.RoutingMatrix()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, v := range views {
		for part := 0; part < 2; part++ {
			wg.Add(1)
			go func(v string, part int) {
				defer wg.Done()
				half := stream.Rows() / 2
				sub := mat.Zeros(half, stream.Cols())
				for b := 0; b < half; b++ {
					sub.SetRow(b, stream.RowView(part*half+b))
				}
				if err := m.Ingest(v, sub); err != nil {
					t.Error(err)
				}
			}(v, part)
		}
	}
	wg.Wait()
	m.Flush()
	if errs := m.Errs(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	for _, v := range views {
		stats, err := m.ViewStats(v)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Processed != 240 {
			t.Fatalf("view %s processed %d want 240", v, stats.Processed)
		}
	}
	m.Close()
}

func TestMonitorOnAlarmCallback(t *testing.T) {
	topo, history, stream, _ := viewData(t, 83, 1008, 144, 50)
	var mu sync.Mutex
	var got []Alarm
	m := NewMonitor(Config{
		Workers:   2,
		BatchSize: 36,
		OnAlarm: func(a Alarm) {
			mu.Lock()
			got = append(got, a)
			mu.Unlock()
		},
	})
	defer m.Close()
	if err := addSubspaceView(m, "v", history, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("v", stream); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("callback saw no alarms")
	}
	if taken := m.TakeAlarms(); len(taken) != 0 {
		t.Fatalf("internal buffer used despite callback: %d", len(taken))
	}
}

func TestMonitorSynchronousProcessBatch(t *testing.T) {
	topo, history, stream, _ := viewData(t, 84, 1008, 144, 50)
	m := NewMonitor(Config{Workers: 2})
	defer m.Close()
	if err := addSubspaceView(m, "v", history, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	alarms, err := m.ProcessBatch("v", stream)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alarms {
		if a.Seq == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("synchronous batch missed the spike; alarms: %+v", alarms)
	}
}

func TestMonitorMixedIngestAndProcessBatch(t *testing.T) {
	// Ingest (queued, worker-processed) racing synchronous ProcessBatch
	// on the same view: the per-shard processing lock must keep the
	// backend's one-caller-at-a-time contract intact. Run under -race.
	topo, history, stream, _ := viewData(t, 87, 600, 240, -1)
	m := NewMonitor(Config{Workers: 4, BatchSize: 16})
	defer m.Close()
	if err := addSubspaceView(m, "v", history, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	half := stream.Rows() / 2
	cols := stream.Cols()
	first := mat.NewDense(half, cols, stream.RawData()[:half*cols])
	second := mat.NewDense(half, cols, stream.RawData()[half*cols:])
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := m.Ingest("v", first); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := m.ProcessBatch("v", second); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	m.Flush()
	if errs := m.Errs(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	stats, err := m.ViewStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != 240 {
		t.Fatalf("processed %d want 240", stats.Processed)
	}
}

func TestMonitorFinalBatchRefitFailureReachesErrs(t *testing.T) {
	// Drive a view's window degenerate with a batch of identical rows so
	// the background refit triggered by the final batch fails; nothing
	// is processed afterwards, so only Errs' harvest can surface it.
	const bins, links = 40, 6
	history := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			history.Set(i, j, 100+10*float64((i*7+j*3)%13))
		}
	}
	means := history.ColMeans()
	constant := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		constant.SetRow(i, means)
	}
	m := NewMonitor(Config{Workers: 1, BatchSize: bins, Window: bins, RefitEvery: bins})
	if err := addSubspaceView(m, "v", history, mat.Identity(links)); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("v", constant); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if errs := m.Errs(); len(errs) != 1 {
		t.Fatalf("final-batch refit failure not harvested: %v", errs)
	}
	// Harvesting clears it; a second call reports nothing new.
	if errs := m.Errs(); len(errs) != 1 {
		t.Fatalf("harvested error not retained exactly once: %v", errs)
	}
	m.Close()
}

func TestIngestStreamJoinsFlushAndMeasurementErrors(t *testing.T) {
	// A mis-sized measurement arriving after buffered bins whose flush
	// also fails must surface BOTH errors: the old code returned only the
	// flush error, hiding the root cause (the bad measurement).
	topo, history, stream, _ := viewData(t, 87, 300, 12, -1)
	m := NewMonitor(Config{Workers: 1, BatchSize: 8})
	if err := addSubspaceView(m, "v", history, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	ch := make(chan netmeas.LinkMeasurement) // unbuffered: sends rendezvous with IngestStream
	errc := make(chan error, 1)
	go func() { errc <- m.IngestStream("v", ch) }()
	// Three valid bins buffer below BatchSize, so no flush happens yet.
	for b := 0; b < 3; b++ {
		ch <- netmeas.LinkMeasurement{Bin: b, Loads: stream.Row(b)}
	}
	// Close the monitor so the flush forced by the bad measurement fails.
	m.Close()
	ch <- netmeas.LinkMeasurement{Bin: 3, Loads: []float64{1, 2, 3}}
	close(ch)
	err := <-errc
	if err == nil {
		t.Fatal("IngestStream returned nil after a mis-sized measurement and a failed flush")
	}
	msg := err.Error()
	if !strings.Contains(msg, "links") {
		t.Fatalf("root-cause measurement error dropped: %v", err)
	}
	if !strings.Contains(msg, "closed") {
		t.Fatalf("flush failure dropped: %v", err)
	}
}

func TestMonitorErrors(t *testing.T) {
	topo, history, stream, _ := viewData(t, 85, 300, 12, -1)
	m := NewMonitor(Config{})
	if err := addSubspaceView(m, "v", history, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	if err := addSubspaceView(m, "v", history, topo.RoutingMatrix()); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate view not rejected: %v", err)
	}
	if err := m.Ingest("nope", stream); err == nil {
		t.Fatal("unknown view accepted")
	}
	if err := m.Ingest("v", mat.Zeros(4, 3)); err == nil {
		t.Fatal("mis-sized batch accepted")
	}
	m.Close()
	if err := m.Ingest("v", stream); err == nil {
		t.Fatal("ingest after Close accepted")
	}
	if err := addSubspaceView(m, "w", history, topo.RoutingMatrix()); err == nil {
		t.Fatal("view added after Close")
	}
	m.Close() // idempotent
}

// TestMonitorErrsAndTakeAlarmsDrainRace is the drain-path interleaving
// table: two live IngestStream producers — one whose view's background
// refits deterministically fail, one raising an alarm per bin — race a
// mid-burst Close under every overload policy. Required afterwards, in
// any interleaving (run under -race in CI): Close and both producers
// return (no deadlock), producer errors are only the documented kinds,
// the failed refit is harvestable through Errs exactly once and tagged
// with its view, per-view alarms stay in FIFO order through TakeAlarms,
// a second TakeAlarms is empty, and the queue counters reconcile with
// the bins each backend actually processed.
func TestMonitorErrsAndTakeAlarmsDrainRace(t *testing.T) {
	for _, policy := range []OverloadPolicy{OverloadBlock, OverloadDropOldest, OverloadError} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			const links = 6
			const flakyBins = 40
			history := mat.Zeros(flakyBins, links)
			for i := 0; i < flakyBins; i++ {
				for j := 0; j < links; j++ {
					history.Set(i, j, 100+10*float64((i*7+j*3)%13))
				}
			}
			// A constant continuation drives the flaky view's window
			// degenerate: the refit launched after RefitEvery bins fails
			// and parks its error for the drain path to surface.
			means := history.ColMeans()
			flaky, err := seeded(core.NewOnlineDetector(mat.Identity(links), core.OnlineConfig{Window: flakyBins, RefitEvery: flakyBins}))(history)
			if err != nil {
				t.Fatal(err)
			}
			busy := &loadDetector{links: links, alarmAll: true}
			m := NewMonitor(Config{
				Workers:    2,
				BatchSize:  8,
				MaxPending: 24,
				Overload:   policy,
			})
			if err := m.AddDetectorView("flaky", flaky); err != nil {
				t.Fatal(err)
			}
			if err := m.AddDetectorView("busy", busy); err != nil {
				t.Fatal(err)
			}

			// Producers: channel feeders + IngestStream consumers. The
			// feeders abort on stop so an early IngestStream error (from
			// Close or OverloadError) cannot leave them wedged on a send.
			const streamBins = 400
			feed := func(ch chan<- netmeas.LinkMeasurement, row func(i int) []float64, stop <-chan struct{}) {
				defer close(ch)
				for i := 0; i < streamBins; i++ {
					select {
					case ch <- netmeas.LinkMeasurement{Bin: i, Loads: row(i)}:
					case <-stop:
						return
					}
				}
			}
			ingErrs := make([]error, 2)
			stops := make([]chan struct{}, 2)
			var wg sync.WaitGroup
			for vi, view := range []string{"flaky", "busy"} {
				vi, view := vi, view
				ch := make(chan netmeas.LinkMeasurement)
				stops[vi] = make(chan struct{})
				row := func(i int) []float64 {
					if view == "flaky" {
						return append([]float64(nil), means...)
					}
					r := make([]float64, links)
					r[0] = float64(i) // marker: alarm SPE identifies the bin
					return r
				}
				go feed(ch, row, stops[vi])
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer close(stops[vi])
					ingErrs[vi] = m.IngestStream(view, ch)
				}()
			}

			// Let the flaky view cross its refit trigger (so the deferred
			// error exists) before pulling the plug — unless its producer
			// already finished or died (possible under OverloadError),
			// in which case Close races whatever state there is.
			deadline := time.Now().Add(10 * time.Second)
		waitTrigger:
			for {
				st, err := m.ViewStats("flaky")
				if err != nil {
					t.Fatal(err)
				}
				if st.Processed > flakyBins {
					break
				}
				select {
				case <-stops[0]:
					break waitTrigger
				default:
				}
				if time.Now().After(deadline) {
					t.Fatalf("flaky view stuck at %d processed bins", st.Processed)
				}
				time.Sleep(100 * time.Microsecond)
			}
			closed := make(chan struct{})
			go func() {
				m.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(30 * time.Second):
				t.Fatal("Close deadlocked against live IngestStreams")
			}
			wg.Wait()

			for vi, err := range ingErrs {
				if err == nil {
					continue
				}
				if !strings.Contains(err.Error(), "closed") && !errors.Is(err, ErrOverloaded) {
					t.Fatalf("producer %d returned unexpected error kind: %v", vi, err)
				}
			}
			errs := m.Errs()
			refitErrs := 0
			for _, err := range errs {
				if !strings.Contains(err.Error(), `view "flaky"`) {
					t.Fatalf("error not tagged with its view: %v", err)
				}
				if strings.Contains(err.Error(), "refit") {
					refitErrs++
				}
			}
			flakyStats, err := m.ViewStats("flaky")
			if err != nil {
				t.Fatal(err)
			}
			if flakyStats.Processed > flakyBins && refitErrs == 0 {
				t.Fatalf("refit trigger crossed (%d bins) but its failure was lost in the drain: %v", flakyStats.Processed, errs)
			}
			if again := m.Errs(); len(again) != len(errs) {
				t.Fatalf("Errs unstable across calls: %d then %d", len(errs), len(again))
			}

			lastSeq := map[string]int{}
			lastMarker := -1.0
			for _, a := range m.TakeAlarms() {
				if prev, ok := lastSeq[a.View]; ok && a.Seq <= prev {
					t.Fatalf("view %q alarms out of order: seq %d after %d", a.View, a.Seq, prev)
				}
				lastSeq[a.View] = a.Seq
				if a.View == "busy" {
					if a.SPE <= lastMarker {
						t.Fatalf("busy view FIFO broken: marker %v after %v", a.SPE, lastMarker)
					}
					lastMarker = a.SPE
				}
			}
			if got := m.TakeAlarms(); len(got) != 0 {
				t.Fatalf("second TakeAlarms returned %d alarms", len(got))
			}
			for _, view := range []string{"flaky", "busy"} {
				qs, err := m.QueueStats(view)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.ViewStats(view)
				if err != nil {
					t.Fatal(err)
				}
				if qs.QueuedBins != 0 {
					t.Fatalf("view %q queue not drained by Close: %+v", view, qs)
				}
				if got := qs.EnqueuedBins - qs.DroppedBins; got != int64(st.Processed) {
					t.Fatalf("view %q counters do not reconcile: %+v vs processed %d", view, qs, st.Processed)
				}
				if policy != OverloadDropOldest && qs.DroppedBins != 0 {
					t.Fatalf("view %q dropped bins under %v: %+v", view, policy, qs)
				}
			}
		})
	}
}

// TestMonitorAlarmsArriveAfterClose pins the shutdown half of the alarm
// contract: batches still queued when Close is called are drained, and
// the alarms they raise — including ones raised while Close is already
// in progress — remain retrievable through TakeAlarms afterwards.
// Nothing queued before Close may be dropped.
func TestMonitorAlarmsArriveAfterClose(t *testing.T) {
	topo, history, stream, flow := viewData(t, 88, 1008, 96, 40)
	m := NewMonitor(Config{Workers: 2, BatchSize: 16})
	if err := addSubspaceView(m, "v", history, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("v", stream); err != nil {
		t.Fatal(err)
	}
	// No Flush: Close itself must wait out the queued batches.
	m.Close()
	spiked := false
	for _, a := range m.TakeAlarms() {
		if a.Seq == 40 {
			spiked = true
			if a.Flow != flow {
				t.Fatalf("post-Close alarm identified flow %d want %d", a.Flow, flow)
			}
		}
	}
	if !spiked {
		t.Fatal("alarm raised during Close drain was dropped")
	}
	if got := m.TakeAlarms(); len(got) != 0 {
		t.Fatalf("second TakeAlarms not empty: %d", len(got))
	}
}
