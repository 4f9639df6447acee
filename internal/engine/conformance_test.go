package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/timeseries"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
	"netanomaly/internal/wavelet"
)

// seeded returns a function that seeds the detector a constructor just
// returned on history — the construction backend.Build runs — passing a
// constructor error through.
func seeded[D interface{ Seed(*mat.Dense) error }](det D, err error) func(history *mat.Dense) (D, error) {
	return func(history *mat.Dense) (D, error) {
		if err == nil {
			err = det.Seed(history)
		}
		return det, err
	}
}

// backendFixture carries everything the shared conformance battery
// needs for one backend: a seeded detector, its seed history (for
// re-Seed), the continuation stream, and where the injected spike must
// surface. The spike is a 9e7-byte volume anomaly on one OD flow at
// stream offset spikeBin; backends that localize in time report that
// exact sequence number, the multiscale backend reports the start of
// the anomalous region enclosing it.
type backendFixture struct {
	name             string
	det              core.ViewDetector
	history, stream  *mat.Dense
	spikeLo, spikeHi int
}

const (
	confHistoryBins = 1024 // dyadic so the multiscale backend can seed
	confStreamBins  = 128
	confSpikeBin    = 60
)

// conformanceFixtures builds all nine backends over one synthetic
// Abilene trace (shared OD matrix, shared routing): the five subspace
// family members (including the Frequent-Directions sketch), the three
// forecast baselines, and the hybrid triage→identification composition.
func conformanceFixtures(t *testing.T, seed int64) []backendFixture {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = confHistoryBins + confStreamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	od := gen.Generate()
	flow := topo.FlowID(1, 7)
	od.Set(confHistoryBins+confSpikeBin, flow, od.At(confHistoryBins+confSpikeBin, flow)+9e7)
	y := traffic.LinkLoads(topo, od)
	links := topo.NumLinks()
	routing := topo.RoutingMatrix()
	history := mat.NewDense(confHistoryBins, links, y.RawData()[:confHistoryBins*links])
	stream := mat.NewDense(confStreamBins, links, y.RawData()[confHistoryBins*links:])

	ms, err := netmeas.LinkMetrics(topo, od, netmeas.MetricConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := ms.Stacked()
	if err != nil {
		t.Fatal(err)
	}
	cols := stacked.Cols()
	stackedHistory := mat.NewDense(confHistoryBins, cols, stacked.RawData()[:confHistoryBins*cols])
	stackedStream := mat.NewDense(confStreamBins, cols, stacked.RawData()[confHistoryBins*cols:])

	subspace, err := seeded(core.NewOnlineDetector(routing, core.OnlineConfig{Window: confHistoryBins}))(history)
	if err != nil {
		t.Fatal(err)
	}
	incremental, err := seeded(core.NewIncrementalDetector(routing, core.IncrementalConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	multiscale, err := seeded(wavelet.NewStreamDetector(history.Cols(), wavelet.StreamConfig{Levels: 2}))(history)
	if err != nil {
		t.Fatal(err)
	}
	multiflow, err := seeded(netmeas.NewMultiMetricDetector(routing, netmeas.MultiMetricConfig{}))(stackedHistory)
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := seeded(core.NewSketchDetector(routing, core.SketchConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []backendFixture{
		{"subspace", subspace, history, stream, confSpikeBin, confSpikeBin},
		{"incremental", incremental, history, stream, confSpikeBin, confSpikeBin},
		{"sketch", sketch, history, stream, confSpikeBin, confSpikeBin},
		{"multiscale", multiscale, history, stream, confSpikeBin - 3, confSpikeBin},
		{"multiflow", multiflow, stackedHistory, stackedStream, confSpikeBin, confSpikeBin},
	}
	for _, kind := range []forecast.Kind{forecast.EWMA, forecast.HoltWinters, forecast.Fourier} {
		det, err := forecast.NewDetector(history, forecast.Config{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, backendFixture{string(kind), det, history, stream, confSpikeBin, confSpikeBin})
	}
	fixtures = append(fixtures, backendFixture{"hybrid", hybridFixture(t, history, routing), history, stream, confSpikeBin, confSpikeBin})
	return fixtures
}

// hybridFixture composes the 8th backend: an EWMA triage stage over a
// windowed subspace identification stage with immediate escalation.
func hybridFixture(t *testing.T, history, routing *mat.Dense) *core.HybridDetector {
	t.Helper()
	triage, err := forecast.New(history.Cols(), forecast.Config{Kind: forecast.EWMA})
	if err != nil {
		t.Fatal(err)
	}
	identify, err := core.NewOnlineDetector(routing, core.OnlineConfig{Window: history.Rows()})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := seeded(core.NewHybridDetector(triage, identify, core.HybridConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	return hybrid
}

// TestViewDetectorConformance runs every backend through the shared
// streaming contract: width validation, sequence numbering, spike
// detection, explicit refits, deferred-error hygiene, and re-seeding.
func TestViewDetectorConformance(t *testing.T) {
	for _, f := range conformanceFixtures(t, 120) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			stats := f.det.Stats()
			if stats.Backend != f.name {
				t.Fatalf("backend reports %q", stats.Backend)
			}
			if stats.Links != f.history.Cols() {
				t.Fatalf("links %d want %d", stats.Links, f.history.Cols())
			}
			if stats.Processed != 0 || stats.Refits != 0 {
				t.Fatalf("fresh detector stats = %+v", stats)
			}
			if _, err := f.det.ProcessBatch(mat.Zeros(4, f.history.Cols()+1)); err == nil {
				t.Fatal("mis-sized batch accepted")
			}
			if got := f.det.Stats().Processed; got != 0 {
				t.Fatalf("rejected batch advanced the counter to %d", got)
			}

			var alarms []core.Alarm
			cols := f.stream.Cols()
			half := confStreamBins / 2
			for _, span := range [][2]int{{0, half}, {half, confStreamBins}} {
				chunk := mat.NewDense(span[1]-span[0], cols, f.stream.RawData()[span[0]*cols:span[1]*cols])
				got, err := f.det.ProcessBatch(chunk)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range got {
					if a.Seq < span[0] || a.Seq >= span[1] {
						t.Fatalf("alarm seq %d outside batch span %v", a.Seq, span)
					}
					if i > 0 && got[i-1].Seq > a.Seq {
						t.Fatalf("alarm seqs out of order: %d then %d", got[i-1].Seq, a.Seq)
					}
				}
				alarms = append(alarms, got...)
			}
			spiked := false
			for _, a := range alarms {
				if a.Seq >= f.spikeLo && a.Seq <= f.spikeHi {
					spiked = true
				}
			}
			if !spiked {
				t.Fatalf("injected spike not alarmed in [%d,%d]; alarms: %+v", f.spikeLo, f.spikeHi, alarms)
			}
			if len(alarms) > 20 {
				t.Fatalf("too many alarms: %d", len(alarms))
			}
			if got := f.det.Stats().Processed; got != confStreamBins {
				t.Fatalf("processed %d want %d", got, confStreamBins)
			}

			refitsBefore := f.det.Stats().Refits
			if err := f.det.Refit(); err != nil {
				t.Fatal(err)
			}
			if got := f.det.Stats().Refits; got <= refitsBefore {
				t.Fatalf("explicit refit not counted: %d -> %d", refitsBefore, got)
			}
			f.det.WaitRefits()
			if err := f.det.TakeRefitError(); err != nil {
				t.Fatalf("clean run left a deferred error: %v", err)
			}
			if err := f.det.Seed(f.history); err != nil {
				t.Fatal(err)
			}
			if got := f.det.Stats().Processed; got != confStreamBins {
				t.Fatalf("Seed reset the processed counter to %d", got)
			}
		})
	}
}

// TestMonitorMixedBackends runs every backend kind — subspace family
// and forecast baselines alike — as shards of one Monitor over the
// shared pool, each receiving its own copy of the spiked trace, and
// checks every shard localizes the anomaly.
func TestMonitorMixedBackends(t *testing.T) {
	fixtures := conformanceFixtures(t, 121)
	m := NewMonitor(Config{Workers: 4, BatchSize: 32})
	defer m.Close()
	for _, f := range fixtures {
		if err := m.AddDetectorView(f.name, f.det); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range fixtures {
		if err := m.Ingest(f.name, f.stream); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	if errs := m.Errs(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	byView := make(map[string][]core.Alarm)
	for _, a := range m.TakeAlarms() {
		byView[a.View] = append(byView[a.View], a.Alarm)
	}
	for _, f := range fixtures {
		stats, err := m.ViewStats(f.name)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Backend != f.name {
			t.Fatalf("view %q reports backend %q", f.name, stats.Backend)
		}
		if stats.Processed != confStreamBins {
			t.Fatalf("view %q processed %d", f.name, stats.Processed)
		}
		spiked := false
		for _, a := range byView[f.name] {
			if a.Seq >= f.spikeLo && a.Seq <= f.spikeHi {
				spiked = true
			}
		}
		if !spiked {
			t.Fatalf("view %q missed the spike; alarms: %+v", f.name, byView[f.name])
		}
	}
}

// scenarioFixtures builds the full backend family over one
// attack-scenario-library stream — the synflood scenario composed onto
// an Abilene trace through its OD routing — instead of the synthetic
// single-bin spike: the scenario's flow-labeled ground truth supplies
// the window every backend must alarm in.
func scenarioFixtures(t *testing.T, seed int64) ([]backendFixture, []traffic.LabeledBin) {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = confHistoryBins + confStreamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	od := gen.Generate()
	sc, err := traffic.ScenarioByName("synflood")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Apply(topo, od, confHistoryBins, seed)
	if err != nil {
		t.Fatal(err)
	}
	truth := traffic.StreamTruth(res.Truth, confHistoryBins)
	if len(truth) == 0 {
		t.Fatal("synflood scenario emitted no stream truth")
	}
	floodLo, floodHi := truth[0].Bin, truth[len(truth)-1].Bin

	y := traffic.LinkLoads(topo, od)
	links := topo.NumLinks()
	routing := topo.RoutingMatrix()
	history := mat.NewDense(confHistoryBins, links, y.RawData()[:confHistoryBins*links])
	stream := mat.NewDense(confStreamBins, links, y.RawData()[confHistoryBins*links:])

	ms, err := netmeas.LinkMetrics(topo, od, netmeas.MetricConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, fa := range res.FlowCountAnomalies {
		ms.InjectFlowCountAnomaly(topo, fa.Flow, fa.Bin, fa.Extra)
	}
	stacked, err := ms.Stacked()
	if err != nil {
		t.Fatal(err)
	}
	cols := stacked.Cols()
	stackedHistory := mat.NewDense(confHistoryBins, cols, stacked.RawData()[:confHistoryBins*cols])
	stackedStream := mat.NewDense(confStreamBins, cols, stacked.RawData()[confHistoryBins*cols:])

	subspace, err := seeded(core.NewOnlineDetector(routing, core.OnlineConfig{Window: confHistoryBins}))(history)
	if err != nil {
		t.Fatal(err)
	}
	incremental, err := seeded(core.NewIncrementalDetector(routing, core.IncrementalConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	multiscale, err := seeded(wavelet.NewStreamDetector(history.Cols(), wavelet.StreamConfig{Levels: 2}))(history)
	if err != nil {
		t.Fatal(err)
	}
	multiflow, err := seeded(netmeas.NewMultiMetricDetector(routing, netmeas.MultiMetricConfig{}))(stackedHistory)
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := seeded(core.NewSketchDetector(routing, core.SketchConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []backendFixture{
		{"subspace", subspace, history, stream, floodLo, floodHi},
		{"incremental", incremental, history, stream, floodLo, floodHi},
		{"sketch", sketch, history, stream, floodLo, floodHi},
		{"multiscale", multiscale, history, stream, floodLo - 4, floodHi},
		{"multiflow", multiflow, stackedHistory, stackedStream, floodLo, floodHi},
	}
	for _, kind := range []forecast.Kind{forecast.EWMA, forecast.HoltWinters, forecast.Fourier} {
		det, err := forecast.NewDetector(history, forecast.Config{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, backendFixture{string(kind), det, history, stream, floodLo, floodHi})
	}
	fixtures = append(fixtures, backendFixture{"hybrid", hybridFixture(t, history, routing), history, stream, floodLo, floodHi})
	return fixtures, truth
}

// TestMonitorScenarioStream runs the full backend family as shards of
// one Monitor over the scenario-library flood stream: every backend
// must alarm inside the scenario's labeled window, the flow-attributing
// backends must name the scenario's flow, and the whole run — scenario
// injection included — must be bin-for-bin reproducible across two
// independently built monitors on the same seed.
func TestMonitorScenarioStream(t *testing.T) {
	run := func(seed int64) (map[string][]core.Alarm, []traffic.LabeledBin, []backendFixture) {
		fixtures, truth := scenarioFixtures(t, seed)
		m := NewMonitor(Config{Workers: 4, BatchSize: 32})
		defer m.Close()
		for _, f := range fixtures {
			if err := m.AddDetectorView(f.name, f.det); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range fixtures {
			if err := m.Ingest(f.name, f.stream); err != nil {
				t.Fatal(err)
			}
		}
		m.Flush()
		if errs := m.Errs(); len(errs) != 0 {
			t.Fatalf("unexpected errors: %v", errs)
		}
		byView := make(map[string][]core.Alarm)
		for _, a := range m.TakeAlarms() {
			byView[a.View] = append(byView[a.View], a.Alarm)
		}
		return byView, truth, fixtures
	}

	byView, truth, fixtures := run(140)
	wantFlow := truth[0].Flow
	for _, f := range fixtures {
		hit := false
		for _, a := range byView[f.name] {
			if a.Seq >= f.spikeLo && a.Seq <= f.spikeHi {
				hit = true
				// The flow-attributing backends must name the
				// scenario's labeled flow.
				switch f.name {
				case "subspace", "incremental", "sketch":
					if a.Flow != wantFlow {
						t.Fatalf("%s attributed flow %d at bin %d, scenario labels %d", f.name, a.Flow, a.Seq, wantFlow)
					}
				}
			}
		}
		if !hit {
			t.Fatalf("view %q missed the flood window [%d,%d]; alarms: %+v", f.name, f.spikeLo, f.spikeHi, byView[f.name])
		}
	}

	// Same seed, fresh monitor: the alarm stream must reproduce
	// bin-for-bin — the engine-level seed-determinism pin for scenario
	// injection.
	again, _, _ := run(140)
	for _, f := range fixtures {
		a, b := byView[f.name], again[f.name]
		if len(a) != len(b) {
			t.Fatalf("%s: rerun alarm count diverged: %d vs %d", f.name, len(a), len(b))
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].Flow != b[i].Flow {
				t.Fatalf("%s: rerun alarm %d diverged: %+v vs %+v", f.name, i, a[i], b[i])
			}
		}
	}
}

// gatedDetector wraps a real backend so a test controls exactly when
// each batch is serviced: ProcessBatch consumes one token from gate
// (close the channel to open the floodgates). Stats, refits and errors
// pass straight through to the wrapped detector.
type gatedDetector struct {
	core.ViewDetector
	gate chan struct{}
}

func (g *gatedDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	<-g.gate
	return g.ViewDetector.ProcessBatch(y)
}

// TestConformanceOverloadPolicies runs every backend once per overload
// policy on a bounded queue with the worker held on a token gate, so
// overload is certain and scripted, then requires the engine's queue
// accounting to reconcile exactly with the bins the backend actually
// processed: enqueued - dropped == ViewStats.Processed, rejected bins
// were never enqueued, and the bound was never exceeded.
func TestConformanceOverloadPolicies(t *testing.T) {
	const (
		batchSize  = 16
		maxPending = 32
	)
	for pi, policy := range []OverloadPolicy{OverloadBlock, OverloadDropOldest, OverloadError} {
		policy := policy
		fixtures := conformanceFixtures(t, int64(130+pi))
		t.Run(policy.String(), func(t *testing.T) {
			for _, f := range fixtures {
				f := f
				t.Run(f.name, func(t *testing.T) {
					gate := make(chan struct{})
					m := NewMonitor(Config{
						Workers:    1,
						BatchSize:  batchSize,
						MaxPending: maxPending,
						Overload:   policy,
					})
					defer m.Close()
					if err := m.AddDetectorView(f.name, &gatedDetector{f.det, gate}); err != nil {
						t.Fatal(err)
					}
					ingested := make(chan error, 1)
					go func() { ingested <- m.Ingest(f.name, f.stream) }()
					if policy == OverloadBlock {
						// The producer must wedge against the bound
						// before anything is released.
						waitUntil(t, "queue to fill", func() bool {
							return m.Stats().QueuedBins == maxPending
						})
					}
					var ingestErr error
					if policy == OverloadBlock {
						close(gate)
						ingestErr = <-ingested
					} else {
						ingestErr = <-ingested
						if q := m.Stats().QueuedBins; q > maxPending {
							t.Fatalf("queue grew to %d bins, bound is %d", q, maxPending)
						}
						close(gate)
					}
					m.Flush()

					qs, err := m.QueueStats(f.name)
					if err != nil {
						t.Fatal(err)
					}
					stats, err := m.ViewStats(f.name)
					if err != nil {
						t.Fatal(err)
					}
					if qs.QueuedBins != 0 {
						t.Fatalf("queue not drained: %+v", qs)
					}
					if got := qs.EnqueuedBins - qs.DroppedBins; got != int64(stats.Processed) {
						t.Fatalf("counters do not reconcile with backend: enqueued %d - dropped %d != processed %d",
							qs.EnqueuedBins, qs.DroppedBins, stats.Processed)
					}
					if qs.EnqueuedBins+qs.RejectedBins != int64(f.stream.Rows()) {
						t.Fatalf("accepted %d + rejected %d != streamed %d", qs.EnqueuedBins, qs.RejectedBins, f.stream.Rows())
					}
					switch policy {
					case OverloadBlock:
						if ingestErr != nil {
							t.Fatal(ingestErr)
						}
						if qs.DroppedBins != 0 || qs.RejectedBins != 0 {
							t.Fatalf("block policy lost bins: %+v", qs)
						}
						if stats.Processed != f.stream.Rows() {
							t.Fatalf("processed %d want %d", stats.Processed, f.stream.Rows())
						}
						// Nothing was lost, so the spike alarm must be
						// there just as in the unloaded conformance run.
						spiked := false
						for _, a := range m.TakeAlarms() {
							if a.Seq >= f.spikeLo && a.Seq <= f.spikeHi {
								spiked = true
							}
						}
						if !spiked {
							t.Fatalf("backpressured run missed the spike")
						}
					case OverloadDropOldest:
						if ingestErr != nil {
							t.Fatal(ingestErr)
						}
						if qs.DroppedBins == 0 {
							t.Fatal("held worker and flooded queue dropped nothing")
						}
						if qs.EnqueuedBins != int64(f.stream.Rows()) {
							t.Fatalf("dropoldest must accept everything: %+v", qs)
						}
					case OverloadError:
						if !errors.Is(ingestErr, ErrOverloaded) {
							t.Fatalf("expected ErrOverloaded, got %v", ingestErr)
						}
						if qs.RejectedBins == 0 || qs.DroppedBins != 0 {
							t.Fatalf("error-policy accounting: %+v", qs)
						}
					}
					if errs := m.Errs(); len(errs) != 0 {
						t.Fatalf("unexpected errors: %v", errs)
					}
				})
			}
		})
	}
}

// TestMonitorIngestStream drives a shard end-to-end from a live
// netmeas.Stream channel — the wiring a real SNMP collector would use.
func TestMonitorIngestStream(t *testing.T) {
	topo, history, stream, flow := viewData(t, 86, 1008, 200, 75)
	m := NewMonitor(Config{Workers: 2, BatchSize: 48})
	defer m.Close()
	if err := addSubspaceView(m, "live", history, topo.RoutingMatrix()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := m.IngestStream("live", netmeas.Stream(ctx, stream, 0)); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if errs := m.Errs(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	stats, err := m.ViewStats("live")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != 200 {
		t.Fatalf("processed %d want 200 (stream bins must all arrive, batch-aligned or not)", stats.Processed)
	}
	spiked := false
	for _, a := range m.TakeAlarms() {
		if a.Seq == 75 {
			spiked = true
			if a.Flow != flow {
				t.Fatalf("spike identified flow %d want %d", a.Flow, flow)
			}
		}
	}
	if !spiked {
		t.Fatal("spike not alarmed over the live stream")
	}

	// A mis-sized measurement fails fast without wedging the monitor.
	bad := make(chan netmeas.LinkMeasurement, 1)
	bad <- netmeas.LinkMeasurement{Bin: 0, Loads: []float64{1, 2, 3}}
	close(bad)
	if err := m.IngestStream("live", bad); err == nil || !strings.Contains(err.Error(), "links") {
		t.Fatalf("mis-sized stream measurement not rejected: %v", err)
	}
}

// TestStreamingEWMAAgreesWithBidirectionalResiduals pins the forecast
// backend's echo suppression to the paper's footnote-4 semantics: on a
// replayed trace with a large spike, the streaming EWMA detector (which
// withholds alarmed bins from its forecaster state) must flag exactly
// the bins whose offline bidirectional residual exceeds the same
// per-link thresholds — the spike itself, and in particular NOT the
// bin after it, which a plain forward EWMA would mark as a second
// spike.
func TestStreamingEWMAAgreesWithBidirectionalResiduals(t *testing.T) {
	const historyBins, streamBins, links = 1008, 192, 5
	const alpha = 0.3
	total := historyBins + streamBins
	full := mat.Zeros(total, links)
	for b := 0; b < total; b++ {
		hours := float64(b) / 6.0
		for l := 0; l < links; l++ {
			base := 4e7 * float64(l+1)
			diurnal := 1 + 0.35*math.Sin(2*math.Pi*hours/24+float64(l))
			noise := 1 + 0.01*math.Sin(float64(b*(l+3)))*math.Cos(float64(b*7+l))
			full.Set(b, l, base*diurnal*noise)
		}
	}
	// One large spike mid-stream on two links.
	spikeBin := historyBins + 90
	full.Set(spikeBin, 1, full.At(spikeBin, 1)+3e7)
	full.Set(spikeBin, 3, full.At(spikeBin, 3)+3e7)

	history := mat.NewDense(historyBins, links, full.RawData()[:historyBins*links])
	stream := mat.NewDense(streamBins, links, full.RawData()[historyBins*links:])
	// Adapt is tiny so the thresholds stay at their seed values and the
	// offline comparison below uses exactly the same numbers.
	det, err := forecast.NewDetector(history, forecast.Config{Kind: forecast.EWMA, Alpha: alpha, Adapt: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	thresholds := det.Thresholds()
	alarms, err := det.ProcessBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(map[int]bool)
	for _, a := range alarms {
		streamed[a.Seq] = true
	}

	// Offline: footnote-4 bidirectional residuals over the full trace,
	// against the very thresholds the streaming detector used.
	offline := make(map[int]bool)
	for l := 0; l < links; l++ {
		resid := timeseries.BidirectionalResiduals(full.Col(l), alpha)
		for b := historyBins; b < total; b++ {
			if resid[b] > thresholds[l] {
				offline[b-historyBins] = true
			}
		}
	}
	if !streamed[90] || !offline[90] {
		t.Fatalf("spike not flagged by both: streaming %v offline %v", streamed, offline)
	}
	if streamed[91] {
		t.Fatal("streaming EWMA flagged the echo bin a bidirectional pass suppresses")
	}
	for b := range streamed {
		if !offline[b] {
			t.Fatalf("streaming flagged bin %d that offline bidirectional residuals do not", b)
		}
	}
	for b := range offline {
		if !streamed[b] {
			t.Fatalf("offline bidirectional residuals flag bin %d that streaming missed", b)
		}
	}
}

// TestHybridFlowAttributionMatchesSubspace pins the hybrid's reason to
// exist: on the shared spiked trace the hybrid must attribute the spike
// to the same OD flow the full subspace backend identifies, while its
// identification stage sees only the escalated bins (a handful, not the
// whole stream).
func TestHybridFlowAttributionMatchesSubspace(t *testing.T) {
	fixtures := conformanceFixtures(t, 123)
	byName := make(map[string]backendFixture, len(fixtures))
	for _, f := range fixtures {
		byName[f.name] = f
	}
	spikeDiag := make(map[string]core.Diagnosis)
	for _, name := range []string{"subspace", "hybrid"} {
		f := byName[name]
		alarms, err := f.det.ProcessBatch(f.stream)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alarms {
			if a.Seq == confSpikeBin {
				spikeDiag[name] = a.Diagnosis
			}
		}
	}
	sub, hyb := spikeDiag["subspace"], spikeDiag["hybrid"]
	if sub.Flow < 0 {
		t.Fatalf("subspace did not identify the spike: %+v", sub)
	}
	if hyb.Flow != sub.Flow {
		t.Fatalf("hybrid attributed flow %d, subspace %d", hyb.Flow, sub.Flow)
	}
	if hyb.SPE != sub.SPE || hyb.Bytes != sub.Bytes {
		t.Fatalf("hybrid spike diagnosis %+v differs from subspace %+v (same seed model, same bin)", hyb, sub)
	}
	hs := byName["hybrid"].det.(*core.HybridDetector).HybridStats()
	if hs.Escalated >= confStreamBins/2 {
		t.Fatalf("hybrid escalated %d of %d bins; triage is supposed to keep the subspace stage cold", hs.Escalated, confStreamBins)
	}
	if hs.Identified < 1 || hs.Identify.Processed != hs.Escalated {
		t.Fatalf("stage accounting wrong: %+v", hs)
	}
}

// TestMonitorCloseDuringHybridReseed pins Close against an in-flight
// hybrid background re-seed of the identification stage: Close must
// wait it out and no goroutine may outlive it. Run under -race in CI.
func TestMonitorCloseDuringHybridReseed(t *testing.T) {
	const bins, links = 64, 4
	history := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			history.Set(i, j, 100+10*float64((i*7+j*3)%13))
		}
	}
	triage, err := forecast.New(links, forecast.Config{Kind: forecast.EWMA, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	identify, err := core.NewOnlineDetector(mat.Identity(links), core.OnlineConfig{Window: bins})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := seeded(core.NewHybridDetector(triage, identify, core.HybridConfig{RefitEvery: bins}))(history)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	hybrid.SetRefitHook(func() {
		close(started)
		<-release
	})

	goroutinesBefore := runtime.NumGoroutine()
	m := NewMonitor(Config{Workers: 1, BatchSize: bins})
	if err := m.AddDetectorView("v", hybrid); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("v", history); err != nil {
		t.Fatal(err)
	}
	<-started // the background re-seed is in flight and held open

	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a hybrid re-seed was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the re-seed completed")
	}
	if errs := m.Errs(); len(errs) != 0 {
		t.Fatalf("clean hybrid re-seed left errors: %v", errs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Close: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorCloseDuringForecastRefit pins Close against an in-flight
// forecast-backend refit: Close must wait the background threshold
// re-estimation out, and no goroutine may outlive it. Run under -race
// in CI.
func TestMonitorCloseDuringForecastRefit(t *testing.T) {
	const bins, links = 64, 4
	history := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			history.Set(i, j, 1e6*(1+0.3*math.Sin(float64(i)/9+float64(j))))
		}
	}
	det, err := forecast.NewDetector(history, forecast.Config{Kind: forecast.EWMA, Alpha: 0.3, RefitEvery: bins})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	det.SetRefitHook(func() {
		close(started)
		<-release
	})

	goroutinesBefore := runtime.NumGoroutine()
	m := NewMonitor(Config{Workers: 1, BatchSize: bins})
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("v", history); err != nil {
		t.Fatal(err)
	}
	<-started // the background refit is in flight and held open

	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a forecast refit was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the forecast refit completed")
	}
	if errs := m.Errs(); len(errs) != 0 {
		t.Fatalf("clean forecast refit left errors: %v", errs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Close: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorCloseDuringRefit pins the Close/refit interaction: a Close
// racing an in-flight background refit must wait the refit goroutine
// out (no leak), and a failure from that refit must still be
// harvestable through Errs afterwards (no dropped error). Run under
// -race in CI.
func TestMonitorCloseDuringRefit(t *testing.T) {
	const bins, links = 40, 6
	history := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			history.Set(i, j, 100+10*float64((i*7+j*3)%13))
		}
	}
	// A constant continuation drives the window degenerate, so the refit
	// triggered by the batch fails — exercising the dropped-error half.
	means := history.ColMeans()
	constant := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		constant.SetRow(i, means)
	}

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

	goroutinesBefore := runtime.NumGoroutine()
	m := NewMonitor(Config{Workers: 1, BatchSize: bins})
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("v", constant); err != nil {
		t.Fatal(err)
	}
	<-started // the background refit is now in flight and held open

	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a background refit was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the refit completed")
	}

	errs := m.Errs()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "refit") {
		t.Fatalf("refit failure during Close not harvested: %v", errs)
	}

	// The refit goroutine and the worker pool must both be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Close: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
