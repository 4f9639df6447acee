package netanomaly_test

import (
	"context"
	"fmt"
	"log"

	"netanomaly"
)

// exampleData builds a small deterministic scenario shared by the
// examples: synthetic Abilene traffic with one 90 MB volume anomaly
// injected into an OD flow mid-stream, split into a seeding history and
// a streamed continuation. Real deployments load link-load CSVs or feed
// collector measurements instead.
func exampleData(seed int64) (topo *netanomaly.Topology, history, stream *netanomaly.Matrix, flow int) {
	const historyBins, streamBins, spikeBin = 288, 64, 30
	topo = netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(seed)
	cfg.Bins = historyBins + streamBins
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	flow = topo.FlowID(1, 7)
	netanomaly.InjectAnomalies(od, []netanomaly.Anomaly{{Flow: flow, Bin: historyBins + spikeBin, Delta: 9e7}})
	links := netanomaly.LinkLoads(topo, od)
	m := topo.NumLinks()
	history = netanomaly.NewMatrix(historyBins, m, links.RawData()[:historyBins*m])
	stream = netanomaly.NewMatrix(streamBins, m, links.RawData()[historyBins*m:])
	return topo, history, stream, flow
}

// ExampleNewMonitor runs the concurrent streaming engine end to end:
// seed a subspace view on history, ingest a measurement batch, and
// collect the diagnosed alarms — detection, flow identification and
// byte quantification in one pass.
func ExampleNewMonitor() {
	topo, history, stream, _ := exampleData(7)

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{})
	defer mon.Close()
	if err := netanomaly.AddView(mon, "backbone", history, topo); err != nil {
		log.Fatal(err)
	}
	if err := mon.Ingest("backbone", stream); err != nil {
		log.Fatal(err)
	}
	mon.Flush() // Ingest is asynchronous; wait for the queued batches
	for _, a := range mon.TakeAlarms() {
		fmt.Printf("%s: bin %d flow %s ~%.0f MB\n",
			a.View, a.Seq, topo.FlowName(a.Flow), a.Bytes/1e6)
	}
	// Output: backbone: bin 30 flow chin->dnvr ~90 MB
}

// ExampleAddView registers a subspace-family backend with options: the
// incremental kind maintains the same model from a running covariance,
// making refits cheap enough to run often.
func ExampleAddView() {
	topo, history, stream, _ := exampleData(8)

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{RefitEvery: 32})
	defer mon.Close()
	err := netanomaly.AddView(mon, "edge", history, topo,
		netanomaly.WithDetector(netanomaly.DetectorIncremental),
		netanomaly.WithLambda(0.999), // ~one-week forgetting at 10-minute bins
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := mon.Ingest("edge", stream); err != nil {
		log.Fatal(err)
	}
	mon.Flush()
	stats, err := mon.ViewStats("edge")
	if err != nil {
		log.Fatal(err)
	}
	spiked := false
	for _, a := range mon.TakeAlarms() {
		if a.Seq == 30 {
			spiked = true
		}
	}
	fmt.Printf("backend %s processed %d bins, spike detected: %v\n",
		stats.Backend, stats.Processed, spiked)
	// Output: backend incremental processed 64 bins, spike detected: true
}

// ExampleAddView_forecast registers a temporal forecasting backend —
// the cheapest kind: per-link EWMA recursions with adaptive k-sigma
// thresholds, no matrix pass. Alarms localize in time and link but
// cannot name the responsible OD flow (Flow is -1).
func ExampleAddView_forecast() {
	topo, history, stream, _ := exampleData(9)

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{})
	defer mon.Close()
	err := netanomaly.AddView(mon, "cheap", history, topo,
		netanomaly.WithDetector(netanomaly.DetectorEWMA),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := mon.Ingest("cheap", stream); err != nil {
		log.Fatal(err)
	}
	mon.Flush()
	for _, a := range mon.TakeAlarms() {
		fmt.Printf("bin %d anomalous (flow identified: %v)\n", a.Seq, a.Flow >= 0)
	}
	// Output: bin 30 anomalous (flow identified: false)
}

// ExampleAddView_hybrid registers the triage→identification backend:
// an always-on EWMA stage sees every bin at recursion cost, and only
// its alarms escalate to a subspace stage that attributes the OD flow —
// forecast-level steady-state cost, subspace-grade alarms.
func ExampleAddView_hybrid() {
	topo, history, stream, flow := exampleData(10)

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{})
	defer mon.Close()
	err := netanomaly.AddView(mon, "hybrid", history, topo,
		netanomaly.WithDetector(netanomaly.DetectorHybrid),
	)
	if err != nil {
		log.Fatal(err)
	}
	det, err := mon.Detector("hybrid") // grab before Close for stage stats
	if err != nil {
		log.Fatal(err)
	}
	if err := mon.Ingest("hybrid", stream); err != nil {
		log.Fatal(err)
	}
	mon.Flush()
	for _, a := range mon.TakeAlarms() {
		fmt.Printf("bin %d flow %s (injected into %s)\n",
			a.Seq, topo.FlowName(a.Flow), topo.FlowName(flow))
	}
	hs := det.(*netanomaly.HybridDetector).HybridStats()
	fmt.Printf("subspace stage saw %d of %d bins\n", hs.Escalated, hs.Triage.Processed)
	// Output:
	// bin 30 flow chin->dnvr (injected into chin->dnvr)
	// subspace stage saw 1 of 64 bins
}

// ExampleMonitor_IngestStream drives a view from a live measurement
// channel — the wiring an SNMP collector would use. StreamMatrix
// replays a matrix as such a channel; any source producing
// LinkMeasurement works.
func ExampleMonitor_IngestStream() {
	topo, history, stream, _ := exampleData(11)

	alarmed := make(chan int, 16)
	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{
		OnAlarm: func(a netanomaly.MonitorAlarm) { alarmed <- a.Seq },
	})
	if err := netanomaly.AddView(mon, "live", history, topo); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// IngestStream blocks until the channel closes; it rebatches
	// bin-at-a-time arrivals so the batched kernel stays hot.
	if err := mon.IngestStream("live", netanomaly.StreamMatrix(ctx, stream, 0)); err != nil {
		log.Fatal(err)
	}
	mon.Close() // drains queued work, each batch settled, refits included
	close(alarmed)
	for seq := range alarmed {
		fmt.Printf("alarm at streamed bin %d\n", seq)
	}
	// Output: alarm at streamed bin 30
}

// ExampleNewMonitor_loadSafe configures the engine for sustained
// overload: bounded per-view queues with a selectable full-queue policy
// in front of a fixed pool of four workers. With OverloadBlock the
// producer is paced to the service rate and nothing is lost; swap in
// OverloadDropOldest to prefer fresh bins instead. Monitor.Stats reports
// queue depth, drops and the pool size.
func ExampleNewMonitor_loadSafe() {
	topo, history, stream, _ := exampleData(7)

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{Workers: 4, BatchSize: 32},
		netanomaly.WithMaxPending(128),
		netanomaly.WithOverloadPolicy(netanomaly.OverloadBlock),
	)
	defer mon.Close()
	if err := netanomaly.AddView(mon, "backbone", history, topo); err != nil {
		log.Fatal(err)
	}
	if err := mon.Ingest("backbone", stream); err != nil {
		log.Fatal(err)
	}
	mon.Flush()
	st := mon.Stats()
	fmt.Printf("dropped %d bins, workers %d\n", st.DroppedBins, st.Workers)
	// Output: dropped 0 bins, workers 4
}
