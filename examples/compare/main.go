// Compare contrasts spatial against temporal anomaly detection on the
// same streamed link data — the paper's Section 7.3 comparison, run
// online. The subspace method exploits correlation across links; the
// forecasting baselines (EWMA, Holt-Winters, Fourier basis fitting)
// exploit correlation across time within each link, with adaptive
// per-link k-sigma residual thresholds; the hybrid backend chains the
// two, running EWMA triage on every bin and escalating only its alarms
// to a subspace stage for flow identification. All five backends stream
// the identical bins through the core.ViewDetector contract and are
// scored on the identical labels, so the detection, false-alarm and
// identification rates are directly comparable.
//
// The mixed anomaly sizes spread the backends apart. The smoothing
// forecasters (EWMA, Holt-Winters) are sharp per-link change detectors
// on this clean synthetic traffic and catch even the small spikes; the
// Fourier fit only models the periodic structure, so residual noise
// drowns moderate anomalies; the subspace method misses the smallest
// spike (it lands in a large flow whose variance the normal subspace
// absorbs — Section 5.4) but identifies the responsible OD flow behind
// every detection, and its advantage grows as per-link variability
// rises relative to anomaly size, which is the regime the paper's real
// backbone traces live in (Figure 10). The hybrid row shows the
// composed operating point: EWMA's detections, subspace-grade flow
// attribution on the escalated bins, and a subspace stage that touched
// only a handful of bins instead of the whole stream.
package main

import (
	"fmt"
	"log"

	"netanomaly"
	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/eval"
)

func main() {
	topo := netanomaly.SprintEurope()
	cfg := netanomaly.DefaultTrafficConfig(1101)
	cfg.TotalMeanRate = 7.2e8
	cfg.Bins = 1008 + 432 // one seeding week + three streamed days
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Anomalies spanning ~8e6 to 6.5e7 bytes in the streamed portion.
	anomalies := []netanomaly.Anomaly{
		{Flow: topo.FlowID(0, 7), Bin: 1008 + 60, Delta: 8e6},
		{Flow: topo.FlowID(9, 3), Bin: 1008 + 170, Delta: 1.2e7},
		{Flow: topo.FlowID(5, 12), Bin: 1008 + 290, Delta: 2.4e7},
		{Flow: topo.FlowID(3, 1), Bin: 1008 + 390, Delta: 6.5e7},
	}
	netanomaly.InjectAnomalies(od, anomalies)
	links := netanomaly.LinkLoads(topo, od)
	_, m := links.Dims()
	history := netanomaly.NewMatrix(1008, m, links.RawData()[:1008*m])
	stream := netanomaly.NewMatrix(432, m, links.RawData()[1008*m:])
	truth := make([]eval.LabeledBin, len(anomalies))
	for i, a := range anomalies {
		truth[i] = eval.LabeledBin{Bin: a.Bin - 1008, Flow: a.Flow}
	}

	// Every backend is built the way a monitor view of that kind is.
	var backends []core.ViewDetector
	for _, kind := range []string{"subspace", "ewma", "holtwinters", "fourier", "hybrid"} {
		det, err := backend.Build(backend.Spec{Kind: kind}, history, topo.RoutingMatrix())
		if err != nil {
			log.Fatal(err)
		}
		backends = append(backends, det)
	}
	hybrid := backends[len(backends)-1].(*core.HybridDetector)

	fmt.Printf("%d injected anomalies (8e6..6.5e7 bytes) in %d streamed bins of %d-link data\n\n",
		len(anomalies), stream.Rows(), m)
	for _, det := range backends {
		r, err := eval.EvaluateStreamingFlows(det, stream, 64, truth)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(r)
	}
	hs := hybrid.HybridStats()
	fmt.Printf("\nhybrid cost: subspace stage saw %d of %d streamed bins (%d triage alarms, %d identified)\n",
		hs.Escalated, stream.Rows(), hs.TriageAlarms, hs.Identified)

	fmt.Println("\nconclusion: on clean synthetic traffic the smoothing forecasters")
	fmt.Println("detect competitively but cannot name the OD flow behind an alarm;")
	fmt.Println("the subspace method identifies flows on every detection; the hybrid")
	fmt.Println("keeps EWMA's detections and per-bin cost while borrowing subspace")
	fmt.Println("identification for just the escalated bins (Sections 6.2, 7.3).")
}
