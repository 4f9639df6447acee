package eval

import (
	"math"
	"sort"
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// buildSet generates a simulated week with injected true anomalies and a
// diagnoser fitted on the anomalous link loads (as the paper fits on real
// traces that contain the anomalies).
func buildSet(t *testing.T, seed int64, anomalies []traffic.Anomaly) (*topology.Topology, *mat.Dense, *mat.Dense, *core.Diagnoser) {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	traffic.Inject(x, anomalies)
	y := traffic.LinkLoads(topo, x)
	diag, err := core.NewDiagnoser(y, topo.RoutingMatrix(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return topo, x, y, diag
}

const binHours = 1.0 / 6.0

func TestFourierLabelerFindsInjectedSpike(t *testing.T) {
	topo, x, _, _ := buildSet(t, 70, []traffic.Anomaly{{Flow: 17, Bin: 333, Delta: 6e7}})
	_ = topo
	resid, err := FourierLabeler{}.Residuals(x, binHours)
	if err != nil {
		t.Fatal(err)
	}
	top := RankedAnomalies(resid, 1)[0]
	if top.Flow != 17 || top.Bin != 333 {
		t.Fatalf("top Fourier anomaly = %+v, want flow 17 bin 333", top)
	}
	if math.Abs(top.Size-6e7)/6e7 > 0.4 {
		t.Fatalf("Fourier size estimate %v far from 6e7", top.Size)
	}
}

func TestEWMALabelerFindsInjectedSpike(t *testing.T) {
	_, x, _, _ := buildSet(t, 71, []traffic.Anomaly{{Flow: 40, Bin: 500, Delta: 6e7}})
	resid, err := EWMALabeler{Alpha: 0.25}.Residuals(x, binHours)
	if err != nil {
		t.Fatal(err)
	}
	top := RankedAnomalies(resid, 1)[0]
	if top.Flow != 40 || top.Bin != 500 {
		t.Fatalf("top EWMA anomaly = %+v, want flow 40 bin 500", top)
	}
}

func TestEWMALabelerAutoAlpha(t *testing.T) {
	_, x, _, _ := buildSet(t, 72, []traffic.Anomaly{{Flow: 9, Bin: 200, Delta: 6e7}})
	resid, err := EWMALabeler{}.Residuals(x, binHours) // per-flow grid search
	if err != nil {
		t.Fatal(err)
	}
	top := RankedAnomalies(resid, 1)[0]
	if top.Flow != 9 || top.Bin != 200 {
		t.Fatalf("auto-alpha EWMA top anomaly = %+v", top)
	}
}

func TestLabelersAgreeOnLargeSpikes(t *testing.T) {
	// The paper confirmed every visually isolated anomaly was discovered
	// by both labelers; both must rank the injected spikes on top.
	anoms := []traffic.Anomaly{
		{Flow: 5, Bin: 150, Delta: 7e7},
		{Flow: 60, Bin: 700, Delta: 8e7},
	}
	_, x, _, _ := buildSet(t, 73, anoms)
	for _, l := range []Labeler{FourierLabeler{}, EWMALabeler{Alpha: 0.25}} {
		resid, err := l.Residuals(x, binHours)
		if err != nil {
			t.Fatal(err)
		}
		top := RankedAnomalies(resid, 2)
		found := map[int]bool{}
		for _, a := range top {
			found[a.Bin] = true
		}
		if !found[150] || !found[700] {
			t.Fatalf("%s labeler missed injected anomalies: %+v", l.Name(), top)
		}
	}
}

func TestRankedAnomaliesOrderingAndCutoff(t *testing.T) {
	resid := mat.Zeros(3, 2)
	resid.Set(0, 0, 5)
	resid.Set(1, 1, 9)
	resid.Set(2, 0, 7)
	ranked := RankedAnomalies(resid, 10)
	if len(ranked) != 6 {
		t.Fatalf("ranked length %d", len(ranked))
	}
	if ranked[0].Size != 9 || ranked[1].Size != 7 || ranked[2].Size != 5 {
		t.Fatalf("ordering wrong: %+v", ranked[:3])
	}
	above := AboveCutoff(ranked, 6)
	if len(above) != 2 {
		t.Fatalf("AboveCutoff = %+v", above)
	}
}

func TestEvaluateActualScoresInjectedAnomalies(t *testing.T) {
	anoms := []traffic.Anomaly{
		{Flow: 12, Bin: 100, Delta: 8e7},
		{Flow: 33, Bin: 400, Delta: 9e7},
		{Flow: 77, Bin: 800, Delta: 7e7},
	}
	_, _, y, diag := buildSet(t, 74, anoms)
	truths := make([]LabeledAnomaly, len(anoms))
	for i, a := range anoms {
		truths[i] = LabeledAnomaly{Flow: a.Flow, Bin: a.Bin, Size: a.Delta}
	}
	r := EvaluateActual(diag, y, truths)
	if r.TrueAnomalies != 3 || r.NormalBins != 1005 {
		t.Fatalf("bin accounting wrong: %+v", r)
	}
	if r.Detected < 3 {
		t.Fatalf("detection %d/3; all large anomalies must be caught", r.Detected)
	}
	if r.Identified < 2 {
		t.Fatalf("identification %d/%d too low", r.Identified, r.IdentTrials)
	}
	if r.FalseAlarmRate() > 0.02 {
		t.Fatalf("false alarm rate %v too high", r.FalseAlarmRate())
	}
	if r.QuantErr > 0.4 {
		t.Fatalf("quantification error %v too high", r.QuantErr)
	}
	if r.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestEvaluateActualRates(t *testing.T) {
	var r ActualResult
	if r.DetectionRate() != 0 || r.FalseAlarmRate() != 0 || r.IdentificationRate() != 0 {
		t.Fatal("empty result rates must be zero")
	}
	r = ActualResult{Detected: 3, TrueAnomalies: 4, FalseAlarms: 1, NormalBins: 100, Identified: 2, IdentTrials: 3}
	if r.DetectionRate() != 0.75 {
		t.Fatalf("DetectionRate = %v", r.DetectionRate())
	}
	if r.FalseAlarmRate() != 0.01 {
		t.Fatalf("FalseAlarmRate = %v", r.FalseAlarmRate())
	}
	if math.Abs(r.IdentificationRate()-2.0/3) > 1e-12 {
		t.Fatalf("IdentificationRate = %v", r.IdentificationRate())
	}
}

func TestEvaluateActualPanicsOnBadBin(t *testing.T) {
	_, _, y, diag := buildSet(t, 75, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EvaluateActual(diag, y, []LabeledAnomaly{{Flow: 0, Bin: 99999}})
}

func TestDiagnoseRanked(t *testing.T) {
	anoms := []traffic.Anomaly{{Flow: 21, Bin: 300, Delta: 9e7}}
	_, _, y, diag := buildSet(t, 76, anoms)
	ranked := []LabeledAnomaly{
		{Flow: 21, Bin: 300, Size: 9e7},
		{Flow: 50, Bin: 10, Size: 5e6}, // noise-sized non-anomaly
	}
	rd := DiagnoseRanked(diag, y, ranked)
	if !rd.Detected[0] || !rd.Identified[0] {
		t.Fatalf("large anomaly not diagnosed: %+v", rd)
	}
	if rd.Estimates[0] < 4e7 {
		t.Fatalf("estimate %v too small", rd.Estimates[0])
	}
	if rd.Detected[1] {
		t.Fatal("noise-sized entry must not be detected")
	}
}

// meanDetectability returns the mean finite detectability threshold of
// the fitted model, the natural byte scale for "large" and "small"
// injections on a given dataset.
func meanDetectability(t *testing.T, diag *core.Diagnoser) float64 {
	t.Helper()
	ths := diag.Identifier().DetectabilityThresholds(diag.Detector().Limit())
	var sum float64
	var n int
	for _, th := range ths {
		if !math.IsInf(th, 1) {
			sum += th
			n++
		}
	}
	if n == 0 {
		t.Fatal("no detectable flows")
	}
	return sum / float64(n)
}

func TestInjectionSweepLargeVsSmall(t *testing.T) {
	topo, _, y, diag := buildSet(t, 77, nil)
	scale := meanDetectability(t, diag)
	bins := []int{60, 200, 350, 500, 650, 800, 950}
	flows := make([]int, 0, 30)
	for f := 0; f < topo.NumFlows(); f += 4 {
		flows = append(flows, f)
	}
	// "Large" injections sit well above the model's sufficient threshold,
	// "small" well below — the paper's Table 3 protocol expressed in the
	// model's own byte scale.
	large := InjectionSweep(diag, topo, y, SweepConfig{Size: 1.6 * scale, Bins: bins, Flows: flows})
	small := InjectionSweep(diag, topo, y, SweepConfig{Size: 0.15 * scale, Bins: bins, Flows: flows})
	if large.DetectionRate() < 0.85 {
		t.Fatalf("large injection detection %v too low", large.DetectionRate())
	}
	if small.DetectionRate() > 0.25 {
		t.Fatalf("small injection detection %v too high", small.DetectionRate())
	}
	if large.IdentificationRate() < 0.85 {
		t.Fatalf("large identification %v too low", large.IdentificationRate())
	}
	if large.QuantErr > 0.3 {
		t.Fatalf("large quantification error %v", large.QuantErr)
	}
	if large.String() == "" || small.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestInjectionSweepShapes(t *testing.T) {
	topo, _, y, diag := buildSet(t, 78, nil)
	bins := []int{10, 20, 30}
	flows := []int{1, 2, 3, 4}
	r := InjectionSweep(diag, topo, y, SweepConfig{Size: 5e7, Bins: bins, Flows: flows})
	if len(r.DetRateByFlow) != 4 || len(r.DetRateByBin) != 3 {
		t.Fatalf("aggregate shapes wrong: %d %d", len(r.DetRateByFlow), len(r.DetRateByBin))
	}
	if r.Injections != 12 {
		t.Fatalf("injections = %d want 12", r.Injections)
	}
	for _, v := range r.DetRateByFlow {
		if v < 0 || v > 1 {
			t.Fatalf("flow rate %v out of [0,1]", v)
		}
	}
	for _, v := range r.DetRateByBin {
		if v < 0 || v > 1 {
			t.Fatalf("bin rate %v out of [0,1]", v)
		}
	}
}

func TestInjectionSweepDefaultsToAllFlows(t *testing.T) {
	topo, _, y, diag := buildSet(t, 79, nil)
	r := InjectionSweep(diag, topo, y, SweepConfig{Size: 5e7, Bins: []int{100}})
	if r.Injections != topo.NumFlows() {
		t.Fatalf("injections = %d want %d", r.Injections, topo.NumFlows())
	}
}

func TestInjectionSweepPanics(t *testing.T) {
	topo, _, y, diag := buildSet(t, 80, nil)
	for _, fn := range []func(){
		func() { InjectionSweep(diag, topo, y, SweepConfig{Size: 0, Bins: []int{1}}) },
		func() { InjectionSweep(diag, topo, y, SweepConfig{Size: 1, Bins: []int{-1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSmallerFlowsDetectBetter(t *testing.T) {
	// The Figure 9 effect: for a fixed spike size in the sensitive band,
	// detection rates on the smallest flows dominate those on the largest
	// flows, because the normal subspace aligns with the large-variance
	// flows (Section 5.4).
	topo, x, y, diag := buildSet(t, 81, nil)
	scale := meanDetectability(t, diag)
	bins := make([]int, 0, 24)
	for b := 24; b < 1008; b += 42 {
		bins = append(bins, b)
	}
	r := InjectionSweep(diag, topo, y, SweepConfig{Size: 0.5 * scale, Bins: bins})
	rates := MeanFlowRates(x)
	// Compare the bottom quartile of flows by mean rate against the top
	// decile (where the heavy, subspace-aligned flows live).
	order := make([]int, len(r.Flows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rates[r.Flows[order[a]]] < rates[r.Flows[order[b]]] })
	n := len(order)
	var loSum, hiSum float64
	loN, hiN := n/4, n/10
	for _, i := range order[:loN] {
		loSum += r.DetRateByFlow[i]
	}
	for _, i := range order[n-hiN:] {
		hiSum += r.DetRateByFlow[i]
	}
	lo, hi := loSum/float64(loN), hiSum/float64(hiN)
	if lo <= hi {
		t.Fatalf("smallest flows detect worse (%.3f) than largest flows (%.3f)", lo, hi)
	}
}

func TestMeanFlowRates(t *testing.T) {
	x := mat.Zeros(2, 2)
	x.Set(0, 0, 10)
	x.Set(1, 0, 20)
	x.Set(0, 1, 4)
	got := MeanFlowRates(x)
	if got[0] != 15 || got[1] != 2 {
		t.Fatalf("MeanFlowRates = %v", got)
	}
}

func TestScoreAlarmBins(t *testing.T) {
	r := ScoreAlarmFlows("ewma", map[int]int{10: -1, 20: -1, 30: -1}, binLabels(10, 40), 100)
	if r.Detected != 1 || r.TrueAnomalies != 2 {
		t.Fatalf("detection %d/%d want 1/2", r.Detected, r.TrueAnomalies)
	}
	if r.FalseAlarms != 2 || r.NormalBins != 98 {
		t.Fatalf("false alarms %d/%d want 2/98", r.FalseAlarms, r.NormalBins)
	}
	if got := r.DetectionRate(); got != 0.5 {
		t.Fatalf("detection rate %v", got)
	}
	if got := r.FalseAlarmRate(); math.Abs(got-2.0/98) > 1e-12 {
		t.Fatalf("false alarm rate %v", got)
	}
	if zero := (StreamResult{}); zero.DetectionRate() != 0 || zero.FalseAlarmRate() != 0 {
		t.Fatal("zero-denominator rates must be 0")
	}
}

// TestEvaluateStreamingBackends runs the online Section 7.3 comparison
// end to end: subspace and forecast backends stream the same spiked
// trace and the helper scores both against the same labels.
func TestEvaluateStreamingBackends(t *testing.T) {
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(9)
	cfg.Bins = 1008 + 288
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	truth := []int{60, 170}
	for _, b := range truth {
		traffic.Inject(x, []traffic.Anomaly{{Flow: topo.FlowID(2, 8), Bin: 1008 + b, Delta: 9e7}})
	}
	y := traffic.LinkLoads(topo, x)
	links := topo.NumLinks()
	history := mat.NewDense(1008, links, y.RawData()[:1008*links])
	stream := mat.NewDense(288, links, y.RawData()[1008*links:])

	subspace, err := core.NewOnlineDetector(history, topo.RoutingMatrix(), core.OnlineConfig{Window: 1008})
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := forecast.NewDetector(history, forecast.Config{Kind: forecast.EWMA})
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []core.ViewDetector{subspace, ewma} {
		r, err := EvaluateStreamingFlows(det, stream, 64, binLabels(truth...))
		if err != nil {
			t.Fatal(err)
		}
		if r.TrueAnomalies != 2 || r.NormalBins != 286 {
			t.Fatalf("%s: denominators %d/%d wrong", r.Backend, r.TrueAnomalies, r.NormalBins)
		}
		if r.Detected != 2 {
			t.Fatalf("%s detected %d/2 9e7-byte spikes: %+v", r.Backend, r.Detected, r)
		}
		if r.FalseAlarms > 10 {
			t.Fatalf("%s false alarms %d too high", r.Backend, r.FalseAlarms)
		}
	}
	// Alarm seqs must have been rebased: a second evaluation on a
	// detector that already processed 288 bins still scores stream-local
	// labels.
	r, err := EvaluateStreamingFlows(ewma, stream, 64, binLabels(truth...))
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != 2 {
		t.Fatalf("rebased evaluation detected %d/2: %+v", r.Detected, r)
	}
}
