// Benchmarks regenerating every table and figure of the paper's
// evaluation section, its ablations, and the computational claim of
// Section 7.1. Each paper benchmark runs the complete experiment per
// iteration and reports the headline quantity of the corresponding table
// or figure as a custom metric, so `go test -bench=.` both times the
// pipeline and reproduces the results. The kernel benchmarks below them
// are profiling loops: they report ns/op and allocations and gate
// nothing. cmd/benchjson holds every timing gate (failedGates).
package netanomaly_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"netanomaly"
	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/engine"
	"netanomaly/internal/eval"
	"netanomaly/internal/experiments"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
	"netanomaly/internal/wavelet"
)

// generated returns the named topology and bins bins of its synthetic
// OD traffic at seed, with the link loads that traffic puts on it.
func generated(b *testing.B, name string, seed int64, bins int) (topo *topology.Topology, od, loads *mat.Dense) {
	b.Helper()
	topo, err := topology.Parse(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = bins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	od = gen.Generate()
	return topo, od, traffic.LinkLoads(topo, od)
}

// feed streams b.N bins of y through det in 64-bin batches, cycling over
// y's rows, and reports bins/sec. One op is one bin.
func feed(b *testing.B, det core.ViewDetector, y *mat.Dense) {
	const batch = 64
	bins, m := y.Dims()
	data := y.RawData()
	b.ResetTimer()
	for fed, turn := 0, 0; fed < b.N; turn++ {
		n := min(batch, b.N-fed)
		r0 := (turn * batch) % (bins - batch)
		if _, err := det.ProcessBatch(mat.NewDense(n, m, data[r0*m:(r0+n)*m])); err != nil {
			b.Fatal(err)
		}
		fed += n
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "bins/sec")
	}
}

// sweepStride subsamples the injection day in sweep-based benchmarks so a
// single iteration stays in the seconds range (stride 1 is the paper's
// full 144-bin day; results at stride 6 agree within a point or two).
const sweepStride = 6

func BenchmarkTable1DatasetSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkFigure1AnomalyIllustration(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f1 := experiments.Figure1(d)
		if len(f1.LinkSeries) == 0 {
			b.Fatal("no links")
		}
	}
}

func BenchmarkFigure3ScreePlot(b *testing.B) {
	var top float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		top = rows[0].Fractions[0]
	}
	b.ReportMetric(top, "pc1_variance_fraction")
}

func BenchmarkFigure4Projections(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	var rank int
	for i := 0; i < b.N; i++ {
		f4, err := experiments.Figure4(d)
		if err != nil {
			b.Fatal(err)
		}
		rank = f4.Rank
	}
	b.ReportMetric(float64(rank), "normal_rank")
}

func BenchmarkFigure5ResidualTimeseries(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	var limit float64
	for i := 0; i < b.N; i++ {
		f5, err := experiments.Figure5(d)
		if err != nil {
			b.Fatal(err)
		}
		limit = f5.Limit999
	}
	b.ReportMetric(limit, "q_limit_999")
}

func BenchmarkFigure6RankOrder(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	var detected int
	for i := 0; i < b.N; i++ {
		f6, err := experiments.Figure6(d, eval.FourierLabeler{}, 40)
		if err != nil {
			b.Fatal(err)
		}
		detected = 0
		for j, a := range f6.Ranked.Anomalies {
			if a.Size >= f6.Cutoff && f6.Ranked.Detected[j] {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "above_cutoff_detected")
}

func BenchmarkTable2ActualAnomalies(b *testing.B) {
	var det float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		det = rows[0].Result.DetectionRate()
	}
	b.ReportMetric(det, "sprint1_fourier_detection")
}

// benchStudy builds (once) the injection studies shared by the Figure
// 7/8/9 and Table 3 benchmarks.
var benchStudies []experiments.InjectionStudy

func studiesForBench(b *testing.B) []experiments.InjectionStudy {
	b.Helper()
	if benchStudies != nil {
		return benchStudies
	}
	for _, d := range experiments.AllDatasets() {
		s, err := experiments.NewInjectionStudy(d, sweepStride)
		if err != nil {
			b.Fatal(err)
		}
		benchStudies = append(benchStudies, s)
	}
	return benchStudies
}

func BenchmarkFigure7InjectionHistograms(b *testing.B) {
	ss := studiesForBench(b)
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		for _, s := range ss {
			f7 := experiments.Figure7(s)
			rate = f7.LargeRate
		}
	}
	b.ReportMetric(rate, "abilene_large_detection")
}

func BenchmarkFigure8DetectionByTime(b *testing.B) {
	ss := studiesForBench(b)
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		for _, s := range ss {
			f8 := experiments.Figure8(s)
			spread = f8.MaxRate - f8.MinRate
		}
	}
	b.ReportMetric(spread, "abilene_rate_spread")
}

func BenchmarkFigure9RateVsFlowSize(b *testing.B) {
	ss := studiesForBench(b)
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		for _, s := range ss {
			f9 := experiments.Figure9(s)
			gap = f9.SmallQuartileRate - f9.TopFlowsRate
		}
	}
	b.ReportMetric(gap, "small_minus_top_rate")
}

func BenchmarkTable3SyntheticSummary(b *testing.B) {
	ss := studiesForBench(b)
	b.ResetTimer()
	var largeDet float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(ss)
		largeDet = rows[0].Detection
	}
	b.ReportMetric(largeDet, "sprint1_large_detection")
}

// BenchmarkTable3FullSweep runs one complete injection sweep (one size,
// full day at the bench stride, all flows) per iteration — the paper's
// actual workload, timed end to end.
func BenchmarkTable3FullSweep(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewInjectionStudy(d, sweepStride); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10BasisComparison(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	var sep float64
	for i := 0; i < b.N; i++ {
		f10, err := experiments.Figure10(d)
		if err != nil {
			b.Fatal(err)
		}
		sep = f10.SubspaceSeparation
	}
	b.ReportMetric(sep, "subspace_separation")
}

// BenchmarkSVD1008x49 times the decomposition of a paper-sized
// measurement matrix. Section 7.1 reports under two seconds on a 1 GHz
// laptop for exactly this shape.
func BenchmarkSVD1008x49(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	y := mat.Zeros(1008, 49)
	for i := 0; i < 1008; i++ {
		for j := 0; j < 49; j++ {
			y.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := mat.SVD(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVD1008x120 is the same decomposition at the wide-network
// scale of the end-to-end ledger (120 links). It is the offline fit
// (core.Fit) and the oracle the streaming fits are tested against; the
// detectors' seeds and window refits solve the centered Gram instead
// (BenchmarkSeedFit).
func BenchmarkSVD1008x120(b *testing.B) {
	y := largeLinkTrace(120)
	y.CenterColumns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := mat.SVD(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedFit prices building a seeded "subspace" backend from a
// 1008-bin week — the seed fit (centered Gram, eigensolve, lazy 3-sigma
// rank search), Q-limit and identifier that a cold start pays per view —
// on Abilene (41 links) and on the ledger's wide network
// (synthetic:30:45:7, 120 links).
func BenchmarkSeedFit(b *testing.B) {
	for _, name := range []string{"abilene", "synthetic:30:45:7"} {
		topo, _, history := generated(b, name, 3, 1008)
		routing := topo.RoutingMatrix()
		b.Run(fmt.Sprintf("links=%d", topo.NumLinks()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := backend.Build(backend.Spec{Kind: "subspace"}, history, routing); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdStart prices what a cold start does before it listens,
// at the ledger's wide scale (synthetic:30:45:7: 120 links, a 1008-bin
// week): reading the week from memory in the v1 and v2-xor wire
// formats, and seeding each triage-family backend on it (the subspace
// seed is BenchmarkSeedFit's). The allocation columns are the point:
// each step should allocate about the state it keeps.
func BenchmarkColdStart(b *testing.B) {
	topo, _, week := generated(b, "synthetic:30:45:7", 3, 1008)
	for i, v := range week.RawData() {
		week.RawData()[i] = math.Round(v) // whole bytes, as trafficgen writes them
	}
	for _, f := range []netmeas.WireFormat{{}, {Version: 2, Codec: netmeas.CodecXOR}} {
		var buf bytes.Buffer
		if err := netmeas.WriteMatrixBinaryFormat(&buf, week, f); err != nil {
			b.Fatal(err)
		}
		name := "read/v1"
		if f.Version == 2 {
			name = "read/v2-xor"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := netmeas.ReadMatrixBinary(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	routing := topo.RoutingMatrix()
	for _, kind := range []string{"ewma", "fourier", "hybrid"} {
		b.Run("seed/"+kind, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := backend.Build(backend.Spec{Kind: kind}, week, routing); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointWrite prices Monitor.Checkpoint of a one-view
// monitor at the ledger's wide scale, per backend, reporting the
// checkpoint's size beside the bytes allocated to write it.
func BenchmarkCheckpointWrite(b *testing.B) {
	topo, _, week := generated(b, "synthetic:30:45:7", 3, 1008)
	for _, kind := range []netanomaly.DetectorKind{netanomaly.DetectorSubspace, netanomaly.DetectorEWMA, netanomaly.DetectorHybrid, netanomaly.DetectorSketch} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{Workers: 1})
			defer mon.Close()
			if err := netanomaly.AddView(mon, "net", week, topo, netanomaly.WithDetector(kind)); err != nil {
				b.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := mon.Checkpoint(&ckpt); err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if err := mon.Checkpoint(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ckpt.Len()), "checkpoint-bytes")
		})
	}
}

// BenchmarkSymEig times the symmetric eigensolver at the three sizes the
// detectors hand it: the sketch backend's ell x ell Gram at 120 links
// (n = 28, once per ~14 inserted bins), and the incremental backend's
// m x m covariance at Abilene (41) and wide (120) scale.
func BenchmarkSymEig(b *testing.B) {
	for _, n := range []int{28, 41, 120} {
		rng := rand.New(rand.NewSource(int64(n)))
		y := mat.Zeros(4*n, n)
		for i := range y.RawData() {
			y.RawData()[i] = rng.NormFloat64()
		}
		g := y.Gram()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := mat.SymEig(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelFit times the full model pipeline (PCA + separation +
// Q-limit) on real link-load data — the cost of the weekly refit in
// online deployment.
func BenchmarkModelFit(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Diagnoser(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectPerBin times the per-measurement online cost: one SPE
// test against a fitted model.
func BenchmarkDetectPerBin(b *testing.B) {
	d := experiments.SprintSim1()
	diag, err := d.Diagnoser()
	if err != nil {
		b.Fatal(err)
	}
	row := d.Links.Row(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diag.Detector().Detect(row)
	}
}

// BenchmarkDiagnosePerBin times detection + identification +
// quantification for one anomalous measurement.
func BenchmarkDiagnosePerBin(b *testing.B) {
	d := experiments.SprintSim1()
	diag, err := d.Diagnoser()
	if err != nil {
		b.Fatal(err)
	}
	row := d.Links.Row(d.TrueAnomalies[0].Bin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := diag.DiagnoseAt(row); !ok {
			b.Fatal("anomaly bin must alarm")
		}
	}
}

func BenchmarkAblationSubspaceRank(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSubspaceRank(d, []int{2, 5, 10}, sweepStride*4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationConfidence(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationConfidence(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEigVsSVD(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	var diff float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEigVsSVD(d)
		if err != nil {
			b.Fatal(err)
		}
		diff = res.ProjectorDiff
	}
	b.ReportMetric(diff, "projector_diff")
}

// BenchmarkIdentify prices the identification stage on Abilene (41
// links, 121 flows) and on the end-to-end ledger's wide network
// (synthetic:30:45:7, 120 links, 900 flows): Identify, run once per
// alarmed bin; IdentifyNaive, the Equation (1) oracle it is validated
// against; and NewIdentifier, built at every refit and restore.
func BenchmarkIdentify(b *testing.B) {
	for _, name := range []string{"abilene", "synthetic:30:45:7"} {
		topo, x, loads := generated(b, name, 3, 1008)
		a := topo.RoutingMatrix()
		diag, err := core.NewDiagnoser(loads, a, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		od := x.Row(500)
		od[topo.NumFlows()/3] += 5e7
		y := traffic.LinkLoadAt(topo, od)
		id := diag.Identifier()
		b.Run(name+"/Identify", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id.Identify(y)
			}
		})
		b.Run(name+"/IdentifyNaive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id.IdentifyNaive(y)
			}
		})
		b.Run(name+"/NewIdentifier", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewIdentifier(diag.Detector().Model(), a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSPEBatch prices the per-bin SPE test, the kernel every
// subspace bin runs, on a 64-bin batch at Abilene's 41 links and the
// wide network's 120 (synthetic:30:45:7), against a model fitted on a
// 1008-bin week with the paper's rank rule.
func BenchmarkSPEBatch(b *testing.B) {
	for _, name := range []string{"abilene", "synthetic:30:45:7"} {
		topo, _, y := generated(b, name, 1, 1008+64)
		week := mat.NewDense(1008, topo.NumLinks(), y.RawData()[:1008*topo.NumLinks()])
		batch := mat.NewDense(64, topo.NumLinks(), y.RawData()[1008*topo.NumLinks():])
		diag, err := core.NewDiagnoser(week, topo.RoutingMatrix(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		model := diag.Detector().Model()
		out := make([]float64, 64)
		b.Run(fmt.Sprintf("%dlinks/rank%d", topo.NumLinks(), model.Rank()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model.SPEBatch(batch, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/bin")
		})
	}
}

// BenchmarkEigPaperSize times the covariance eigendecomposition path on a
// paper-sized matrix, the alternative Section 7.1 discusses.
func BenchmarkEigPaperSize(b *testing.B) {
	d := experiments.SprintSim1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitEig(d.Links); err != nil {
			b.Fatal(err)
		}
	}
}

// largeLinkTrace builds a paper-shaped week (1008 bins) over links
// measurement columns with diurnal low-rank structure plus noise — the
// workload profile of a large backbone, where a window refit's
// O(t·m^2) Gram starts to dominate.
func largeLinkTrace(links int) *mat.Dense {
	const bins = 1008
	rng := rand.New(rand.NewSource(9))
	amp := make([]float64, links)
	phase := make([]float64, links)
	for l := 0; l < links; l++ {
		amp[l] = 1e7 * (1 + rng.Float64())
		phase[l] = 2 * math.Pi * rng.Float64()
	}
	y := mat.Zeros(bins, links)
	for b := 0; b < bins; b++ {
		day := 2 * math.Pi * float64(b%144) / 144
		for l := 0; l < links; l++ {
			v := amp[l] * (1.2 + 0.8*math.Sin(day+phase[l]))
			y.Set(b, l, v+amp[l]*0.05*rng.NormFloat64())
		}
	}
	return y
}

// benchSinkDetector counts bins and raises nothing — the ingest
// benchmarks measure the transport and dispatch layers, not a model.
type benchSinkDetector struct {
	links int
	n     atomic.Int64
}

func (d *benchSinkDetector) Seed(*mat.Dense) error { return nil }
func (d *benchSinkDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	d.n.Add(int64(y.Rows()))
	return nil, nil
}
func (d *benchSinkDetector) Refit() error             { return nil }
func (d *benchSinkDetector) Settle() error            { return nil }
func (d *benchSinkDetector) Snapshot(io.Writer) error { return nil }
func (d *benchSinkDetector) Restore(io.Reader) error  { return nil }
func (d *benchSinkDetector) Stats() core.ViewStats {
	return core.ViewStats{Backend: "sink", Links: d.links, Processed: int(d.n.Load())}
}

// BenchmarkBinaryIngest prices one measurement bin through every ingest
// path at m = 120 into a sink detector: the CSV reference (parse the
// stream, hand the matrix to Ingest), the v1 per-bin binary format, and
// the v2 batch-framed format under both codecs (IngestBinary). The
// streams carry whole-byte loads, as cmd/trafficgen's binary path does:
// counters on the wire are integral, and integral loads are the regime
// the xor codec is built for. One op is one bin. cmd/benchjson measures
// the same four paths into BENCH_ingest.json and gates their ratios.
func BenchmarkBinaryIngest(b *testing.B) {
	const links = 120
	y := largeLinkTrace(links)
	bins := y.Rows()
	for i, v := range y.RawData() {
		y.RawData()[i] = math.Round(v)
	}
	mon := engine.NewMonitor(engine.Config{Workers: 1, BatchSize: 64, MaxPending: 256, Overload: engine.OverloadBlock})
	defer mon.Close()
	if err := mon.AddDetectorView("v", &benchSinkDetector{links: links}); err != nil {
		b.Fatal(err)
	}
	encoded := func(f netmeas.WireFormat) []byte {
		var buf bytes.Buffer
		if err := netmeas.WriteMatrixBinaryFormat(&buf, y, f); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	binary := func(payload []byte) func() error {
		return func() error {
			dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(payload))
			if err != nil {
				return err
			}
			return mon.IngestBinary("v", dec)
		}
	}
	var csvBuf bytes.Buffer
	if err := netanomaly.WriteMatrixCSV(&csvBuf, y, nil); err != nil {
		b.Fatal(err)
	}
	paths := []struct {
		name   string
		stream func() error
	}{
		{"csv", func() error {
			m, _, err := netanomaly.ReadMatrixCSV(bytes.NewReader(csvBuf.Bytes()))
			if err != nil {
				return err
			}
			return mon.Ingest("v", m)
		}},
		{"v1", binary(encoded(netmeas.WireFormat{}))},
		{"v2-raw", binary(encoded(netmeas.WireFormat{Version: 2, Codec: netmeas.CodecRaw, BatchBins: 64}))},
		{"v2-xor", binary(encoded(netmeas.WireFormat{Version: 2, Codec: netmeas.CodecXOR, BatchBins: 64}))},
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for fed := 0; fed < b.N; fed += bins {
				if err := p.stream(); err != nil {
					b.Fatal(err)
				}
				mon.Flush()
			}
		})
	}
}

// BenchmarkRefit prices a streaming shard's model upkeep at m = 120 over
// a 1008-bin week, per covariance strategy. The -eig and window-refit
// legs each produce a ready subspace model of rank 5, so their ns/op
// compare directly: the window backend's refit (copy the window, solve
// its centered Gram, build the model), the incremental backend's m x m
// tracked-covariance eigensolve, and the sketch backend's l x l
// Frequent-Directions eigenproblem (l = 4x rank). The update legs price
// what each estimator pays per 64-bin batch to keep its refit available,
// and sketch-insert one streamed row's fold. cmd/benchjson prices the
// covtracker and sketch refits and the offline SVD fit into
// BENCH_sketch.json and gates the sketch-to-covtracker ratio.
func BenchmarkRefit(b *testing.B) {
	const links, rank = 120, 5
	y := largeLinkTrace(links)
	chunk := mat.NewDense(64, links, y.RawData()[:64*links])

	b.Run("window-refit", func(b *testing.B) {
		// Identity routing keeps identification out of the price.
		det, err := backend.Build(backend.Spec{Kind: "subspace", Options: core.Options{Rank: rank}}, y, mat.Identity(links))
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if err := det.Refit(); err != nil {
				b.Fatal(err)
			}
		}
	})

	tracked := func(b *testing.B, lambda float64) *core.CovTracker {
		tr, err := core.NewCovTracker(links, lambda)
		if err != nil {
			b.Fatal(err)
		}
		tr.UpdateAll(y)
		return tr
	}
	b.Run("covtracker-eig", func(b *testing.B) {
		tr := tracked(b, 1)
		for b.Loop() {
			if _, err := tr.Model(rank); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("covtracker-update-batch", func(b *testing.B) {
		tr := tracked(b, 0.999)
		b.ReportAllocs()
		for b.Loop() {
			tr.UpdateAll(chunk)
		}
	})

	sketched := func(b *testing.B, ell int) *core.FDSketch {
		sk, err := core.NewFDSketch(links, ell)
		if err != nil {
			b.Fatal(err)
		}
		if err := sk.InsertAll(y); err != nil { // builds the workspace
			b.Fatal(err)
		}
		return sk
	}
	b.Run("sketch-eig", func(b *testing.B) {
		sk := sketched(b, 4*rank)
		for b.Loop() {
			p, span, err := sk.PCA()
			if err != nil {
				b.Fatal(err)
			}
			if span < rank {
				b.Fatalf("sketch spans %d directions, need %d", span, rank)
			}
			if _, err := core.Build(p, rank); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sketch-update-batch", func(b *testing.B) {
		sk := sketched(b, 4*rank)
		b.ReportAllocs()
		for b.Loop() {
			if err := sk.InsertAll(chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sketch-insert", func(b *testing.B) {
		// At the ell = 28 a rank-7 model sizes the sketch to: the
		// running-mean update plus its share of the shrinks, each an
		// ell x ell Gram, eigensolve and rebuild.
		sk := sketched(b, 28)
		shrinks := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			before := sk.Occupancy()
			if err := sk.Insert(y.RowView(i % y.Rows())); err != nil {
				b.Fatal(err)
			}
			if sk.Occupancy() <= before {
				shrinks++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
		b.ReportMetric(float64(shrinks)/float64(b.N), "shrinks/row")
	})
}

// BenchmarkCovTrackerUpdate times the per-bin cost of the incremental
// model maintenance of Section 7.1 (rank-1 covariance update).
func BenchmarkCovTrackerUpdate(b *testing.B) {
	d := experiments.SprintSim1()
	_, dim := d.Links.Dims()
	tr, err := core.NewCovTracker(dim, 0.999)
	if err != nil {
		b.Fatal(err)
	}
	row := d.Links.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Update(row)
	}
}

// BenchmarkCovTrackerRefresh times the on-demand model rebuild from
// tracked state (the m x m eigenproblem), the cheap alternative to a
// full-window refit.
func BenchmarkCovTrackerRefresh(b *testing.B) {
	d := experiments.SprintSim1()
	_, dim := d.Links.Dims()
	tr, err := core.NewCovTracker(dim, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr.UpdateAll(d.Links)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Model(5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiscaleDetector times fitting and scanning the Section 7.3
// wavelet-domain detector at three scales on a paper-sized week.
func BenchmarkMultiscaleDetector(b *testing.B) {
	// 1024 bins (dyadic) on Abilene.
	topo := experiments.AbileneSim().Topo
	y := mat.Zeros(1024, topo.NumLinks())
	links := experiments.AbileneSim().Links
	for bi := 0; bi < 1008; bi++ {
		y.SetRow(bi, links.RowView(bi))
	}
	for bi := 1008; bi < 1024; bi++ {
		y.SetRow(bi, links.RowView(bi-144))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md, err := wavelet.NewMultiscaleDetector(y, 3, 0.999)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := md.Detect(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorThroughput compares the engine's batched multi-shard
// hot path against the per-bin serial OnlineDetector on the same
// Abilene-scale workload. Both sub-benchmarks process one measurement
// bin per op, so their ns/op are directly comparable. The batched
// low-rank SPE kernel never builds a residual vector, where the serial
// path projects and allocates one per bin; nothing checks the ratio.
func BenchmarkMonitorThroughput(b *testing.B) {
	d := experiments.AbileneSim()
	routing := d.Topo.RoutingMatrix()
	links := d.Links
	bins, m := links.Dims()
	subspace := func(b *testing.B) *core.OnlineDetector {
		det, err := backend.Build(backend.Spec{Kind: "subspace"}, links, routing)
		if err != nil {
			b.Fatal(err)
		}
		return det.(*core.OnlineDetector)
	}

	b.Run("serial-baseline", func(b *testing.B) {
		od := subspace(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := od.Process(links.RowView(i % bins)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("monitor-4shards", func(b *testing.B) {
		const batch = 64
		mon := engine.NewMonitor(engine.Config{
			Workers:   4,
			BatchSize: batch,
			OnAlarm:   func(engine.Alarm) {},
		})
		views := make([]string, 4)
		for s := range views {
			views[s] = fmt.Sprintf("view-%d", s)
			if err := mon.AddDetectorView(views[s], subspace(b)); err != nil {
				b.Fatal(err)
			}
		}
		data := links.RawData()
		b.ResetTimer()
		for fed, turn := 0, 0; fed < b.N; turn++ {
			n := batch
			if b.N-fed < n {
				n = b.N - fed
			}
			r0 := (turn * batch) % (bins - batch)
			chunk := mat.NewDense(n, m, data[r0*m:(r0+n)*m])
			if err := mon.Ingest(views[turn%len(views)], chunk); err != nil {
				b.Fatal(err)
			}
			fed += n
		}
		mon.Flush()
		b.StopTimer()
		mon.Close()
	})
}

// BenchmarkForecastProcessBatch times the forecast backends' streaming
// hot path — per-link prediction, residual scoring against adaptive
// thresholds, and state update — in 64-bin batches over the Abilene
// trace, reporting bins/sec per kind. The forecast model is the
// cheapest in the backend family (no matrix pass at all for the
// smoothing kinds), which is what makes per-bin refit experiments
// affordable; a regression here erases that advantage.
func BenchmarkForecastProcessBatch(b *testing.B) {
	b.ReportAllocs()
	links := experiments.AbileneSim().Links
	for _, kind := range []forecast.Kind{forecast.EWMA, forecast.HoltWinters, forecast.Fourier} {
		b.Run(string(kind), func(b *testing.B) {
			det, err := forecast.NewDetector(links, forecast.Config{Kind: kind})
			if err != nil {
				b.Fatal(err)
			}
			feed(b, det, links)
		})
	}
}

// BenchmarkHybridThroughput prices the hybrid triage→identification
// backend against its two ingredients on an anomaly-free Abilene-scale
// stream. Every sub-benchmark processes one measurement bin per op in
// 64-bin batches, so ns/op are directly comparable; the hybrid has
// measured ~1.1x the forecast-only cost (the median of ten alternating
// rounds on a shared 2-vCPU Xeon, rounds ranging 1.0-1.35x). On a clean
// stream the triage stage never escalates, so the hybrid's steady state
// is the EWMA recursion plus batch bookkeeping; the hybrid leg fails if
// more than 1% of clean bins leak through to the subspace stage. The
// subspace-only row is the reference point: with refits disabled the
// batched low-rank SPE kernel is itself cheap at 41 links — what the
// hybrid saves is not this kernel but everything around it (the
// O(t·m^2) window-refit treadmill, per-view window maintenance) while
// still carrying subspace-grade Flow attribution on every escalated bin.
func BenchmarkHybridThroughput(b *testing.B) {
	b.ReportAllocs()
	y := largeLinkTrace(41)
	routing := topology.Abilene().RoutingMatrix()
	for _, leg := range []struct{ name, kind string }{
		{"forecast-only", "ewma"}, {"hybrid", "hybrid"}, {"subspace-only", "subspace"},
	} {
		b.Run(leg.name, func(b *testing.B) {
			det, err := backend.Build(backend.Spec{Kind: leg.kind}, y, routing)
			if err != nil {
				b.Fatal(err)
			}
			feed(b, det, y)
			if h, ok := det.(*core.HybridDetector); ok {
				if hs := h.HybridStats(); hs.Escalated > hs.Triage.Processed/100 {
					b.Fatalf("clean stream escalated %d of %d bins; the hybrid is not idling its subspace stage", hs.Escalated, hs.Triage.Processed)
				}
			}
		})
	}
}

// BenchmarkMultiFlowIdentification times the Theta-matrix identification
// of Section 7.2 over one candidate set per destination PoP.
func BenchmarkMultiFlowIdentification(b *testing.B) {
	d := experiments.AbileneSim()
	diag, err := d.Diagnoser()
	if err != nil {
		b.Fatal(err)
	}
	topo := d.Topo
	candidates := make([][]int, topo.NumPoPs())
	for dst := 0; dst < topo.NumPoPs(); dst++ {
		for org := 0; org < topo.NumPoPs(); org++ {
			if org != dst {
				candidates[dst] = append(candidates[dst], topo.FlowID(org, dst))
			}
		}
	}
	row := d.Links.Row(d.TrueAnomalies[0].Bin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diag.Identifier().IdentifyMulti(row, candidates)
	}
}

// BenchmarkSnapshotRestore prices the checkpoint path per backend on
// the Abilene-scale model: one op is Snapshot into a reused buffer plus
// Restore into a second detector that backend.Build seeded separately —
// the full state migration a warm restart performs. snapshot-bytes
// reports the envelope size, the quantity an operator budgets
// checkpoint storage and transfer by; cmd/benchjson measures the same
// path at m = 120 into BENCH_snapshot.json and gates it. The warm-start
// legs time the in-process half of a daemon restart at the ledger's wide
// scale (synthetic:30:45:7, 120 links): one op is netanomaly.Restore of
// a one-view monitor checkpoint — detector construction, decode and view
// registration — and the monitor's Close — and reports what it
// allocates: one read of the checkpoint, then each float decoded
// straight into the state that keeps it.
func BenchmarkSnapshotRestore(b *testing.B) {
	d := experiments.AbileneSim()
	routing := d.Topo.RoutingMatrix()
	for _, kind := range []string{"subspace", "incremental", "sketch", "ewma", "hybrid"} {
		b.Run(kind, func(b *testing.B) {
			src, err := backend.Build(backend.Spec{Kind: kind}, d.Links, routing)
			if err != nil {
				b.Fatal(err)
			}
			dst, err := backend.Build(backend.Spec{Kind: kind}, d.Links, routing)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := src.Snapshot(&buf); err != nil {
					b.Fatal(err)
				}
				if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
		})
	}

	topo, _, week := generated(b, "synthetic:30:45:7", 3, 1008)
	monCfg := netanomaly.MonitorConfig{Workers: 1}
	for _, kind := range []netanomaly.DetectorKind{netanomaly.DetectorSubspace, netanomaly.DetectorSketch} {
		b.Run("warm-start/"+string(kind), func(b *testing.B) {
			b.ReportAllocs()
			opts := []netanomaly.ViewOption{netanomaly.WithDetector(kind)}
			mon := netanomaly.NewMonitor(monCfg)
			if err := netanomaly.AddView(mon, "net", week, topo, opts...); err != nil {
				b.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := mon.Checkpoint(&ckpt); err != nil {
				b.Fatal(err)
			}
			mon.Close()
			views := []netanomaly.ViewSpec{{Name: "net", Topo: topo, Options: opts}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restored, err := netanomaly.Restore(monCfg, bytes.NewReader(ckpt.Bytes()), views)
				if err != nil {
					b.Fatal(err)
				}
				restored.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(ckpt.Len()), "snapshot-bytes")
		})
	}
}

// BenchmarkAlarmPath splits a 64-bin batch's cost at the ledger's wide
// scale (synthetic:30:45:7, 120 links, 900 flows) into what stands
// between the batch and its alarms — ProcessBatch — and the model upkeep
// the detector does after they are out — Settle, the covariance fold the
// sketch and incremental estimators defer. Both are reported in ns per
// batch; refits are off, so neither includes a model fit.
func BenchmarkAlarmPath(b *testing.B) {
	const historyBins, streamBins, batch = 1008, 1024, 64
	topo, _, y := generated(b, "synthetic:30:45:7", 3, historyBins+streamBins)
	links := y.Cols()
	history := mat.NewDense(historyBins, links, y.RawData()[:historyBins*links])
	stream := y.RawData()[historyBins*links:]
	for _, kind := range []string{"subspace", "incremental", "sketch"} {
		b.Run(kind, func(b *testing.B) {
			det, err := backend.Build(backend.Spec{Kind: kind}, history, topo.RoutingMatrix())
			if err != nil {
				b.Fatal(err)
			}
			online := det.(*core.OnlineDetector)
			var process, settle time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i % (streamBins / batch)) * batch * links
				chunk := mat.NewDense(batch, links, stream[off:off+batch*links])
				start := time.Now()
				if _, err := online.ProcessBatch(chunk); err != nil {
					b.Fatal(err)
				}
				alarmed := time.Now()
				if err := online.Settle(); err != nil {
					b.Fatal(err)
				}
				process += alarmed.Sub(start)
				settle += time.Since(alarmed)
			}
			b.ReportMetric(float64(process.Nanoseconds())/float64(b.N), "process-ns/batch")
			b.ReportMetric(float64(settle.Nanoseconds())/float64(b.N), "settle-ns/batch")
		})
	}
}
