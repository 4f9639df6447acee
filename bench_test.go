// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus the ablations listed in DESIGN.md and the
// computational claim of Section 7.1. Each benchmark runs the complete
// experiment per iteration and reports the headline quantity of the
// corresponding table or figure as a custom metric, so `go test -bench=.`
// both times the pipeline and reproduces the results.
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
		topo, err := topology.Parse(name)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := traffic.NewGenerator(topo, traffic.DefaultConfig(3))
		if err != nil {
			b.Fatal(err)
		}
		history := traffic.LinkLoads(topo, gen.Generate())
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

// BenchmarkAblationIdentification compares the closed-form identification
// scan (one sparse dot per flow, O(nnz(A))) against the literal
// Equation (1) recomputation (O(flows x links x rank)) on one measurement.
func BenchmarkAblationIdentification(b *testing.B) {
	d := experiments.SprintSim1()
	diag, err := d.Diagnoser()
	if err != nil {
		b.Fatal(err)
	}
	row := d.Links.Row(d.TrueAnomalies[0].Bin)
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			diag.Identifier().Identify(row)
		}
	})
	b.Run("equation-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			diag.Identifier().IdentifyNaive(row)
		}
	})
}

// BenchmarkIdentify prices the identification stage on Abilene (41
// links, 121 flows) and on the end-to-end ledger's wide network
// (synthetic:30:45:7, 120 links, 900 flows): Identify, run once per
// alarmed bin; IdentifyNaive, the Equation (1) oracle it is validated
// against; and NewIdentifier, built at every refit and restore.
func BenchmarkIdentify(b *testing.B) {
	for _, name := range []string{"abilene", "synthetic:30:45:7"} {
		topo, err := topology.Parse(name)
		if err != nil {
			b.Fatal(err)
		}
		cfg := traffic.DefaultConfig(3)
		cfg.Bins = 1008
		gen, err := traffic.NewGenerator(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		x := gen.Generate()
		a := topo.RoutingMatrix()
		diag, err := core.NewDiagnoser(traffic.LinkLoads(topo, x), a, core.Options{})
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
func (d *benchSinkDetector) WaitRefits()              {}
func (d *benchSinkDetector) TakeRefitError() error    { return nil }
func (d *benchSinkDetector) Snapshot(io.Writer) error { return nil }
func (d *benchSinkDetector) Restore(io.Reader) error  { return nil }
func (d *benchSinkDetector) Stats() core.ViewStats {
	return core.ViewStats{Backend: "sink", Links: d.links, Processed: int(d.n.Load())}
}

// BenchmarkBinaryIngest prices one measurement bin through every
// ingest path at m = 120: the CSV reference (parse the stream, hand
// the matrix to Ingest), the v1 per-bin binary format, and the v2
// batch-framed format under both codecs (IngestBinary throughout).
// The binary streams carry whole-byte loads, mirroring
// cmd/trafficgen's binary path — counters on the wire are integral,
// and integral loads are the regime the xor codec is built for.
//
// One op is one bin; the timed loop runs the v2 raw path (the format
// cmd/trafficgen now emits by default for batch framing). The rest are
// measured as references, and the benchmark fails itself on any of the
// format's capability gates:
//
//   - v2 raw >= 5x the CSV path and >= 1.5x v1 ns/bin,
//   - v2 batching cuts decoder read calls per bin by >= 10x vs v1,
//   - xor decodes within 1.3x of the v1 raw-decode baseline, and
//     within 2.2x of v2 raw as a regression guard. The v2 raw path
//     reads payload bytes straight into the destination floats, so its
//     decode is a memcpy plus a finiteness scan — no decompressor can
//     price within 30% of that, and the codec's CPU budget is instead
//     held to the per-bin raw decode it was specified against (it
//     currently beats that baseline outright),
//   - xor carries the trafficgen Abilene diurnal week in <= half the
//     bytes/bin of raw (measured on that exact scenario, so the ratio
//     is a deterministic property of the codec, not of this machine),
//   - steady-state ingest stays under 0.05 heap allocations per bin
//     (one stream amortizes its decoder setup over 1008 bins; the
//     engine's own suite pins the pooled path at <= 0.01 across
//     streams).
//
// The timing gates are capability claims, so a noisy shared-runner
// sample must not fail CI by itself: each is re-attempted and only a
// ratio that misses every independent attempt fails the benchmark.
// The committed BENCH_ingest.json trajectory holds these numbers per
// PR.
func BenchmarkBinaryIngest(b *testing.B) {
	const links = 120
	const batchBins = 64
	y := largeLinkTrace(links)
	bins := y.Rows()
	yraw := y.RawData()
	for i, v := range yraw {
		yraw[i] = math.Round(v)
	}

	var v1Buf, v2RawBuf, v2XORBuf, csvBuf bytes.Buffer
	if err := netmeas.WriteMatrixBinary(&v1Buf, y); err != nil {
		b.Fatal(err)
	}
	if err := netmeas.WriteMatrixBinaryFormat(&v2RawBuf, y, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecRaw, BatchBins: batchBins}); err != nil {
		b.Fatal(err)
	}
	if err := netmeas.WriteMatrixBinaryFormat(&v2XORBuf, y, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecXOR, BatchBins: batchBins}); err != nil {
		b.Fatal(err)
	}
	if err := netanomaly.WriteMatrixCSV(&csvBuf, y, nil); err != nil {
		b.Fatal(err)
	}
	csvBytes := csvBuf.Bytes()

	mon := engine.NewMonitor(engine.Config{Workers: 1, BatchSize: 64, MaxPending: 256, Overload: engine.OverloadBlock})
	defer mon.Close()
	if err := mon.AddDetectorView("v", &benchSinkDetector{links: links}); err != nil {
		b.Fatal(err)
	}
	var readCalls int64
	stream := func(payload []byte) func() {
		return func() {
			dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			if err := mon.IngestBinary("v", dec); err != nil {
				b.Fatal(err)
			}
			mon.Flush()
			readCalls = dec.ReadCalls()
		}
	}
	v1Stream := stream(v1Buf.Bytes())
	v2RawStream := stream(v2RawBuf.Bytes())
	v2XORStream := stream(v2XORBuf.Bytes())
	csvStream := func() {
		m, _, err := netanomaly.ReadMatrixCSV(bytes.NewReader(csvBytes))
		if err != nil {
			b.Fatal(err)
		}
		if err := mon.Ingest("v", m); err != nil {
			b.Fatal(err)
		}
		mon.Flush()
	}
	// ns/bin for one path, best of reps — each rep feeds the whole
	// 1008-bin week, so a single sample is already well averaged.
	perBin := func(stream func()) float64 {
		const reps = 3
		best := math.Inf(1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			stream()
			if t := time.Since(start).Seconds() / float64(bins); t < best {
				best = t
			}
		}
		return best
	}

	v1Stream() // warm the pools and the queue's backing arrays
	v2RawStream()
	v2XORStream()
	csvStream()

	// Deterministic gates first: read amplification and wire size do not
	// depend on the machine.
	v1Stream()
	v1Reads := float64(readCalls) / float64(bins)
	v2RawStream()
	v2Reads := float64(readCalls) / float64(bins)
	if v1Reads < 10*v2Reads {
		b.Fatalf("v2 batch framing only cuts read calls %.1fx (v1 %.3f/bin, v2 %.4f/bin), want >= 10x",
			v1Reads/v2Reads, v1Reads, v2Reads)
	}
	xorBytesPerBin, rawBytesPerBin := trafficgenWireBytesPerBin(b, batchBins)
	if xorBytesPerBin > rawBytesPerBin/2 {
		b.Fatalf("xor codec carries the trafficgen diurnal week at %.0f bytes/bin vs raw %.0f, want <= half",
			xorBytesPerBin, rawBytesPerBin)
	}
	if perStream := testing.AllocsPerRun(3, v2RawStream); perStream/float64(bins) > 0.05 {
		b.Fatalf("v2 ingest allocates %.4f heap objects per bin at steady state, want <= 0.05", perStream/float64(bins))
	}

	const attempts = 3
	var v1PerBin, v2PerBin, xorPerBin, csvPerBin float64
	ok := false
	for a := 0; a < attempts && !ok; a++ {
		csvPerBin = perBin(csvStream)
		v1PerBin = perBin(v1Stream)
		v2PerBin = perBin(v2RawStream)
		xorPerBin = perBin(v2XORStream)
		ok = csvPerBin/v2PerBin >= 5 && v1PerBin/v2PerBin >= 1.5 &&
			xorPerBin/v1PerBin <= 1.3 && xorPerBin/v2PerBin <= 2.2
	}
	if !ok {
		b.Fatalf("binary format gates failed in all %d attempts: v2 raw %.1fx CSV (want >= 5), %.2fx v1 (want >= 1.5), xor/v1 ns ratio %.2f (want <= 1.3), xor/raw ns ratio %.2f (want <= 2.2) [csv %.0f, v1 %.0f, v2 raw %.0f, v2 xor %.0f ns/bin]",
			attempts, csvPerBin/v2PerBin, v1PerBin/v2PerBin, xorPerBin/v1PerBin, xorPerBin/v2PerBin,
			csvPerBin*1e9, v1PerBin*1e9, v2PerBin*1e9, xorPerBin*1e9)
	}

	b.ReportAllocs()
	b.ResetTimer()
	fed := 0
	for fed < b.N {
		v2RawStream()
		fed += bins
	}
	b.StopTimer()
	timedPerBin := b.Elapsed().Seconds() / float64(fed)
	b.ReportMetric(csvPerBin/timedPerBin, "x_vs_csv")
	b.ReportMetric(v1PerBin/timedPerBin, "x_vs_v1")
	b.ReportMetric(xorPerBin/v2PerBin, "xor_ns_ratio")
	b.ReportMetric(rawBytesPerBin/xorBytesPerBin, "xor_compression")
	b.ReportMetric(v1Reads/v2Reads, "read_reduction")
	b.ReportMetric(1/timedPerBin, "bins/sec")
}

// trafficgenWireBytesPerBin encodes the exact link-load stream
// cmd/trafficgen emits for the Abilene diurnal week at seed 5 (loads
// rounded to whole bytes, as its binary path does) under both v2
// codecs and returns their bytes/bin. Generation is deterministic in
// the seed, so these are fixed properties of the codec.
func trafficgenWireBytesPerBin(b *testing.B, batchBins int) (xor, raw float64) {
	b.Helper()
	topo := netanomaly.Abilene()
	od, err := netanomaly.GenerateTraffic(topo, netanomaly.DefaultTrafficConfig(5))
	if err != nil {
		b.Fatal(err)
	}
	loads := netanomaly.LinkLoads(topo, od)
	data := loads.RawData()
	for i, v := range data {
		data[i] = math.Round(v)
	}
	bins := loads.Rows()
	var rawBuf, xorBuf bytes.Buffer
	if err := netmeas.WriteMatrixBinaryFormat(&rawBuf, loads, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecRaw, BatchBins: batchBins}); err != nil {
		b.Fatal(err)
	}
	if err := netmeas.WriteMatrixBinaryFormat(&xorBuf, loads, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecXOR, BatchBins: batchBins}); err != nil {
		b.Fatal(err)
	}
	return float64(xorBuf.Len()) / float64(bins), float64(rawBuf.Len()) / float64(bins)
}

// windowRefit runs the subspace backend's explicit model rebuild at a
// pinned rank over a full window of y: copy the window, solve its
// centered Gram, build the model. Identity routing keeps identification
// out of the price.
func windowRefit(b *testing.B, y *mat.Dense, rank int) {
	det, err := seeded(core.NewOnlineDetector(mat.Identity(y.Cols()), core.OnlineConfig{
		Window: y.Rows(), Options: core.Options{Rank: rank},
	}))(y)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := det.Refit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchRefit prices a streaming shard's model rebuild at
// m = 120 across the three covariance strategies: the window backend's
// Gram eigensolve over 1008 bins, the incremental backend's m x m
// tracked-covariance eigensolve, and the sketch backend's l x l
// Frequent-Directions eigenproblem (l = 4x rank). Every sub-benchmark
// produces a ready subspace model of the same rank, so ns/op are
// directly comparable; the committed BENCH_sketch.json trajectory
// records the ratios per PR.
func BenchmarkSketchRefit(b *testing.B) {
	const links, rank = 120, 5
	y := largeLinkTrace(links)

	b.Run("window-refit", func(b *testing.B) { windowRefit(b, y, rank) })

	b.Run("covtracker-eig", func(b *testing.B) {
		tr, err := core.NewCovTracker(links, 1)
		if err != nil {
			b.Fatal(err)
		}
		tr.UpdateAll(y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Model(rank); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("sketch-eig", func(b *testing.B) {
		sk, err := core.NewFDSketch(links, 4*rank)
		if err != nil {
			b.Fatal(err)
		}
		if err := sk.InsertAll(y); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
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

	b.Run("sketch-insert", func(b *testing.B) {
		// One streamed row's Frequent-Directions fold at the ell = 28 a
		// rank-7 model sizes the sketch to: the running-mean update plus
		// its share of the shrinks, each an ell x ell Gram, eigensolve
		// and rebuild.
		const ell = 28
		sk, err := core.NewFDSketch(links, ell)
		if err != nil {
			b.Fatal(err)
		}
		if err := sk.InsertAll(y); err != nil { // builds the workspace
			b.Fatal(err)
		}
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

	b.Run("sketch-update-batch", func(b *testing.B) {
		// The amortized per-batch price the sketch pays to keep its
		// cheap refit available — the counterpart of the incremental
		// backend's covtracker-update-batch row.
		sk, err := core.NewFDSketch(links, 4*rank)
		if err != nil {
			b.Fatal(err)
		}
		if err := sk.InsertAll(y); err != nil {
			b.Fatal(err)
		}
		chunk := mat.NewDense(64, links, y.RawData()[:64*links])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sk.InsertAll(chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalRefit compares the two ways a streaming shard can
// rebuild its model on an m >= 100 link trace: the subspace backend's
// refit over the 1008-bin window (a window copy, the O(t·m^2) centered
// Gram, then the m x m eigensolve) versus the incremental backend's
// eigensolve on the tracked m x m covariance (no window snapshot, no
// Gram). Both sub-benchmarks produce a ready subspace model of the same
// rank, so ns/op are directly comparable; the acceptance bar is the
// covtracker path winning at this scale. The update-batch sub-benchmark
// prices the amortized cost the tracker pays per 64-bin batch to keep
// that cheap refit available (report: 0 allocs — all scratch is
// preallocated).
func BenchmarkIncrementalRefit(b *testing.B) {
	const links, rank = 120, 5
	y := largeLinkTrace(links)

	b.Run("window-refit", func(b *testing.B) { windowRefit(b, y, rank) })

	b.Run("covtracker-eig", func(b *testing.B) {
		tr, err := core.NewCovTracker(links, 1)
		if err != nil {
			b.Fatal(err)
		}
		tr.UpdateAll(y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Model(rank); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("covtracker-update-batch", func(b *testing.B) {
		tr, err := core.NewCovTracker(links, 0.999)
		if err != nil {
			b.Fatal(err)
		}
		tr.UpdateAll(y)
		chunk := mat.NewDense(64, links, y.RawData()[:64*links])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.UpdateAll(chunk)
		}
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
// bin per op, so their ns/op are directly comparable: the monitor path
// must be at least 3x the serial baseline's throughput (the batched
// low-rank SPE kernel never builds a residual vector, where the serial
// path projects and allocates one per bin, on top of lock-free model
// reads).
func BenchmarkMonitorThroughput(b *testing.B) {
	d := experiments.AbileneSim()
	topo := d.Topo
	links := d.Links
	bins, m := links.Dims()

	b.Run("serial-baseline", func(b *testing.B) {
		od, err := seeded(core.NewOnlineDetector(topo.RoutingMatrix(), core.OnlineConfig{Window: bins}))(links)
		if err != nil {
			b.Fatal(err)
		}
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
			det, err := seeded(core.NewOnlineDetector(topo.RoutingMatrix(), core.OnlineConfig{Window: links.Rows()}))(links)
			if err != nil {
				b.Fatal(err)
			}
			if err := mon.AddDetectorView(views[s], det); err != nil {
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
	d := experiments.AbileneSim()
	links := d.Links
	bins, m := links.Dims()
	const batch = 64
	for _, kind := range []forecast.Kind{forecast.EWMA, forecast.HoltWinters, forecast.Fourier} {
		b.Run(string(kind), func(b *testing.B) {
			det, err := forecast.NewDetector(links, forecast.Config{Kind: kind})
			if err != nil {
				b.Fatal(err)
			}
			data := links.RawData()
			b.ResetTimer()
			fed := 0
			for turn := 0; fed < b.N; turn++ {
				n := batch
				if b.N-fed < n {
					n = b.N - fed
				}
				r0 := (turn * batch) % (bins - batch)
				chunk := mat.NewDense(n, m, data[r0*m:(r0+n)*m])
				if _, err := det.ProcessBatch(chunk); err != nil {
					b.Fatal(err)
				}
				fed += n
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "bins/sec")
			}
		})
	}
}

// BenchmarkHybridThroughput prices the hybrid triage→identification
// backend against its two ingredients on an anomaly-free Abilene-scale
// stream. Every sub-benchmark processes one measurement bin per op in
// 64-bin batches, so ns/op are directly comparable. The acceptance bar
// is the hybrid staying within ~1.5x of the forecast-only cost
// (measured ~1.06x): on a clean stream the triage stage never
// escalates, so the hybrid's steady state is the EWMA recursion plus
// batch bookkeeping, and the sub-benchmark fails if more than 1% of
// clean bins leak through to the subspace stage. The subspace-only row
// is the reference point: with refits disabled the batched low-rank
// SPE kernel is itself cheap at 41 links — what the hybrid saves is
// not this kernel but everything around it (the O(t·m^2) window-refit
// treadmill, per-view window maintenance) while still carrying
// subspace-grade Flow attribution on every escalated bin.
func BenchmarkHybridThroughput(b *testing.B) {
	const links = 41
	y := largeLinkTrace(links)
	bins, m := y.Dims()
	routing := topology.Abilene().RoutingMatrix()
	const batch = 64

	feed := func(b *testing.B, det core.ViewDetector) {
		data := y.RawData()
		b.ResetTimer()
		fed := 0
		for turn := 0; fed < b.N; turn++ {
			n := batch
			if b.N-fed < n {
				n = b.N - fed
			}
			r0 := (turn * batch) % (bins - batch)
			chunk := mat.NewDense(n, m, data[r0*m:(r0+n)*m])
			if _, err := det.ProcessBatch(chunk); err != nil {
				b.Fatal(err)
			}
			fed += n
		}
		b.StopTimer()
		if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
			b.ReportMetric(float64(b.N)/elapsed, "bins/sec")
		}
	}

	b.Run("forecast-only", func(b *testing.B) {
		det, err := forecast.NewDetector(y, forecast.Config{Kind: forecast.EWMA})
		if err != nil {
			b.Fatal(err)
		}
		feed(b, det)
	})

	b.Run("hybrid", func(b *testing.B) {
		triage, err := forecast.New(y.Cols(), forecast.Config{Kind: forecast.EWMA})
		if err != nil {
			b.Fatal(err)
		}
		identify, err := core.NewOnlineDetector(routing, core.OnlineConfig{Window: bins})
		if err != nil {
			b.Fatal(err)
		}
		det, err := seeded(core.NewHybridDetector(triage, identify, core.HybridConfig{}))(y)
		if err != nil {
			b.Fatal(err)
		}
		feed(b, det)
		if hs := det.HybridStats(); hs.Escalated > hs.Triage.Processed/100 {
			b.Fatalf("clean stream escalated %d of %d bins; the hybrid is not idling its subspace stage", hs.Escalated, hs.Triage.Processed)
		}
	})

	b.Run("subspace-only", func(b *testing.B) {
		det, err := seeded(core.NewOnlineDetector(routing, core.OnlineConfig{Window: bins}))(y)
		if err != nil {
			b.Fatal(err)
		}
		feed(b, det)
	})
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
// Restore into a second, separately constructed detector — the full
// state migration a warm restart performs. snapshot-bytes reports the
// envelope size, the quantity an operator budgets checkpoint storage
// and transfer by; cmd/benchjson gates both against the committed
// BENCH_snapshot.json baselines. The warm-start legs time the
// in-process half of a daemon restart at the ledger's wide scale
// (synthetic:30:45:7, 120 links): one op is netanomaly.Restore of a
// one-view monitor checkpoint — detector construction, decode and view
// registration — and the monitor's Close.
func BenchmarkSnapshotRestore(b *testing.B) {
	d := experiments.AbileneSim()
	links := d.Links
	bins, _ := links.Dims()
	routing := d.Topo.RoutingMatrix()
	builders := []struct {
		name  string
		build func() (core.ViewDetector, error)
	}{
		{"subspace", func() (core.ViewDetector, error) {
			return seeded(core.NewOnlineDetector(routing, core.OnlineConfig{Window: bins}))(links)
		}},
		{"incremental", func() (core.ViewDetector, error) {
			return seeded(core.NewIncrementalDetector(routing, core.IncrementalConfig{}))(links)
		}},
		{"sketch", func() (core.ViewDetector, error) {
			return seeded(core.NewSketchDetector(routing, core.SketchConfig{}))(links)
		}},
		{"ewma", func() (core.ViewDetector, error) {
			return forecast.NewDetector(links, forecast.Config{Kind: forecast.EWMA})
		}},
		{"hybrid", func() (core.ViewDetector, error) {
			triage, err := forecast.New(links.Cols(), forecast.Config{Kind: forecast.EWMA})
			if err != nil {
				return nil, err
			}
			identify, err := core.NewOnlineDetector(routing, core.OnlineConfig{Window: bins})
			if err != nil {
				return nil, err
			}
			return seeded(core.NewHybridDetector(triage, identify, core.HybridConfig{}))(links)
		}},
	}
	for _, bl := range builders {
		b.Run(bl.name, func(b *testing.B) {
			src, err := bl.build()
			if err != nil {
				b.Fatal(err)
			}
			dst, err := bl.build()
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

	topo, err := topology.Parse("synthetic:30:45:7")
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultConfig(3)
	cfg.Bins = 1008
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	week := traffic.LinkLoads(topo, gen.Generate())
	monCfg := netanomaly.MonitorConfig{Workers: 1}
	for _, kind := range []netanomaly.DetectorKind{netanomaly.DetectorSubspace, netanomaly.DetectorSketch} {
		b.Run("warm-start/"+string(kind), func(b *testing.B) {
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
	topo, err := topology.Parse("synthetic:30:45:7")
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultConfig(3)
	cfg.Bins = historyBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	y := traffic.LinkLoads(topo, gen.Generate())
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
