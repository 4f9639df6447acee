// Command benchjson measures the ingest and refit kernels behind the
// repo's committed benchmark trajectory and writes the results as
// stable JSON: BENCH_ingest.json (CSV path versus v1 per-bin binary
// versus v2 batch-framed binary under both codecs at m = 120 —
// ns/bin, read calls per bin, wire bytes/bin on the trafficgen Abilene
// scenario, allocations per bin) and BENCH_sketch.json (sketch versus
// incremental refit cost and the offline full-SVD fit, plus detection
// agreement between the sketch and incremental backends on the spike
// scenario)
// and BENCH_snapshot.json (per-backend checkpoint envelope size plus
// snapshot/restore/re-seed cost at m = 120, the currency of the
// ingestd -checkpoint path). Each timing is the median of 15 samples,
// taken in rounds interleaved with the other timings of its file, with
// its interquartile range beside it as <key>_iqr: two runs differ by
// more than noise only where their ranges part. The files are committed
// so the trajectory is visible in review. The tool exits 1 when the
// measured reports miss a gate of failedGates, the one place the repo
// gates a timing: the gates bound ratios and counts, so a regression
// fails the build even though absolute numbers move with the hardware.
//
// With -scorecard the tool instead regenerates SCORECARD.json — the
// nine-backend × attack-scenario detection/false-alarm/identification
// matrix over the scenario library (deterministic in its seed, so the
// file is identical on every machine), each cell also recording how
// many incidents the correlation layer condenses its alarms into — and,
// when -baseline names a committed scorecard, fails if any cell
// regresses beyond tolerance, fragmentation (incident count rising)
// included.
//
//	benchjson -out .
//	benchjson -scorecard -out /tmp -baseline SCORECARD.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"netanomaly"
	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/engine"
	"netanomaly/internal/eval"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

const (
	ingestLinks = 120
	refitRank   = 5
)

type ingestReport struct {
	Benchmark string `json:"benchmark"`
	Links     int    `json:"links"`
	Bins      int    `json:"bins"`
	BatchBins int    `json:"batch_bins"`

	// Per-path cost; "binary" keeps its historical meaning of the v1
	// per-bin-frame format so the committed trajectory stays comparable
	// across PRs.
	CSVNsPerBin        float64    `json:"csv_ns_per_bin"`
	CSVNsPerBinIQR     [2]float64 `json:"csv_ns_per_bin_iqr"`
	BinaryNsPerBin     float64    `json:"binary_ns_per_bin"`
	BinaryNsPerBinIQR  [2]float64 `json:"binary_ns_per_bin_iqr"`
	V2RawNsPerBin      float64    `json:"v2_raw_ns_per_bin"`
	V2RawNsPerBinIQR   [2]float64 `json:"v2_raw_ns_per_bin_iqr"`
	V2XORNsPerBin      float64    `json:"v2_xor_ns_per_bin"`
	V2XORNsPerBinIQR   [2]float64 `json:"v2_xor_ns_per_bin_iqr"`
	V2RawBinsPerSec    float64    `json:"v2_raw_bins_per_sec"`
	V2RawBinsPerSecIQR [2]float64 `json:"v2_raw_bins_per_sec_iqr"`

	// Gated ratios.
	SpeedupVsCSV   float64 `json:"speedup_vs_csv_x"`
	V2SpeedupVsV1  float64 `json:"v2_raw_speedup_vs_v1_x"`
	XORVsV1Ratio   float64 `json:"xor_vs_v1_ns_ratio"`
	XORVsRawRatio  float64 `json:"xor_vs_v2_raw_ns_ratio"`
	ReadsPerBinV1  float64 `json:"reads_per_bin_v1"`
	ReadsPerBinV2  float64 `json:"reads_per_bin_v2"`
	ReadReduction  float64 `json:"read_reduction_x"`
	RawBytesPerBin float64 `json:"trafficgen_raw_bytes_per_bin"`
	XORBytesPerBin float64 `json:"trafficgen_xor_bytes_per_bin"`
	XORCompression float64 `json:"xor_compression_x"`

	BinaryAllocsPerBin float64 `json:"binary_allocs_per_bin"`
	V2AllocsPerBin     float64 `json:"v2_allocs_per_bin"`
}

// sketchReport prices the refits at m = 120. full_svd_refit_ns is
// core.Fit plus Build: the offline fit and the oracle. No streaming refit
// runs it any more — the window backend solves the centered Gram
// (BenchmarkRefit's window-refit row) — but the key keeps its
// meaning so the trajectory stays comparable across PRs.
type sketchReport struct {
	Benchmark            string          `json:"benchmark"`
	Links                int             `json:"links"`
	Rank                 int             `json:"rank"`
	SketchSize           int             `json:"sketch_size"`
	FullSVDRefitNs       float64         `json:"full_svd_refit_ns"`
	FullSVDRefitNsIQR    [2]float64      `json:"full_svd_refit_ns_iqr"`
	CovTrackerRefitNs    float64         `json:"covtracker_refit_ns"`
	CovTrackerRefitNsIQR [2]float64      `json:"covtracker_refit_ns_iqr"`
	SketchRefitNs        float64         `json:"sketch_refit_ns"`
	SketchRefitNsIQR     [2]float64      `json:"sketch_refit_ns_iqr"`
	SpeedupVsCovTracker  float64         `json:"sketch_speedup_vs_covtracker_x"`
	SpeedupVsFullSVD     float64         `json:"sketch_speedup_vs_full_svd_x"`
	Agreement            agreementReport `json:"agreement"`
}

type snapshotReport struct {
	Benchmark string              `json:"benchmark"`
	Links     int                 `json:"links"`
	Bins      int                 `json:"bins"`
	Backends  []backendSnapReport `json:"backends"`

	// Gated structural ratios: the sketch's O(l x m) portable state must
	// stay far below the subspace backend's full-window envelope, and a
	// subspace restore must beat re-seeding from history (it skips the
	// seed fit entirely — that is the point of serializing the model).
	SketchVsSubspaceSize   float64 `json:"sketch_vs_subspace_size_ratio"`
	SubspaceRestoreSpeedup float64 `json:"subspace_restore_vs_reseed_x"`
}

type backendSnapReport struct {
	Backend          string     `json:"backend"`
	SnapshotBytes    int        `json:"snapshot_bytes"`
	SnapshotNs       float64    `json:"snapshot_ns"`
	SnapshotNsIQR    [2]float64 `json:"snapshot_ns_iqr"`
	RestoreNs        float64    `json:"restore_ns"`
	RestoreNsIQR     [2]float64 `json:"restore_ns_iqr"`
	ReseedNs         float64    `json:"reseed_ns"`
	ReseedNsIQR      [2]float64 `json:"reseed_ns_iqr"`
	RestoreVsReseedX float64    `json:"restore_vs_reseed_x"`
	Canonical        bool       `json:"canonical_reencode"`
}

type agreementReport struct {
	HistoryBins            int `json:"history_bins"`
	StreamBins             int `json:"stream_bins"`
	SpikesInjected         int `json:"spikes_injected"`
	SketchSize             int `json:"sketch_size"`
	IncrementalFlaggedBins int `json:"incremental_flagged_bins"`
	SketchFlaggedBins      int `json:"sketch_flagged_bins"`
	CommonFlaggedBins      int `json:"common_flagged_bins"`
	SpikesCaughtByBoth     int `json:"spikes_caught_by_both"`
}

func main() {
	outDir := flag.String("out", ".", "directory for BENCH_ingest.json, BENCH_sketch.json and BENCH_snapshot.json")
	scorecard := flag.Bool("scorecard", false, "regenerate SCORECARD.json (backend x scenario detection matrix) instead of the benchmarks")
	baseline := flag.String("baseline", "", "with -scorecard: committed scorecard to gate against; any cell regression fails")
	seed := flag.Int64("seed", 1, "with -scorecard: seed for traffic, metrics and scenarios")
	flag.Parse()

	if *scorecard {
		if err := runScorecardGate(*outDir, *baseline, *seed); err != nil {
			fatal(err)
		}
		return
	}

	ing, err := measureIngest()
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(filepath.Join(*outDir, "BENCH_ingest.json"), ing); err != nil {
		fatal(err)
	}
	sk, err := measureSketch()
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(filepath.Join(*outDir, "BENCH_sketch.json"), sk); err != nil {
		fatal(err)
	}
	snap, err := measureSnapshot()
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(filepath.Join(*outDir, "BENCH_snapshot.json"), snap); err != nil {
		fatal(err)
	}

	if failed := failedGates(ing, sk, snap); len(failed) > 0 {
		for _, msg := range failed {
			fmt.Fprintf(os.Stderr, "benchjson: GATE FAILED: %s\n", msg)
		}
		os.Exit(1)
	}
	fmt.Printf("benchjson: v1 ingest %.1fx CSV; v2 raw %.2fx v1 (%.1fx fewer reads, %.4f allocs/bin); xor %.2fx compression at %.2fx v1 decode cost; sketch refit %.0fx covtracker, %.0fx full SVD; agreement %d/%d bins; subspace restore %.0fx re-seed, sketch snapshot %.3fx subspace size\n",
		ing.SpeedupVsCSV, ing.V2SpeedupVsV1, ing.ReadReduction, ing.V2AllocsPerBin, ing.XORCompression, ing.XORVsV1Ratio,
		sk.SpeedupVsCovTracker, sk.SpeedupVsFullSVD, sk.Agreement.CommonFlaggedBins, sk.Agreement.IncrementalFlaggedBins,
		snap.SubspaceRestoreSpeedup, snap.SketchVsSubspaceSize)
}

// failedGates returns one message per gate the reports miss, in table
// order; a nil report's gates are skipped, so a measurement can check
// its own before the others exist. A slower machine moves the numbers, a
// regression breaks the ratios.
func failedGates(ing *ingestReport, sk *sketchReport, snap *snapshotReport) []string {
	var failed []string
	gate := func(miss bool, format string, args ...any) {
		if miss {
			failed = append(failed, fmt.Sprintf(format, args...))
		}
	}
	if ing != nil {
		gate(ing.SpeedupVsCSV < 5, "binary ingest is %.1fx the CSV path, want >= 5x", ing.SpeedupVsCSV)
		gate(ing.BinaryAllocsPerBin >= 1, "binary ingest allocates %.3f per bin, want < 1", ing.BinaryAllocsPerBin)
		gate(ing.V2AllocsPerBin > 0.05, "v2 ingest allocates %.4f per bin, want <= 0.05", ing.V2AllocsPerBin)
		gate(ing.V2SpeedupVsV1 < 1.5, "v2 batch framing is %.2fx the v1 per-bin path, want >= 1.5x", ing.V2SpeedupVsV1)
		gate(ing.ReadReduction < 10, "v2 batch framing only cuts read calls %.1fx, want >= 10x", ing.ReadReduction)
		gate(ing.XORCompression < 2, "xor codec compresses the trafficgen week %.2fx, want >= 2x", ing.XORCompression)
		gate(ing.XORVsV1Ratio > 1.3, "xor decode costs %.2fx the v1 raw-decode baseline, want <= 1.3x", ing.XORVsV1Ratio)
		gate(ing.XORVsRawRatio > 2.2, "xor decode costs %.2fx the v2 zero-copy raw path, want <= 2.2x", ing.XORVsRawRatio)
	}
	if sk != nil {
		gate(sk.SpeedupVsCovTracker < 2, "sketch refit is %.1fx the covtracker refit, want >= 2x", sk.SpeedupVsCovTracker)
		a := sk.Agreement
		gate(a.SpikesCaughtByBoth != a.SpikesInjected || a.CommonFlaggedBins != a.IncrementalFlaggedBins || a.SketchFlaggedBins != a.IncrementalFlaggedBins,
			"sketch/incremental disagree (%d vs %d flagged, %d common, %d/%d spikes)",
			a.SketchFlaggedBins, a.IncrementalFlaggedBins, a.CommonFlaggedBins, a.SpikesCaughtByBoth, a.SpikesInjected)
	}
	if snap != nil {
		for _, bk := range snap.Backends {
			gate(!bk.Canonical, "%s snapshot does not re-encode byte-for-byte after restore", bk.Backend)
		}
		gate(snap.SubspaceRestoreSpeedup < 2, "subspace restore is %.1fx a fresh re-seed, want >= 2x (restore must skip the seed fit)", snap.SubspaceRestoreSpeedup)
		gate(snap.SketchVsSubspaceSize > 0.1, "sketch snapshot is %.2fx the subspace envelope, want <= 0.10x", snap.SketchVsSubspaceSize)
	}
	return failed
}

// benchSink mirrors the root benchmark's counting detector: the ingest
// measurement prices transport and dispatch, not a model.
type benchSink struct {
	links int
	n     atomic.Int64
}

func (d *benchSink) Seed(*mat.Dense) error { return nil }
func (d *benchSink) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	d.n.Add(int64(y.Rows()))
	return nil, nil
}
func (d *benchSink) Refit() error             { return nil }
func (d *benchSink) Settle() error            { return nil }
func (d *benchSink) Snapshot(io.Writer) error { return nil }
func (d *benchSink) Restore(io.Reader) error  { return nil }
func (d *benchSink) Stats() core.ViewStats {
	return core.ViewStats{Backend: "sink", Links: d.links, Processed: int(d.n.Load())}
}

// largeLinkTrace mirrors the root benchmark's workload: a paper-shaped
// week (1008 bins) of diurnal low-rank structure plus noise.
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

func measureIngest() (*ingestReport, error) {
	const batchBins = 64
	y := largeLinkTrace(ingestLinks)
	bins := y.Rows()
	// Whole-byte loads mirror cmd/trafficgen's binary path: counters on
	// the wire are integral, and integral loads are the regime the xor
	// codec is built for. The CSV reference keeps full precision.
	raw := y.RawData()
	for i, v := range raw {
		raw[i] = math.Round(v)
	}

	var v1Buf, v2RawBuf, v2XORBuf, csvBuf bytes.Buffer
	if err := netmeas.WriteMatrixBinary(&v1Buf, y); err != nil {
		return nil, err
	}
	if err := netmeas.WriteMatrixBinaryFormat(&v2RawBuf, y, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecRaw, BatchBins: batchBins}); err != nil {
		return nil, err
	}
	if err := netmeas.WriteMatrixBinaryFormat(&v2XORBuf, y, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecXOR, BatchBins: batchBins}); err != nil {
		return nil, err
	}
	if err := netanomaly.WriteMatrixCSV(&csvBuf, y, nil); err != nil {
		return nil, err
	}
	csvBytes := csvBuf.Bytes()

	mon := engine.NewMonitor(engine.Config{Workers: 1, BatchSize: 64, MaxPending: 256, Overload: engine.OverloadBlock})
	defer mon.Close()
	if err := mon.AddDetectorView("v", &benchSink{links: ingestLinks}); err != nil {
		return nil, err
	}
	var streamErr error
	var readCalls int64
	stream := func(payload []byte) func() {
		return func() {
			dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(payload))
			if err == nil {
				err = mon.IngestBinary("v", dec)
				readCalls = dec.ReadCalls()
			}
			if err != nil && streamErr == nil {
				streamErr = err
			}
			mon.Flush()
		}
	}
	v1Stream := stream(v1Buf.Bytes())
	v2RawStream := stream(v2RawBuf.Bytes())
	v2XORStream := stream(v2XORBuf.Bytes())
	csvStream := func() {
		m, _, err := netanomaly.ReadMatrixCSV(bytes.NewReader(csvBytes))
		if err == nil {
			err = mon.Ingest("v", m)
		}
		if err != nil && streamErr == nil {
			streamErr = err
		}
		mon.Flush()
	}

	v1Stream() // warm the pools and the queue's backing arrays
	v2RawStream()
	v2XORStream()
	v1Stream()
	v1Reads := float64(readCalls) / float64(bins)
	v2RawStream()
	v2Reads := float64(readCalls) / float64(bins)
	v1Allocs := testing.AllocsPerRun(3, v1Stream) / float64(bins)
	v2Allocs := testing.AllocsPerRun(3, v2RawStream) / float64(bins)
	xorBytes, rawBytes, err := trafficgenWireBytesPerBin(batchBins)
	if err != nil {
		return nil, err
	}

	timed := func(run func()) func() error { return func() error { run(); return nil } }
	// The timing ratios are capability claims; a noisy shared-runner
	// sample must not fail the CI gate by itself, so the whole
	// comparison re-runs and only a regression that misses every
	// attempt reaches the report.
	const attempts = 3
	var rep *ingestReport
	for a := 0; a < attempts; a++ {
		var csv, v1, v2, xor timing
		// The streams never fail a call: they record errors in streamErr.
		_ = measure(op{3, timed(csvStream), &csv}, op{6, timed(v1Stream), &v1},
			op{10, timed(v2RawStream), &v2}, op{10, timed(v2XORStream), &xor})
		for _, t := range []*timing{&csv, &v1, &v2, &xor} {
			*t = t.scale(1 / float64(bins))
		}
		rep = &ingestReport{
			Benchmark:          "BinaryIngest",
			Links:              ingestLinks,
			Bins:               bins,
			BatchBins:          batchBins,
			CSVNsPerBin:        round1(csv.median),
			CSVNsPerBinIQR:     csv.iqr(),
			BinaryNsPerBin:     round1(v1.median),
			BinaryNsPerBinIQR:  v1.iqr(),
			V2RawNsPerBin:      round1(v2.median),
			V2RawNsPerBinIQR:   v2.iqr(),
			V2XORNsPerBin:      round1(xor.median),
			V2XORNsPerBinIQR:   xor.iqr(),
			V2RawBinsPerSec:    round1(1e9 / v2.median),
			V2RawBinsPerSecIQR: [2]float64{round1(1e9 / v2.q3), round1(1e9 / v2.q1)},
			SpeedupVsCSV:       round1(csv.median / v1.median),
			V2SpeedupVsV1:      round2(v1.median / v2.median),
			XORVsV1Ratio:       round2(xor.median / v1.median),
			XORVsRawRatio:      round2(xor.median / v2.median),
			ReadsPerBinV1:      round2(v1Reads),
			ReadsPerBinV2:      math.Round(v2Reads*1e4) / 1e4,
			ReadReduction:      round1(v1Reads / v2Reads),
			RawBytesPerBin:     round1(rawBytes),
			XORBytesPerBin:     round1(xorBytes),
			XORCompression:     round2(rawBytes / xorBytes),
			BinaryAllocsPerBin: math.Round(v1Allocs*1e4) / 1e4,
			V2AllocsPerBin:     math.Round(v2Allocs*1e4) / 1e4,
		}
		if len(failedGates(rep, nil, nil)) == 0 {
			break
		}
	}
	if streamErr != nil {
		return nil, streamErr
	}
	return rep, nil
}

// trafficgenWireBytesPerBin encodes the exact link-load stream
// cmd/trafficgen emits for the Abilene diurnal week at seed 5 (loads
// rounded to whole bytes, as its binary path does) under both v2
// codecs and returns their bytes/bin. Generation is deterministic in
// the seed, so these are fixed properties of the codec rather than of
// the machine.
func trafficgenWireBytesPerBin(batchBins int) (xor, raw float64, err error) {
	topo := topology.Abilene()
	gen, err := traffic.NewGenerator(topo, traffic.DefaultConfig(5))
	if err != nil {
		return 0, 0, err
	}
	loads := traffic.LinkLoads(topo, gen.Generate())
	data := loads.RawData()
	for i, v := range data {
		data[i] = math.Round(v)
	}
	bins := loads.Rows()
	var rawBuf, xorBuf bytes.Buffer
	if err := netmeas.WriteMatrixBinaryFormat(&rawBuf, loads, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecRaw, BatchBins: batchBins}); err != nil {
		return 0, 0, err
	}
	if err := netmeas.WriteMatrixBinaryFormat(&xorBuf, loads, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecXOR, BatchBins: batchBins}); err != nil {
		return 0, 0, err
	}
	return float64(xorBuf.Len()) / float64(bins), float64(rawBuf.Len()) / float64(bins), nil
}

func measureSketch() (*sketchReport, error) {
	y := largeLinkTrace(ingestLinks)
	ell := 4 * refitRank

	tr, err := core.NewCovTracker(ingestLinks, 1)
	if err != nil {
		return nil, err
	}
	tr.UpdateAll(y)
	sk, err := core.NewFDSketch(ingestLinks, ell)
	if err != nil {
		return nil, err
	}
	if err := sk.InsertAll(y); err != nil {
		return nil, err
	}
	var fullSVD, cov, sketch timing
	err = measure(
		op{1, func() error {
			p, err := core.Fit(y)
			if err != nil {
				return err
			}
			_, err = core.Build(p, refitRank)
			return err
		}, &fullSVD},
		op{2, func() error {
			_, err := tr.Model(refitRank)
			return err
		}, &cov},
		op{50, func() error {
			p, span, err := sk.PCA()
			if err != nil {
				return err
			}
			if span < refitRank {
				return fmt.Errorf("sketch spans %d directions, need %d", span, refitRank)
			}
			_, err = core.Build(p, refitRank)
			return err
		}, &sketch})
	if err != nil {
		return nil, err
	}

	agree, err := measureAgreement()
	if err != nil {
		return nil, err
	}
	runtime.KeepAlive(tr)
	return &sketchReport{
		Benchmark:            "SketchRefit",
		Links:                ingestLinks,
		Rank:                 refitRank,
		SketchSize:           ell,
		FullSVDRefitNs:       round1(fullSVD.median),
		FullSVDRefitNsIQR:    fullSVD.iqr(),
		CovTrackerRefitNs:    round1(cov.median),
		CovTrackerRefitNsIQR: cov.iqr(),
		SketchRefitNs:        round1(sketch.median),
		SketchRefitNsIQR:     sketch.iqr(),
		SpeedupVsCovTracker:  round1(cov.median / sketch.median),
		SpeedupVsFullSVD:     round1(fullSVD.median / sketch.median),
		Agreement:            *agree,
	}, nil
}

// measureAgreement reruns the acceptance scenario of the sketch
// backend's conformance test: the trafficgen spike trace on Abilene,
// sketch at exactly 2x rank against the exact-covariance incremental
// backend, synchronized refits, flagged bin sets compared.
func measureAgreement() (*agreementReport, error) {
	const historyBins, streamBins = 1008, 288
	spikes := []int{40, 150, 260}
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(71)
	cfg.Bins = historyBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		return nil, err
	}
	od := gen.Generate()
	flow := topo.FlowID(3, 8)
	for _, s := range spikes {
		traffic.Inject(od, []traffic.Anomaly{{Flow: flow, Bin: historyBins + s, Delta: 9e7}})
	}
	links := traffic.LinkLoads(topo, od)
	m := links.Cols()
	history := mat.NewDense(historyBins, m, links.RawData()[:historyBins*m])
	stream := mat.NewDense(streamBins, m, links.RawData()[historyBins*m:])
	routing := topo.RoutingMatrix()

	inc, err := backend.Build(backend.Spec{Kind: "incremental"}, history, routing)
	if err != nil {
		return nil, err
	}
	rank := inc.Stats().Rank
	sd, err := backend.Build(backend.Spec{Kind: "sketch", SketchSize: 2 * rank}, history, routing)
	if err != nil {
		return nil, err
	}
	incFlagged := map[int]bool{}
	skFlagged := map[int]bool{}
	half := streamBins / 2
	for _, span := range [][2]int{{0, half}, {half, streamBins}} {
		chunk := mat.NewDense(span[1]-span[0], m, stream.RawData()[span[0]*m:span[1]*m])
		ia, err := inc.ProcessBatch(chunk)
		if err != nil {
			return nil, err
		}
		sa, err := sd.ProcessBatch(chunk)
		if err != nil {
			return nil, err
		}
		for _, a := range ia {
			incFlagged[a.Seq] = true
		}
		for _, a := range sa {
			skFlagged[a.Seq] = true
		}
		if err := inc.Refit(); err != nil {
			return nil, err
		}
		if err := sd.Refit(); err != nil {
			return nil, err
		}
	}
	common, caught := 0, 0
	for seq := range incFlagged {
		if skFlagged[seq] {
			common++
		}
	}
	for _, s := range spikes {
		if incFlagged[s] && skFlagged[s] {
			caught++
		}
	}
	return &agreementReport{
		HistoryBins:            historyBins,
		StreamBins:             streamBins,
		SpikesInjected:         len(spikes),
		SketchSize:             2 * rank,
		IncrementalFlaggedBins: len(incFlagged),
		SketchFlaggedBins:      len(skFlagged),
		CommonFlaggedBins:      common,
		SpikesCaughtByBoth:     caught,
	}, nil
}

// measureSnapshot prices the portable-state path on the same
// 1008-bin, 120-link trace the ingest benchmark uses: per backend, the
// checkpoint envelope size and the cost of Snapshot, of Restore into a
// separately constructed detector, and of re-seeding that detector
// from scratch — the alternative a restore competes with. The size
// ratio is a structural property of the formats; the restore-vs-reseed
// ratio is timing, so the comparison re-runs a few times and only a
// miss on every attempt reaches the gate.
func measureSnapshot() (*snapshotReport, error) {
	y := largeLinkTrace(ingestLinks)
	bins := y.Rows()
	routing := mat.Identity(ingestLinks)

	build := func(kind string) (core.ViewDetector, error) {
		return backend.Build(backend.Spec{Kind: kind}, y, routing)
	}
	kinds := []string{"subspace", "incremental", "sketch", "ewma", "hybrid"}

	rep := &snapshotReport{Benchmark: "SnapshotRestore", Links: ingestLinks, Bins: bins}
	type kindTimings struct {
		src, dst           core.ViewDetector
		buf                bytes.Buffer
		snap, rest, reseed timing
	}
	const attempts = 3
	for a := 0; a < attempts; a++ {
		ks := make([]*kindTimings, len(kinds))
		var ops []op
		for i, kind := range kinds {
			k := &kindTimings{}
			var err error
			if k.src, err = build(kind); err != nil {
				return nil, err
			}
			if k.dst, err = build(kind); err != nil {
				return nil, err
			}
			ks[i] = k
			ops = append(ops,
				op{1, func() error { _, err := build(kind); return err }, &k.reseed},
				op{5, func() error { k.buf.Reset(); return k.src.Snapshot(&k.buf) }, &k.snap},
				op{5, func() error { return k.dst.Restore(bytes.NewReader(k.buf.Bytes())) }, &k.rest})
		}
		if err := measure(ops...); err != nil {
			return nil, err
		}
		rep.Backends = rep.Backends[:0]
		sizes := map[string]int{}
		for i, kind := range kinds {
			k := ks[i]
			var again bytes.Buffer
			if err := k.dst.Snapshot(&again); err != nil {
				return nil, err
			}
			sizes[kind] = k.buf.Len()
			rep.Backends = append(rep.Backends, backendSnapReport{
				Backend:          kind,
				SnapshotBytes:    k.buf.Len(),
				SnapshotNs:       round1(k.snap.median),
				SnapshotNsIQR:    k.snap.iqr(),
				RestoreNs:        round1(k.rest.median),
				RestoreNsIQR:     k.rest.iqr(),
				ReseedNs:         round1(k.reseed.median),
				ReseedNsIQR:      k.reseed.iqr(),
				RestoreVsReseedX: round1(k.reseed.median / k.rest.median),
				Canonical:        bytes.Equal(k.buf.Bytes(), again.Bytes()),
			})
			if kind == "subspace" {
				rep.SubspaceRestoreSpeedup = round1(k.reseed.median / k.rest.median)
			}
		}
		rep.SketchVsSubspaceSize = math.Round(1e4*float64(sizes["sketch"])/float64(sizes["subspace"])) / 1e4
		if len(failedGates(nil, nil, rep)) == 0 {
			break
		}
	}
	return rep, nil
}

// runScorecardGate regenerates the backend x scenario detection
// scorecard, writes it to outDir/SCORECARD.json, and — when a baseline
// is named — fails on any cell regressing beyond the default
// tolerance. Unlike the timing benchmarks the scorecard is exact: the
// run is deterministic in the seed, so a committed baseline reproduces
// bit-for-bit until a code change moves a cell.
func runScorecardGate(outDir, baseline string, seed int64) error {
	card, err := eval.RunScorecard(topology.Abilene(), eval.ScorecardConfig{Seed: seed})
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "SCORECARD.json"), card); err != nil {
		return err
	}
	fmt.Printf("benchjson: scorecard %d backends x %d scenarios (%d cells) on %s, seed %d\n",
		len(card.Backends), len(card.Scenarios), len(card.Cells), card.Topology, card.Seed)
	if baseline == "" {
		return nil
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base eval.Scorecard
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baseline, err)
	}
	regressions := eval.CompareScorecards(&base, card, eval.DefaultScorecardTolerance())
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchjson: SCORECARD REGRESSION: %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Printf("benchjson: scorecard matches baseline %s (no cell regressed)\n", baseline)
	return nil
}

// samples is how many timed samples each reported timing is the
// median of.
const samples = 15

// timing is one measured cost: the median of its samples and the
// quartiles around it, so a reader can tell a change from noise.
type timing struct{ median, q1, q3 float64 }

// op is one operation to time: reps calls per sample, reported in out
// as the per-call cost in ns.
type op struct {
	reps int
	f    func() error
	out  *timing
}

// measure times ops in interleaved rounds: one warm-up call of each,
// then samples rounds in which every op runs its reps calls from a
// freshly collected heap. Interleaving spreads each op's samples over
// the whole measurement, so a slow spell of a shared machine widens
// every op's quartiles instead of shifting one op's median.
func measure(ops ...op) error {
	for _, o := range ops {
		if err := o.f(); err != nil {
			return err
		}
	}
	ns := make([][]float64, len(ops))
	for s := 0; s < samples; s++ {
		for i, o := range ops {
			runtime.GC()
			start := time.Now()
			for r := 0; r < o.reps; r++ {
				if err := o.f(); err != nil {
					return err
				}
			}
			ns[i] = append(ns[i], float64(time.Since(start).Nanoseconds())/float64(o.reps))
		}
	}
	for i, o := range ops {
		sort.Float64s(ns[i])
		*o.out = timing{median: quantile(ns[i], 0.5), q1: quantile(ns[i], 0.25), q3: quantile(ns[i], 0.75)}
	}
	return nil
}

// quantile interpolates the q-quantile of sorted samples linearly
// between the order statistics around it.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// scale returns t with every statistic multiplied by k.
func (t timing) scale(k float64) timing { return timing{t.median * k, t.q1 * k, t.q3 * k} }

// iqr returns the interquartile range as [q1, q3], rounded like the
// median it brackets.
func (t timing) iqr() [2]float64 { return [2]float64{round1(t.q1), round1(t.q3)} }

func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round2(v float64) float64 { return math.Round(v*100) / 100 }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
