// Command e2e is the repository's performance ledger: it builds
// cmd/ingestd, generates a workload's trace from a seed, drives the real
// binary over loopback TCP through a cold replay and a warm live phase,
// checks the output against an in-process reference, and prints every
// end-to-end metric by name. A separate traced run assembles the same
// pipeline in process and reports where the time went, layer by layer.
// See ../README.md for the glossary and BENCHMARK.json for the contract.
//
//	go run -C bench ./e2e                          # the whole ledger
//	go run -C bench ./e2e -workload wide-sketch    # one workload
//	go run -C bench ./e2e -workload wide-sketch -trace 1
//	go run -C bench ./e2e -aa 2                    # same build twice, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: all)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same trace")
	seconds := flag.Float64("seconds", 18, "measured time per run: a third replays, two thirds run live")
	traceMode := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; -1: both")
	aa := flag.Int("aa", 0, "run the end-to-end suite this many times on one build, in two alternating sets, and hold the sets' medians against BENCHMARK.json's bounds")
	outDir := flag.String("out", "", "directory for the ingestd binary, scratch files and trace-<workload>.json (default <bench>/.out)")
	flag.Parse()

	if err := run(*workloadName, *seed, *seconds, *traceMode, *aa, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, traceMode, aa int, outDir string) error {
	if seconds <= 0 || traceMode < -1 || traceMode > 1 {
		return fmt.Errorf("want -seconds > 0 and -trace in {-1, 0, 1}")
	}
	selected := workloads
	if workloadName != "" {
		w, err := workloadByName(workloadName)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	env, err := prepare(outDir)
	if err != nil {
		return err
	}
	if aa > 0 {
		return runAA(env, selected, seed, seconds, aa)
	}
	ok := true
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if traceMode >= 0 && traced != (traceMode == 1) {
				continue
			}
			res, err := runOnce(env, w, seed, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.print(os.Stdout)
			ok = ok && res.failed == 0
		}
	}
	if !ok {
		return fmt.Errorf("failed operations; see above")
	}
	return nil
}

// environment is what every run shares: the repository, the built
// ingestd and the output directory.
type environment struct {
	root    string // repository root
	outDir  string
	ingestd string
	buildS  float64
}

// prepare finds the repository, creates the output directory and builds
// cmd/ingestd from the source around it.
func prepare(outDir string) (*environment, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if outDir == "" {
		outDir = filepath.Join(root, "bench", ".out")
	}
	if outDir, err = filepath.Abs(outDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	env := &environment{root: root, outDir: outDir, ingestd: filepath.Join(outDir, "ingestd")}
	begin := time.Now()
	build := exec.Command("go", "build", "-o", env.ingestd, "./cmd/ingestd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/ingestd: %v\n%s", err, out)
	}
	env.buildS = time.Since(begin).Seconds()
	return env, nil
}

// repoRoot walks up from the working directory to the directory whose
// go.mod declares the netanomaly module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module netanomaly\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no netanomaly go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// runResult is one run of one workload: its metrics by name and the
// operation counts the correctness check produced.
type runResult struct {
	workload  string
	traced    bool
	seed      int64
	specs     []metricSpec
	metrics   map[string]float64
	attempted int64
	failed    int64
	failures  []string
	liveValid bool
	samples   string // sample counts behind the percentiles
}

// runOnce generates the workload's trace and measures it. With tracing
// off it reports the end-to-end metrics as medians over the workload's
// rounds; traced, it reports the per-layer metrics: one round at half
// length for the numbers only ingestd's own output gives, then the
// in-process traced run and the backend table.
func runOnce(env *environment, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	dir, err := os.MkdirTemp(env.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr, err := w.generate(seed, dir)
	if err != nil {
		return nil, err
	}
	// The run's work is sized by -seconds and shared between the rounds.
	scale := seconds / nominalSeconds
	cfg := e2eConfig{ingestd: env.ingestd, dir: dir, rounds: w.rounds}
	if traced {
		scale /= 2
		cfg.rounds = 1
	}
	perRound := scale / float64(cfg.rounds)
	cfg.replayLoops = max(int(math.Round(perRound*float64(w.replayLoops))), w.verifyLoops+1)
	cfg.liveFor = time.Duration(perRound * nominalSeconds * 2 / 3 * float64(time.Second))
	e, err := runE2E(w, tr, cfg)
	if err != nil {
		return nil, err
	}
	latencySamples, liveFrames := 0, 0
	for _, rd := range e.rounds {
		latencySamples += len(rd.live.latenciesMs)
		liveFrames += rd.live.frames
	}
	res := &runResult{
		workload: w.name, traced: traced, seed: seed,
		attempted: e.attempted, failed: e.failed, failures: e.failures, liveValid: e.liveValid,
		samples: fmt.Sprintf("%d rounds, each %d replay loops (%d bins) and %d live frames; %d latency samples in all",
			cfg.rounds, cfg.replayLoops, cfg.replayLoops*streamBins, liveFrames/cfg.rounds, latencySamples),
	}
	if !traced {
		res.specs = endToEnd
		res.metrics = map[string]float64{
			"setup_s":                   median(e.over(func(rd round) float64 { return rd.setupS })),
			"restart_s":                 median(e.over(func(rd round) float64 { return rd.restartS })),
			"replay_bins_per_s":         percentile(e.over(replayRate), 75), // not the median: see replayRate
			"live_alarm_latency_p50_ms": median(e.over(func(rd round) float64 { return percentile(rd.live.latenciesMs, 50) })),
			"live_cpu_us_per_bin":       median(e.over(func(rd round) float64 { return float64(rd.live.cpu.Microseconds()) / float64(rd.live.binsSent) })),
			"peak_rss_mib":              median(e.over(func(rd round) float64 { return max(rd.replay.peakRSSMiB, rd.live.peakRSSMiB) })),
		}
		return res, nil
	}
	rp, lv := e.rounds[0].replay, e.rounds[0].live

	res.specs = perLayer
	m := map[string]float64{
		"failed_ops_ratio":                      float64(e.failed) / float64(e.attempted),
		"ingestd.replay_cpu_us_per_bin":         float64(rp.cpu.Microseconds()) / float64(rp.binsSent),
		"ingestd.replay_alarm_ratio":            float64(rp.stats.alarms) / float64(rp.binsSent),
		"ingestd.replay_queue_depth_high_water": float64(rp.stats.depthHighWater),
		"ingestd.dropped_bins":                  float64(rp.stats.dropped + lv.stats.dropped),
		"ingestd.rejected_bins":                 float64(rp.stats.rejected + lv.stats.rejected),
		"ingestd.live_refits":                   float64(lv.stats.refits),
		"live_alarm_latency_p90_ms":             percentile(lv.latenciesMs, 90),
		"ingestd.live_alarm_latency_p99_ms":     percentile(lv.latenciesMs, 99),
		"ingestd.live_alarm_latency_max_ms":     maxOf(lv.latenciesMs),
		"ingestd.ctx_switches_per_frame":        float64(lv.exit.ctxSwitches) / float64(lv.frames),
		"ingestd.checkpoint_bytes":              float64(rp.checkpointBytes),
		"loadgen.generate_s":                    tr.generateS,
		"loadgen.build_s":                       env.buildS,
		"loadgen.wire_bytes_per_bin":            tr.wireBytesPerBin(),
		"loadgen.late_p90_ms":                   percentile(lv.lateMs, 90),
		"loadgen.late_max_ms":                   maxOf(lv.lateMs),
	}
	// The single-threaded baseline: the same replay under GOMAXPROCS=1.
	single, err := startIngestd(env.ingestd, append(w.ingestdArgs(tr.historyAt), "-refit", "0"), "GOMAXPROCS=1")
	if err != nil {
		return nil, err
	}
	rp1, err := replay(tr, single, cfg.replayLoops, 0)
	if err != nil {
		return nil, fmt.Errorf("GOMAXPROCS=1 replay: %w", err)
	}
	m["ingestd.replay_bins_per_s_1p"] = replayRate(round{replay: rp1})

	layers, err := layerMetrics(w, tr, env.outDir)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := backendTable(tr, layers); err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	res.metrics = m
	return res, nil
}

// replayRate is one round's replay throughput: bins sent over the time
// from the first frame byte written to the final stats line read, drain
// included. On abilene-subspace it is bimodal from process to process —
// about one launch in three runs at half speed with a third more CPU per
// bin, presumably from where its threads land on the two CPUs — so the
// median over seven rounds flips between the modes from run to run. The
// run reports the upper quartile over rounds, which stays in the fast
// mode as long as two rounds reach it.
func replayRate(rd round) float64 { return float64(rd.replay.binsSent) / rd.replay.elapsedS }

// print writes the run as a table of every metric by name with its
// unit, then the machine-readable result as the last line.
func (r *runResult) print(f *os.File) {
	kind := "end-to-end, tracing off"
	if r.traced {
		kind = "per-layer, traced run"
	}
	fmt.Fprintf(f, "\n== %s (seed %d): %s ==\n", r.workload, r.seed, kind)
	fmt.Fprintf(f, "   %s; live phase valid: %v\n", r.samples, r.liveValid)
	for _, s := range r.specs {
		if strings.HasPrefix(s.name, "backend.") {
			continue
		}
		fmt.Fprintf(f, "   %-40s %14.6g %-10s (%s is better)\n", s.name, r.metrics[s.name], s.unit, s.better)
	}
	if r.traced {
		fmt.Fprintf(f, "   %-12s %20s %12s %16s\n", "backend", "process ns/bin", "refit ms", "snapshot bytes")
		for _, kind := range backendKinds {
			p := "backend." + string(kind)
			fmt.Fprintf(f, "   %-12s %20.0f %12.2f %16.0f\n", kind,
				r.metrics[p+".process_ns_per_bin"], r.metrics[p+".refit_ms"], r.metrics[p+".snapshot_bytes"])
		}
	}
	fmt.Fprintf(f, "   attempted %d, failed %d\n", r.attempted, r.failed)
	for _, msg := range r.failures {
		fmt.Fprintf(f, "   FAILED: %s\n", msg)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, s := range r.specs {
		line.Metrics[s.name] = value{r.metrics[s.name], s.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // a NaN metric: a bug in the benchmark
	}
	fmt.Fprintf(f, "%s\n", data)
}

// metricSpec names one metric; BENCHMARK.json carries the same names,
// units and directions (pinned by a test) plus the regression bounds.
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"restart_s", "s", "lower"},
	{"replay_bins_per_s", "bins/s", "higher"},
	{"live_alarm_latency_p50_ms", "ms", "lower"},
	{"live_cpu_us_per_bin", "us/bin", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"failed_ops_ratio", "ratio", "lower"},
		{"live_alarm_latency_p90_ms", "ms", "lower"},
		{"ingestd.replay_cpu_us_per_bin", "us/bin", "lower"},
		{"ingestd.replay_alarm_ratio", "ratio", "lower"},
		{"ingestd.replay_queue_depth_high_water", "bins", "lower"},
		{"ingestd.dropped_bins", "bins", "lower"},
		{"ingestd.rejected_bins", "bins", "lower"},
		{"ingestd.live_refits", "count", "higher"},
		{"ingestd.live_alarm_latency_p99_ms", "ms", "lower"},
		{"ingestd.live_alarm_latency_max_ms", "ms", "lower"},
		{"ingestd.ctx_switches_per_frame", "1/frame", "lower"},
		{"ingestd.checkpoint_bytes", "bytes", "lower"},
		{"ingestd.replay_bins_per_s_1p", "bins/s", "higher"},
		{"loadgen.generate_s", "s", "lower"},
		{"loadgen.build_s", "s", "lower"},
		{"loadgen.wire_bytes_per_bin", "bytes/bin", "lower"},
		{"loadgen.late_p90_ms", "ms", "lower"},
		{"loadgen.late_max_ms", "ms", "lower"},
		{"netmeas.decode_ns_per_bin", "ns/bin", "lower"},
		{"netmeas.decode_allocs_per_bin", "allocs/bin", "lower"},
		{"netmeas.read_calls_per_bin", "calls/bin", "lower"},
		{"netmeas.encode_ns_per_bin", "ns/bin", "lower"},
		{"engine.ingest_ns_per_bin", "ns/bin", "lower"},
		{"engine.queue_wait_us_p50", "us", "lower"},
		{"engine.queue_wait_us_p90", "us", "lower"},
		{"engine.self_ns_per_bin", "ns/bin", "lower"},
		{"engine.emit_ns_per_alarm", "ns/alarm", "lower"},
		{"engine.checkpoint_ms", "ms", "lower"},
		{"core.process_ns_per_bin", "ns/bin", "lower"},
		{"core.busy_share", "ratio", "higher"},
		{"core.detect_ns_per_bin", "ns/bin", "lower"},
		{"core.identify_us_per_alarm", "us/alarm", "lower"},
		{"core.seed_ms", "ms", "lower"},
		{"core.refit_ms", "ms", "lower"},
		{"core.snapshot_ms", "ms", "lower"},
		{"core.restore_ms", "ms", "lower"},
		{"core.snapshot_bytes", "bytes", "lower"},
		{"core.hybrid_escalated_ratio", "ratio", "lower"},
		{"core.hybrid_identified_ratio", "ratio", "higher"},
		{"mat.svd_ms", "ms", "lower"},
		{"mat.gram_ms", "ms", "lower"},
		{"mat.symeig_ms", "ms", "lower"},
		{"forecast.process_ns_per_bin", "ns/bin", "lower"},
		{"incident.observe_ns_per_alarm", "ns/alarm", "lower"},
		{"incident.advance_ns", "ns", "lower"},
		{"incident.merged_ratio", "ratio", "higher"},
		{"incident.opened", "count", "lower"},
		{"trace.overhead_ratio", "ratio", "higher"},
	}
	for _, kind := range backendKinds {
		p := "backend." + string(kind)
		specs = append(specs,
			metricSpec{p + ".process_ns_per_bin", "ns/bin", "lower"},
			metricSpec{p + ".refit_ms", "ms", "lower"},
			metricSpec{p + ".snapshot_bytes", "bytes", "lower"})
	}
	return specs
}()

// benchmarkFile is the part of BENCHMARK.json the A/A mode needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs the end-to-end suite n times on the same build, deals the
// runs alternately into two sets, and holds the distance between the two
// sets' medians against each metric's bound: two sets of runs of the same
// code must agree before a later change can be judged by them. With n = 2
// each set is a single run.
func runAA(env *environment, selected []workload, seed int64, seconds float64, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs")
	}
	data, err := os.ReadFile(filepath.Join(env.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2]map[string][]float64 // "workload metric" -> one value per run of the set
	sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
	late := map[string]bool{}
	for i := 0; i < n; i++ {
		for _, w := range selected {
			res, err := runOnce(env, w, seed, seconds, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if res.failed > 0 {
				res.print(os.Stdout)
				return fmt.Errorf("%s: failed operations", w.name)
			}
			for name, v := range res.metrics {
				sets[i%2][w.name+" "+name] = append(sets[i%2][w.name+" "+name], v)
			}
			late[w.name] = late[w.name] || !res.liveValid
		}
	}
	pass := true
	fmt.Printf("%-22s %-28s %12s %12s %9s %6s\n", "workload", "metric", "set 1", "set 2", "distance", "bound")
	for _, w := range selected {
		for _, spec := range bf.EndToEnd {
			a, b := median(sets[0][w.name+" "+spec.Name]), median(sets[1][w.name+" "+spec.Name])
			distance := math.Abs(a-b) / ((a + b) / 2)
			verdict := "PASS"
			if distance > spec.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("%-22s %-28s %12.5g %12.5g %8.1f%% %5.0f%% %s\n", w.name, spec.Name, a, b, 100*distance, 100*spec.Bound, verdict)
		}
		if late[w.name] {
			fmt.Printf("%-22s valid: false (the generator ran late in a live phase)\n", w.name)
		}
	}
	if !pass {
		return fmt.Errorf("A/A sets disagree by more than a bound")
	}
	return nil
}
