// Command diagnose runs the subspace method on a link-load matrix (as
// written by cmd/trafficgen, or exported from an SNMP collector) and
// prints every diagnosed volume anomaly: when it happened, the OD flow
// responsible, and the estimated byte count.
//
//	diagnose -topology abilene -links links.csv -confidence 0.999
//
// -topology is abilene, sprint, or synthetic:<pops>:<edges>:<seed>, the
// grammar trafficgen and ingestd share: the same name is the same
// network in all three commands.
//
// The link matrix may be CSV or the binary wire format of cmd/ingestd
// (the encoding is sniffed from the leading bytes), and -links - reads
// it from stdin — so a binary generator pipes straight in with no CSV
// anywhere:
//
//	trafficgen -format binary -links - -anomaly 24,500,9e7 |
//	    diagnose -links -
//
// With -stream the command runs the concurrent engine instead of a
// one-shot fit: the first -history bins seed the model, the remaining
// bins are replayed as a live measurement channel through a streaming
// Monitor shard, alarms print as they are raised, and the model refits
// in the background every -refit bins without stalling ingestion. The
// -detector flag selects the shard's backend:
//
//	subspace     windowed subspace method (default)
//	incremental  covariance-tracking refits, -lambda forgetting,
//	             -drift-tol rebuild gate
//	multiscale   one model per wavelet scale (-levels), region alarms
//	multiflow    one model per metric with voting (-metrics names the
//	             CSV's stacked column blocks, -quorum the vote); write
//	             such a CSV with trafficgen -metrics
//	ewma         per-link EWMA forecasting baseline (-alpha gain, 0 =
//	             grid search at seed; -k threshold multiplier); alarms
//	             report the worst link's residual, not an OD flow
//	holtwinters  per-link level+trend forecasting baseline (-alpha,
//	             -beta, -k)
//	fourier      per-link sinusoid-basis fit, background refits (-k)
//	hybrid       cheap forecast triage (-triage names the kind, default
//	             ewma) escalating alarmed bins to a subspace stage for
//	             OD-flow identification (-escalation immediate,
//	             confirm:<n>, or always; -hysteresis n holds the
//	             escalation for n quiet bins so a flapping signal does
//	             not thrash the stages); steady-state cost is the
//	             forecast recursion, alarms carry flows
//	sketch       Frequent-Directions sketched covariance (-sketch-size
//	             rows, 0 = 4x rank; -drift-tol rebuild gate): O(l x m)
//	             memory and the cheapest refit, for wide deployments
//
//	diagnose -topology abilene -links links.csv -stream -history 1008 \
//	    -refit 288 -detector incremental -lambda 0.999
//	diagnose -topology abilene -links links.csv -stream -history 1008 \
//	    -detector ewma -k 6
//	diagnose -topology abilene -links links.csv -stream -history 1008 \
//	    -detector hybrid -triage ewma -escalation immediate
//
// Under load the streaming engine can be bounded and elastic:
// -max-pending caps the view's queue of unprocessed bins, -overload
// picks the full-queue policy (block for backpressure, dropoldest to
// prefer fresh data, error to shed load), and -autoscale min:max lets
// the worker pool grow and shrink with the observed backlog. -burst n
// ingests the stream in n-bin slams instead of the bin-by-bin replay —
// a stress mode for demonstrating the overload policies. When any of
// these are set, a closing "load:" line reports dropped/rejected bins
// and the worker-pool high-water mark.
//
//	diagnose -topology abilene -links links.csv -stream -history 1008 \
//	    -burst 4096 -max-pending 64 -overload dropoldest -autoscale 1:4
//
// With -incidents the streamed alarms are correlated into incidents: a
// sustained anomaly prints one "incident #N open"/"incident #N closed"
// pair instead of a line per alarmed bin, alarms on the same OD flow
// (any view) merge, and an incident closes once -quiet-period bins pass
// with no further alarms. The closing summary reports opened/closed
// counts so scripts can assert "exactly one incident".
//
//	diagnose -topology abilene -links week.csv -stream -history 1008 \
//	    -detector hybrid -incidents
//
// diagnose reads files; to analyze a live binary stream over TCP, a unix
// socket or stdin, run cmd/ingestd.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"netanomaly"
)

func main() {
	topoName := flag.String("topology", "abilene", "abilene, sprint, or synthetic:<pops>:<edges>:<seed>")
	linksPath := flag.String("links", "links.csv", "link-load matrix, CSV or binary (sniffed; - for stdin)")
	confidence := flag.Float64("confidence", 0.999, "detection confidence level")
	rank := flag.Int("rank", 0, "fixed normal-subspace rank (0 = 3-sigma rule)")
	stream := flag.Bool("stream", false, "stream bins through the concurrent engine instead of a one-shot fit")
	historyBins := flag.Int("history", 1008, "streaming: bins that seed the model (the paper's week is 1008)")
	batchSize := flag.Int("batch", 64, "streaming: bins per dispatched batch")
	refitEvery := flag.Int("refit", 0, "streaming: background-refit interval in bins (0 = never)")
	detector := flag.String("detector", "subspace", "streaming backend: subspace, incremental, multiscale, multiflow, ewma, holtwinters, fourier, hybrid, or sketch")
	sketchSize := flag.Int("sketch-size", 0, "sketch: Frequent-Directions rows (0 = 4x model rank)")
	lambda := flag.Float64("lambda", 1, "incremental: covariance forgetting factor in (0,1]")
	driftTol := flag.Float64("drift-tol", 0, "incremental/sketch: min residual-projector drift before a rebuild swaps in (0 = always)")
	levels := flag.Int("levels", 3, "multiscale: wavelet depth")
	metrics := flag.String("metrics", "bytes,flows,pktsize", "multiflow: names of the CSV's stacked metric blocks")
	quorum := flag.Int("quorum", 1, "multiflow: how many metrics must flag a bin")
	alpha := flag.Float64("alpha", 0, "ewma/holtwinters: level smoothing gain (0 = ewma grid search at seed, holtwinters 0.3)")
	beta := flag.Float64("beta", 0, "holtwinters: trend smoothing gain (0 = 0.1)")
	thresholdK := flag.Float64("k", 0, "forecast backends: alarm at mean + k*sigma of tracked residuals (0 = 6)")
	triage := flag.String("triage", "ewma", "hybrid: triage stage kind (ewma, holtwinters, fourier)")
	escalation := flag.String("escalation", "immediate", "hybrid: escalation policy (immediate, confirm:<n>, always)")
	hysteresis := flag.Int("hysteresis", 0, "hybrid: stay escalated for n bins after the last triage alarm (0 = off)")
	incidents := flag.Bool("incidents", false, "streaming: correlate alarms into incidents and print open/closed incident lines instead of per-bin alarms")
	quietPeriod := flag.Int("quiet-period", 0, "incidents: quiet period in bins — alarms gapped closer merge, incidents close after it (0 = default 8)")
	maxPending := flag.Int("max-pending", 0, "streaming: bound on queued unprocessed bins (0 = unbounded)")
	overload := flag.String("overload", "block", "streaming: full-queue policy — block, dropoldest, or error")
	autoscale := flag.String("autoscale", "", "streaming: elastic worker pool as min:max (empty = fixed pool)")
	burst := flag.Int("burst", 0, "streaming: ingest the stream in bursts of this many bins at once instead of replaying it bin by bin (stress mode; pair with -max-pending)")
	restorePath := flag.String("restore", "", "streaming: warm-start the view from a checkpoint file (as written by ingestd -checkpoint) instead of starting fresh; -history/-detector flags must match the checkpointed run")
	flag.Parse()

	topo, err := netanomaly.ParseTopology(*topoName)
	if err != nil {
		fatal(err)
	}
	links, err := loadLinks(*linksPath)
	if err != nil {
		fatal(err)
	}
	opts := netanomaly.Options{Confidence: *confidence, Rank: *rank}
	if *stream {
		sc := streamConfig{
			history:    *historyBins,
			batch:      *batchSize,
			refitEvery: *refitEvery,
			// Every backend flag is passed whatever the kind: a kind
			// ignores the parameters it does not read, and each flag's
			// default is the option's default.
			viewOpts: []netanomaly.ViewOption{
				netanomaly.WithDetector(netanomaly.DetectorKind(*detector)),
				netanomaly.WithLambda(*lambda),
				netanomaly.WithDriftTolerance(*driftTol),
				netanomaly.WithSketchSize(*sketchSize),
				netanomaly.WithLevels(*levels),
				netanomaly.WithMetrics(strings.Split(*metrics, ",")...),
				netanomaly.WithQuorum(*quorum),
				netanomaly.WithAlpha(*alpha),
				netanomaly.WithBeta(*beta),
				netanomaly.WithThresholdK(*thresholdK),
				netanomaly.WithTriageKind(netanomaly.DetectorKind(*triage)),
				netanomaly.WithEscalation(*escalation),
				netanomaly.WithHysteresis(*hysteresis),
			},
			incidents:  *incidents,
			quiet:      *quietPeriod,
			maxPending: *maxPending,
			burst:      *burst,
			restore:    *restorePath,
		}
		policy, err := netanomaly.ParseOverloadPolicy(*overload)
		if err != nil {
			fatal(err)
		}
		sc.overload = policy
		if *autoscale != "" {
			min, max, err := parseAutoscale(*autoscale)
			if err != nil {
				fatal(err)
			}
			sc.autoscaleMin, sc.autoscaleMax = min, max
			sc.autoscale = true
		}
		runStream(topo, links, sc, opts)
		return
	}
	if *detector != string(netanomaly.DetectorSubspace) {
		fatal(fmt.Errorf("-detector %s needs -stream; the one-shot fit is always the subspace method", *detector))
	}
	diag, err := netanomaly.NewDiagnoser(links, topo, opts)
	if err != nil {
		fatal(err)
	}
	model := diag.Detector().Model()
	fmt.Printf("model: %d links, normal subspace rank %d, SPE limit %.4g at %.2f%%\n",
		model.NumLinks(), model.Rank(), diag.Detector().Limit(), 100*diag.Detector().Confidence())
	results := diag.DiagnoseSeries(links)
	if len(results) == 0 {
		fmt.Println("no anomalies detected")
		return
	}
	printHeader()
	for _, r := range results {
		printAlarm(topo, r.Bin, r)
	}
	fmt.Printf("%d anomalies over %d bins\n", len(results), links.Rows())
}

type streamConfig struct {
	history                    int
	batch                      int
	refitEvery                 int
	viewOpts                   []netanomaly.ViewOption
	incidents                  bool
	quiet                      int
	maxPending                 int
	overload                   netanomaly.OverloadPolicy
	autoscale                  bool
	autoscaleMin, autoscaleMax int
	burst                      int
	restore                    string
}

// parseAutoscale splits a min:max worker-bound pair.
func parseAutoscale(s string) (min, max int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("autoscale: want min:max, got %q", s)
	}
	if min, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("autoscale min: %w", err)
	}
	if max, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("autoscale max: %w", err)
	}
	// Reject rather than silently clamp: an inverted or nonpositive
	// bound is a typo, and running with a pool the operator did not ask
	// for hides it.
	if min <= 0 || max < min {
		return 0, 0, fmt.Errorf("autoscale: want 0 < min <= max, got %d:%d", min, max)
	}
	return min, max, nil
}

// runStream seeds a Monitor shard on the first history rows and replays
// the rest as a live measurement channel, printing alarms as workers
// raise them.
func runStream(topo *netanomaly.Topology, links *netanomaly.Matrix, sc streamConfig, opts netanomaly.Options) {
	bins, m := links.Dims()
	if sc.history < m {
		fatal(fmt.Errorf("streaming needs at least %d history bins (one per measurement column), have %d", m, sc.history))
	}
	if sc.history >= bins {
		fatal(fmt.Errorf("history (%d bins) leaves nothing to stream (%d bins total)", sc.history, bins))
	}
	if sc.batch <= 0 {
		sc.batch = 64 // engine default; normalized here so the banner matches
	}
	// The detectors copy seed rows into their own state, so the history
	// view can alias the loaded matrix.
	history := netanomaly.NewMatrix(sc.history, m, links.RawData()[:sc.history*m])
	// With -incidents the correlation stage consumes the alarm stream
	// and the printed lines are incident transitions (absolute bins,
	// like the alarm lines they replace).
	var corr *netanomaly.Correlator
	if sc.incidents {
		corr = netanomaly.NewCorrelator(
			netanomaly.WithQuietPeriod(sc.quiet),
			netanomaly.WithIncidentCallback(func(e netanomaly.IncidentEvent) {
				printIncident(topo, sc.history, e)
			}),
		)
	}
	// OnAlarm may be invoked concurrently from multiple workers; the mutex
	// keeps the count exact and the output lines unscrambled.
	var alarmMu sync.Mutex
	alarms := 0
	monOpts := []netanomaly.MonitorOption{
		netanomaly.WithMaxPending(sc.maxPending),
		netanomaly.WithOverloadPolicy(sc.overload),
	}
	if sc.autoscale {
		monOpts = append(monOpts, netanomaly.WithAutoscale(sc.autoscaleMin, sc.autoscaleMax))
	}
	monCfg := netanomaly.MonitorConfig{
		BatchSize:  sc.batch,
		RefitEvery: sc.refitEvery,
		Options:    opts,
		OnAlarm: func(a netanomaly.MonitorAlarm) {
			alarmMu.Lock()
			defer alarmMu.Unlock()
			alarms++
			if corr != nil {
				corr.Observe(a.View, a.Alarm)
				return
			}
			// Seq counts from the first streamed bin; print absolute
			// bins. Bins dropped by the overload policy raise no alarms
			// but still advance Seq, so the printed bin is the alarm's
			// true stream position even after drops. A restored run's Seq
			// continues from the checkpoint, so the numbering stays
			// consistent across the restart.
			printAlarm(topo, sc.history+a.Seq, a.Diagnosis)
		},
	}
	var mon *netanomaly.Monitor
	view := "stream"
	if sc.restore != "" {
		// Warm start: the ViewSpec rebuilds the detector shell from the
		// same seed history and options, then the checkpoint replaces
		// its state. The nameless spec matches whatever the writing
		// process called its (single) view.
		f, err := os.Open(sc.restore)
		if err != nil {
			fatal(err)
		}
		spec := netanomaly.ViewSpec{History: history, Topo: topo, Options: sc.viewOpts}
		mon, err = netanomaly.Restore(monCfg, f, []netanomaly.ViewSpec{spec}, monOpts...)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("restore %s: %w", sc.restore, err))
		}
		views := mon.Views()
		if len(views) != 1 {
			fatal(fmt.Errorf("restore %s: checkpoint holds %d views, diagnose streams exactly one", sc.restore, len(views)))
		}
		view = views[0]
	} else {
		mon = netanomaly.NewMonitor(monCfg, monOpts...)
		if err := netanomaly.AddView(mon, view, history, topo, sc.viewOpts...); err != nil {
			fatal(err)
		}
	}
	// Grab the detector handle before Close (lookups fail afterwards);
	// the hybrid kind prints its two-stage breakdown at the end.
	det, err := mon.Detector(view)
	if err != nil {
		fatal(err)
	}
	stats, err := mon.ViewStats(view)
	if err != nil {
		fatal(err)
	}
	rankNote := fmt.Sprintf("rank %d", stats.Rank)
	if stats.Rank == 0 {
		// The multiscale backend keeps one model per wavelet scale, the
		// forecast backends one forecaster per link; neither has a single
		// subspace rank to report.
		rankNote = "per-scale/per-link models"
	}
	if sc.restore != "" {
		fmt.Printf("streaming: %s model restored from %s at bin %d (%d measurement columns, %s), %d bins to go in batches of %d\n",
			stats.Backend, sc.restore, stats.Processed, stats.Links, rankNote, bins-sc.history, sc.batch)
	} else {
		fmt.Printf("streaming: %s model seeded on %d bins (%d measurement columns, %s), %d bins to go in batches of %d\n",
			stats.Backend, sc.history, stats.Links, rankNote, bins-sc.history, sc.batch)
	}
	if corr == nil {
		printHeader()
	}
	rest := netanomaly.NewMatrix(bins-sc.history, m, links.RawData()[sc.history*m:])
	failed := false
	if sc.burst > 0 {
		// Stress mode: slam the queue with whole bursts instead of the
		// paced bin-at-a-time replay, so the overload policy actually
		// engages. The burst is enqueued front to back, so with
		// -overload dropoldest the freshest bins always survive.
		streamed := rest.Rows()
		for r0 := 0; r0 < streamed && !failed; r0 += sc.burst {
			r1 := r0 + sc.burst
			if r1 > streamed {
				r1 = streamed
			}
			chunk := netanomaly.NewMatrix(r1-r0, m, rest.RawData()[r0*m:r1*m])
			if err := mon.Ingest(view, chunk); err != nil {
				fmt.Fprintln(os.Stderr, "diagnose:", err)
				failed = true
			}
		}
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := mon.IngestStream(view, netanomaly.StreamMatrix(ctx, rest, 0)); err != nil {
			fmt.Fprintln(os.Stderr, "diagnose:", err)
			failed = true
		}
	}
	mon.Close()
	for _, err := range mon.Errs() {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		failed = true
	}
	if corr != nil {
		// All workers are quiescent now: advance the incident clock to
		// the last bin whose alarms were delivered so quiet-period closes
		// fire, then close whatever is still open — the replay is over.
		if qs, err := mon.QueueStats(view); err == nil && qs.DeliveredBins > 0 {
			corr.Advance(int(qs.DeliveredBins) - 1)
		}
		corr.Flush()
		is := corr.Stats()
		fmt.Printf("incidents: %d opened, %d closed; %d alarms merged, %d evicted\n",
			is.Opened, is.Closed, is.Merged, is.Evicted)
	}
	fmt.Printf("%d alarms over %d streamed bins\n", alarms, bins-sc.history)
	if st := mon.Stats(); sc.maxPending > 0 || sc.autoscale {
		fmt.Printf("load: dropped %d bins (%d batches), rejected %d, workers peak %d\n",
			st.DroppedBins, st.DroppedBatches, st.RejectedBins, st.WorkersHighWater)
	}
	if hd, ok := det.(*netanomaly.HybridDetector); ok {
		hs := hd.HybridStats()
		fmt.Printf("hybrid: %s triage flagged %d bins, %d escalated to subspace (%d runs, %d held), %d identified, %d suppressed\n",
			hs.Triage.Backend, hs.TriageAlarms, hs.Escalated, hs.EscalationRuns, hs.HeldBins, hs.Identified, hs.Suppressed)
	}
	if failed {
		// Scripted callers check the exit code; an aborted or
		// error-laden run must not look like a clean, anomaly-free pass.
		os.Exit(1)
	}
}

// loadLinks reads the link matrix from a file or stdin, sniffing the
// encoding from the binary format's magic bytes.
func loadLinks(path string) (*netanomaly.Matrix, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[:4]) == "NAMB" {
		return netanomaly.ReadMatrixBinary(bytes.NewReader(data))
	}
	m, _, err := netanomaly.ReadMatrixCSV(bytes.NewReader(data))
	return m, err
}

func printHeader() {
	fmt.Printf("%6s %14s %14s %-16s %14s\n", "bin", "SPE", "threshold", "flow", "bytes")
}

func printAlarm(topo *netanomaly.Topology, bin int, d netanomaly.Diagnosis) {
	flow := "-" // multiscale alarms localize in time, not to a flow
	if d.Flow >= 0 {
		flow = topo.FlowName(d.Flow)
	}
	fmt.Printf("%6d %14.4g %14.4g %-16s %14.4g\n", bin, d.SPE, d.Threshold, flow, d.Bytes)
}

// printIncident renders incident transitions with absolute bin numbers:
// incident Seqs count from the first streamed bin, so the history length
// is added back, matching the alarm lines the incident view replaces.
func printIncident(topo *netanomaly.Topology, base int, e netanomaly.IncidentEvent) {
	inc := e.Incident
	what := fmt.Sprintf("view %s (unattributed)", inc.Key.Region)
	if inc.Key.Flow >= 0 {
		what = "flow " + topo.FlowName(inc.Key.Flow)
	}
	switch e.Type {
	case netanomaly.IncidentOpened:
		fmt.Printf("incident #%d open: %s, start bin %d, SPE %.4g\n",
			inc.ID, what, base+inc.StartSeq, inc.PeakSPE)
	case netanomaly.IncidentClosed:
		fmt.Printf("incident #%d closed: %s, bins %d..%d, peak SPE %.4g, %.4g bytes, %d alarms, %d views, severity %.4g\n",
			inc.ID, what, base+inc.StartSeq, base+inc.EndSeq, inc.PeakSPE, inc.Bytes, inc.Alarms, len(inc.Views), inc.Severity())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diagnose:", err)
	os.Exit(1)
}
