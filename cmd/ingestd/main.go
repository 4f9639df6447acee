// Command ingestd is the network-facing ingest server: it seeds a
// streaming Monitor shard from a history file (or, with -checkpoint,
// warm-starts it from a checkpoint without reading the history), then
// accepts the binary wire format (see the "Binary ingest" section of
// the README) over TCP connections, a unix socket, and/or stdin,
// fanning every stream into the shard and printing alarms as workers
// raise them. Decoding goes through the pooled zero-allocation path
// (Monitor.IngestBinary), so steady-state ingest does not allocate per
// bin.
//
// Each connection is one binary stream: header, then frames until the
// peer closes. Streams from concurrent connections interleave at batch
// granularity into the same view; sequence numbers count from the first
// bin the server ingests. The server exits on SIGINT/SIGTERM, after
// -conns connections when set, or when stdin drains under -stdin with
// no listeners configured.
//
//	trafficgen -bins 1008 -format binary -links week.bin
//	trafficgen -bins 288 -format binary -links - -anomaly 24,60,9e7 |
//	    ingestd -history week.bin -stdin -listen ""
//	ingestd -history week.bin -listen 127.0.0.1:7600 -socket /tmp/na.sock \
//	    -detector sketch -sketch-size 16
//
// -topology is abilene, sprint, or synthetic:<pops>:<edges>:<seed> —
// the grammar trafficgen and diagnose share, so the generator and the
// server given one name agree on the network.
//
// The history file may be CSV (as written by trafficgen) or binary;
// the format is sniffed from the leading magic bytes. Wire-format
// versions are sniffed per stream: v1 per-bin frames and v2 batch
// frames (raw or xor codec) can arrive on concurrent connections of
// one server. -codec restricts which codecs are accepted (any, raw,
// or xor; a v1 stream counts as raw). -detector selects the shard
// backend; with -metrics n the wire is read as n column-stacked metric
// blocks per bin (the trafficgen -metrics layout), which is what the
// multiflow backend needs to see scans that never move byte counts.
//
// With -incidents the alarm stream feeds the incident correlation
// stage instead of printing per-bin lines: one "incident #N open" line
// when a sustained anomaly starts and one "incident #N closed" line
// with the merged span, peak SPE and severity when its quiet period
// expires. Incident state rides in the -checkpoint file (an envelope
// concatenated after the monitor's), so a warm restart resumes open
// incidents without re-announcing them.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"netanomaly"
)

func main() {
	topoName := flag.String("topology", "abilene", "abilene, sprint, or synthetic:<pops>:<edges>:<seed>")
	historyPath := flag.String("history", "", "link-load matrix that seeds the model on a cold start (CSV or binary, sniffed; required, read only without a checkpoint)")
	listenAddr := flag.String("listen", "127.0.0.1:7600", "TCP listen address (empty to disable)")
	socketPath := flag.String("socket", "", "unix socket path (empty to disable)")
	useStdin := flag.Bool("stdin", false, "also ingest one binary stream from stdin")
	conns := flag.Int("conns", 0, "exit after this many connections (0 = serve until signalled)")
	detector := flag.String("detector", "subspace", "shard backend: subspace, incremental, sketch, multiscale, multiflow, ewma, holtwinters, fourier, or hybrid")
	sketchSize := flag.Int("sketch-size", 0, "sketch: Frequent-Directions rows (0 = 4x model rank)")
	lambda := flag.Float64("lambda", 1, "incremental: covariance forgetting factor in (0,1]")
	driftTol := flag.Float64("drift-tol", 0, "incremental/sketch: min residual drift before a rebuild swaps in")
	confidence := flag.Float64("confidence", 0.999, "detection confidence level")
	rank := flag.Int("rank", 0, "fixed normal-subspace rank (0 = 3-sigma rule)")
	batchSize := flag.Int("batch", 64, "bins per dispatched batch")
	refitEvery := flag.Int("refit", 0, "background-refit interval in bins (0 = never)")
	maxPending := flag.Int("max-pending", 0, "bound on queued unprocessed bins (0 = unbounded)")
	overload := flag.String("overload", "block", "full-queue policy: block, dropoldest, or error")
	codecPolicy := flag.String("codec", "any", "accept streams with this codec: any, raw, or xor (v1 streams count as raw)")
	metricsN := flag.Int("metrics", 1, "column-stacked metrics per bin on the wire (match trafficgen -metrics; required >1 for -detector multiflow)")
	incidents := flag.Bool("incidents", false, "correlate alarms into incidents and print open/closed incident lines instead of per-bin alarms")
	quietPeriod := flag.Int("quiet-period", 0, "incident quiet period in bins: alarms gapped closer merge, incidents close after it (0 = default 8)")
	checkpointDir := flag.String("checkpoint", "", "directory for warm-restart checkpoints: load on start, write on drain (empty = off)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "also checkpoint after every n newly processed bins (0 = only at drain)")
	flag.Parse()

	switch *codecPolicy {
	case "any", "raw", "xor":
	default:
		fatal(fmt.Errorf("-codec %q: want any, raw, or xor", *codecPolicy))
	}
	// The multi-metric backend wants bins x (metrics x links) columns;
	// the NAMB decoder is width-agnostic, so a stacked stream flows
	// through unchanged once -metrics declares how many blocks the
	// columns carry.
	kind := netanomaly.DetectorKind(*detector)
	switch {
	case *metricsN < 1:
		fatal(fmt.Errorf("-metrics %d: want at least 1 metric block per bin", *metricsN))
	case kind == netanomaly.DetectorMultiFlow && *metricsN < 2:
		fatal(errors.New("-detector multiflow needs -metrics > 1: the wire must carry column-stacked metric blocks (see trafficgen -metrics)"))
	case kind != netanomaly.DetectorMultiFlow && *metricsN != 1:
		fatal(fmt.Errorf("-metrics %d: only -detector multiflow consumes stacked metric streams", *metricsN))
	}

	if *historyPath == "" {
		fatal(errors.New("-history is required: the model must be seeded before streams arrive"))
	}
	if *listenAddr == "" && *socketPath == "" && !*useStdin {
		fatal(errors.New("nothing to ingest: set -listen, -socket, or -stdin"))
	}
	topo, err := netanomaly.ParseTopology(*topoName)
	if err != nil {
		fatal(err)
	}
	// Every backend flag is passed whatever the kind: a kind ignores the
	// parameters it does not read, and each flag's default is the
	// option's default. An unknown kind fails when the view is built.
	viewOpts := []netanomaly.ViewOption{
		netanomaly.WithDetector(kind),
		netanomaly.WithLambda(*lambda),
		netanomaly.WithDriftTolerance(*driftTol),
		netanomaly.WithSketchSize(*sketchSize),
		netanomaly.WithMetrics(metricNames(*metricsN)...),
	}
	policy, err := netanomaly.ParseOverloadPolicy(*overload)
	if err != nil {
		fatal(err)
	}

	// With -incidents the correlation stage sits in the alarm callback:
	// raw alarms feed the correlator and the printed lines are incident
	// transitions, one per root-caused anomaly instead of one per bin.
	var corr *netanomaly.Correlator
	if *incidents {
		corr = netanomaly.NewCorrelator(
			netanomaly.WithQuietPeriod(*quietPeriod),
			netanomaly.WithIncidentCallback(func(e netanomaly.IncidentEvent) {
				printIncident(topo, e)
			}),
		)
	}
	var alarmMu sync.Mutex
	alarms := 0
	monCfg := netanomaly.MonitorConfig{
		BatchSize:  *batchSize,
		RefitEvery: *refitEvery,
		Options:    netanomaly.Options{Confidence: *confidence, Rank: *rank},
		OnAlarm: func(a netanomaly.MonitorAlarm) {
			alarmMu.Lock()
			defer alarmMu.Unlock()
			alarms++
			if corr != nil {
				corr.Observe(a.View, a.Alarm)
				return
			}
			flow := "-"
			if a.Flow >= 0 {
				flow = topo.FlowName(a.Flow)
			}
			fmt.Printf("alarm bin %d: SPE %.4g > %.4g, flow %s, %.4g bytes\n",
				a.Seq, a.SPE, a.Threshold, flow, a.Bytes)
		},
	}
	monOpts := []netanomaly.MonitorOption{netanomaly.WithMaxPending(*maxPending), netanomaly.WithOverloadPolicy(policy)}
	const view = "net"

	// With -checkpoint, an existing checkpoint file warm-starts the
	// monitor — the detector resumes mid-stream with its accumulated
	// window, model and sequence numbering, and -history is not read —
	// and the same file is rewritten (atomically, via rename) at drain
	// and, with -checkpoint-every, periodically as bins are processed.
	ckptFile := ""
	if *checkpointDir != "" {
		ckptFile = filepath.Join(*checkpointDir, "checkpoint.nams")
	}
	var mon *netanomaly.Monitor
	restored := false
	restoredIncidents := false
	if ckptFile != "" {
		if f, err := os.Open(ckptFile); err == nil {
			spec := netanomaly.ViewSpec{Name: view, Topo: topo, Options: viewOpts}
			mon, err = netanomaly.Restore(monCfg, f, []netanomaly.ViewSpec{spec}, monOpts...)
			if err != nil {
				f.Close()
				fatal(fmt.Errorf("restore %s: %w", ckptFile, err))
			}
			// The monitor envelope self-delimits; the correlator's
			// "incidents" envelope, when the checkpoint carries one, is
			// concatenated after it. Restoring it is what keeps a warm
			// restart from re-opening (and re-announcing) incidents that
			// were already open at the kill.
			if corr != nil {
				var peek [1]byte
				if _, err := io.ReadFull(f, peek[:]); err == nil {
					rest := io.MultiReader(bytes.NewReader(peek[:]), f)
					if err := corr.Restore(rest); err != nil {
						f.Close()
						fatal(fmt.Errorf("restore incidents from %s: %w", ckptFile, err))
					}
					restoredIncidents = true
				} else if err != io.EOF {
					f.Close()
					fatal(err)
				}
			}
			f.Close()
			restored = true
		} else if !errors.Is(err, os.ErrNotExist) {
			fatal(err)
		}
	}
	seedBins := 0
	if mon == nil {
		history, err := loadMatrixSniffed(*historyPath)
		if err != nil {
			fatal(err)
		}
		seedBins = history.Rows()
		mon = netanomaly.NewMonitor(monCfg, monOpts...)
		if err := netanomaly.AddView(mon, view, history, topo, viewOpts...); err != nil {
			fatal(err)
		}
	}
	stats, err := mon.ViewStats(view)
	if err != nil {
		fatal(err)
	}
	if restored {
		fmt.Printf("ingestd: %s model restored from %s at bin %d (%s: %d links, rank %d)\n",
			stats.Backend, ckptFile, stats.Processed, topo.Name(), stats.Links, stats.Rank)
		if restoredIncidents {
			fmt.Printf("ingestd: incident state restored: %d open\n", corr.Stats().Open)
		}
	} else {
		fmt.Printf("ingestd: %s model seeded on %d bins (%s: %d links, rank %d)\n",
			stats.Backend, seedBins, topo.Name(), stats.Links, stats.Rank)
	}

	// The periodic checkpointer polls processed-bin progress and rewrites
	// the checkpoint whenever at least -checkpoint-every new bins have
	// been processed since the last write. Checkpoint quiesces the view
	// at the next idle instant between batches, so a write never splits
	// a batch.
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	// The incident clock advances with the stream, not just observed
	// alarms, so open incidents close a quiet period after their last
	// alarm even while the stream stays healthy. It follows the bins
	// whose alarms have all been delivered: a tick landing while a
	// batch's alarms are still being emitted must not close an
	// incident the batch's next alarm would extend.
	if corr != nil {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					advanceIncidents(mon, corr, view)
				}
			}
		}()
	}
	if ckptFile != "" && *checkpointEvery > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			last := stats.Processed
			t := time.NewTicker(500 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopCkpt:
					return
				case <-t.C:
					vs, err := mon.ViewStats(view)
					if err != nil || vs.Processed-last < *checkpointEvery {
						continue
					}
					if err := writeCheckpoint(mon, corr, ckptFile); err != nil {
						fmt.Fprintln(os.Stderr, "ingestd: checkpoint:", err)
						continue
					}
					last = vs.Processed
					fmt.Printf("ingestd: checkpoint written at bin %d\n", vs.Processed)
				}
			}
		}()
	}

	// Every stream source funnels into serve; the WaitGroup holds the
	// final stats back until in-flight connections finish.
	var wg sync.WaitGroup
	var served atomic.Int64
	serve := func(name string, r io.Reader) {
		defer wg.Done()
		dec, err := netanomaly.NewBinaryDecoder(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ingestd: %s: %v\n", name, err)
			return
		}
		// Negotiation on accept: the header declares the stream's codec
		// (v1 has none and counts as raw); a -codec policy other than
		// "any" refuses mismatched streams before decoding a frame.
		if *codecPolicy != "any" && dec.Codec().String() != *codecPolicy {
			fmt.Fprintf(os.Stderr, "ingestd: %s: stream codec %s refused (-codec %s)\n", name, dec.Codec(), *codecPolicy)
			return
		}
		desc := fmt.Sprintf("v%d %s", dec.Version(), dec.Codec())
		if dec.Version() == 2 {
			desc = fmt.Sprintf("%s x%d", desc, dec.BatchBins())
		}
		before, _ := mon.QueueStats(view)
		if err := mon.IngestBinary(view, dec); err != nil {
			fmt.Fprintf(os.Stderr, "ingestd: %s: %v\n", name, err)
			return
		}
		after, _ := mon.QueueStats(view)
		fmt.Printf("ingestd: %s: stream done (%s), %d bins enqueued\n", name, desc, after.EnqueuedBins-before.EnqueuedBins)
	}

	// done closes when the configured connection budget is spent; the
	// signal handler below closes the listeners either way.
	done := make(chan struct{})
	var doneOnce sync.Once
	finish := func() { doneOnce.Do(func() { close(done) }) }
	connDone := func() {
		if n := served.Add(1); *conns > 0 && n >= int64(*conns) {
			finish()
		}
	}

	// Installed before any "listening on" line is printed: a supervisor
	// may signal the moment it reads that line, and a SIGTERM that
	// found the default action still in place would kill the process
	// without draining or writing the final checkpoint.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var listeners []net.Listener
	addListener := func(network, addr string) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			fatal(err)
		}
		listeners = append(listeners, ln)
		fmt.Printf("ingestd: listening on %s %s\n", network, ln.Addr())
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed on shutdown
				}
				wg.Add(1)
				go func() {
					defer conn.Close()
					serve(conn.RemoteAddr().Network()+":"+conn.RemoteAddr().String(), conn)
					connDone()
				}()
			}
		}()
	}
	if *listenAddr != "" {
		addListener("tcp", *listenAddr)
	}
	if *socketPath != "" {
		os.Remove(*socketPath) // a stale socket from a previous run blocks bind
		addListener("unix", *socketPath)
	}
	if *useStdin {
		wg.Add(1)
		go func() {
			serve("stdin", os.Stdin)
			connDone()
			if len(listeners) == 0 && *conns == 0 {
				// Pipe mode: nothing else can ever arrive.
				finish()
			}
		}()
	}

	select {
	case <-sig:
		fmt.Println("ingestd: signal received, draining")
	case <-done:
	}
	for _, ln := range listeners {
		ln.Close()
	}
	if *socketPath != "" {
		os.Remove(*socketPath)
	}
	wg.Wait()
	close(stopCkpt)
	ckptWG.Wait()
	mon.Close()
	if corr != nil {
		// Close whatever the quiet period has already expired on; what
		// is still open either persists in the checkpoint below or is
		// flushed once no checkpoint will carry it.
		advanceIncidents(mon, corr, view)
	}
	// Close drained every queue, which is exactly the quiesced state the
	// final checkpoint wants: the next start resumes from the last bin
	// this process handed to a detector.
	if ckptFile != "" {
		if err := writeCheckpoint(mon, corr, ckptFile); err != nil {
			fmt.Fprintln(os.Stderr, "ingestd: final checkpoint:", err)
		} else {
			fmt.Printf("ingestd: checkpoint written to %s\n", ckptFile)
		}
	}
	if corr != nil && ckptFile == "" {
		// No checkpoint will resume these: the stream has ended for
		// good, so the remaining open incidents close now.
		corr.Flush()
	}
	failed := false
	for _, err := range mon.Errs() {
		fmt.Fprintln(os.Stderr, "ingestd:", err)
		failed = true
	}
	vs, err := mon.ViewStats(view)
	if err != nil {
		fatal(err)
	}
	// Per-view queue accounting at drain: with the processed-bin line
	// below it makes a restart or migration reconcilable from logs alone
	// (EnqueuedBins - DroppedBins == Processed at quiescence).
	for _, v := range mon.Views() {
		qs, err := mon.QueueStats(v)
		if err != nil {
			continue
		}
		fmt.Printf("ingestd: view %q queue: depth high-water %d bins, enqueued %d, dropped %d bins (%d batches), rejected %d\n",
			v, qs.DepthHighWater, qs.EnqueuedBins, qs.DroppedBins, qs.DroppedBatches, qs.RejectedBins)
	}
	ms := mon.Stats()
	fmt.Printf("ingestd: %d streams, %d bins processed, %d alarms, %d refits; dropped %d bins, rejected %d\n",
		served.Load(), vs.Processed, alarms, vs.Refits, ms.DroppedBins, ms.RejectedBins)
	if corr != nil {
		is := corr.Stats()
		fmt.Printf("ingestd: incidents: %d opened, %d closed, %d still open; %d alarms merged, %d evicted\n",
			is.Opened, is.Closed, is.Open, is.Merged, is.Evicted)
	}
	if failed {
		os.Exit(1)
	}
}

// writeCheckpoint writes the monitor checkpoint — followed, when the
// incident layer is on, by the correlator's own envelope (NAMS
// envelopes self-delimit, so the two concatenate in one file) — next to
// its final path and renames it into place, so a crash mid-write leaves
// the previous checkpoint intact and a reader never sees a torn file.
func writeCheckpoint(mon *netanomaly.Monitor, corr *netanomaly.Correlator, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".checkpoint-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := mon.Checkpoint(tmp); err != nil {
		tmp.Close()
		return err
	}
	if corr != nil {
		if err := corr.Snapshot(tmp); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// printIncident renders one incident transition; update events are
// deliberately silent — the whole point of the layer is one line when
// an incident opens and one when it resolves.
func printIncident(topo *netanomaly.Topology, e netanomaly.IncidentEvent) {
	inc := e.Incident
	what := fmt.Sprintf("view %s (unattributed)", inc.Key.Region)
	if inc.Key.Flow >= 0 {
		what = "flow " + topo.FlowName(inc.Key.Flow)
	}
	switch e.Type {
	case netanomaly.IncidentOpened:
		fmt.Printf("incident #%d open: %s, start bin %d, SPE %.4g\n",
			inc.ID, what, inc.StartSeq, inc.PeakSPE)
	case netanomaly.IncidentClosed:
		fmt.Printf("incident #%d closed: %s, bins %d..%d, peak SPE %.4g, %.4g bytes, %d alarms, %d views, severity %.4g\n",
			inc.ID, what, inc.StartSeq, inc.EndSeq, inc.PeakSPE, inc.Bytes,
			inc.Alarms, len(inc.Views), inc.Severity())
	}
}

// loadMatrixSniffed reads a link matrix in either supported encoding,
// deciding by the binary magic bytes rather than a flag or extension.
func loadMatrixSniffed(path string) (*netanomaly.Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[:4]) == "NAMB" {
		return netanomaly.ReadMatrixBinary(bytes.NewReader(data))
	}
	m, _, err := netanomaly.ReadMatrixCSV(bytes.NewReader(data))
	return m, err
}

// advanceIncidents moves the incident clock to the last bin whose
// alarms the monitor has finished delivering.
func advanceIncidents(mon *netanomaly.Monitor, corr *netanomaly.Correlator, view string) {
	if qs, err := mon.QueueStats(view); err == nil && qs.DeliveredBins > 0 {
		corr.Advance(int(qs.DeliveredBins) - 1)
	}
}

// metricNames labels n stacked metric blocks: the canonical Section 7.2
// triple when n is 3 (the trafficgen -metrics layout), generic labels
// otherwise.
func metricNames(n int) []string {
	if n == 3 {
		return []string{"bytes", "flows", "pktsize"}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("metric%d", i)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ingestd:", err)
	os.Exit(1)
}
