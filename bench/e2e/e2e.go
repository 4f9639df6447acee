package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netanomaly"
)

// lateLimitMs is how late the generator's 90th-percentile frame may be
// before a live phase says more about the generator than about ingestd.
const lateLimitMs = 0.25

// e2eConfig sizes one end-to-end run of a workload.
type e2eConfig struct {
	ingestd string // path of the built binary
	dir     string // scratch directory of this run
	// rounds is how many times the two-process scenario is played. The
	// sandbox's speed drifts by a fifth over seconds, and where a
	// process's threads land on the two CPUs differs from launch to
	// launch and stays put for the life of the process; so a run is
	// several short rounds spread over its length, and every metric is
	// the median over rounds rather than one long-lived process's value.
	rounds int
	// replayLoops is how many times each process A is sent the stream: a
	// fixed amount of work, so that the checkpoint process B starts on is
	// the same in every round and on every run of a seed.
	replayLoops int
	// liveFor is the length of each process B's live phase.
	liveFor time.Duration
}

// round is one play of the scenario: process A from a cold start
// through the replay to its checkpoint, then process B from a warm start
// on that checkpoint through the live phase.
type round struct {
	setupS, restartS float64
	replay           *replayResult
	live             *liveResult
}

// e2eResult is what the rounds of one workload run produced.
type e2eResult struct {
	rounds []round
	// liveValid is false when the generator ran late in some live phase,
	// on a second attempt too.
	liveValid bool
	attempted int64
	failed    int64
	// failures describes the first few failed operations.
	failures []string
}

func (r *e2eResult) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%d x ", n)+fmt.Sprintf(format, args...))
	}
}

// over returns one value per round, for a median over rounds.
func (r *e2eResult) over(f func(round) float64) []float64 {
	out := make([]float64, len(r.rounds))
	for i, rd := range r.rounds {
		out[i] = f(rd)
	}
	return out
}

// runE2E drives the real ingestd through cfg.rounds rounds of process A
// (cold start, closed loop replay, checkpoint at drain) and process B
// (warm start on A's checkpoint, open loop live phase), and checks
// everything they printed.
func runE2E(w workload, tr *trace, cfg e2eConfig) (*e2eResult, error) {
	res := &e2eResult{liveValid: true}
	args := w.ingestdArgs(tr.historyAt)
	retried := false
	for i := 0; i < cfg.rounds; i++ {
		ckpt := filepath.Join(cfg.dir, fmt.Sprintf("ckpt-%d", i))
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			return nil, err
		}
		a, err := startIngestd(cfg.ingestd, append(append([]string(nil), args...), "-refit", "0", "-checkpoint", ckpt))
		if err != nil {
			return nil, err
		}
		rd := round{setupS: a.startupS}
		// Only the first round keeps the alarm lines of the verified
		// prefix; the others replay the same bytes and must agree with it
		// in their counts.
		verifyLoops := 0
		if i == 0 {
			verifyLoops = w.verifyLoops
		}
		if rd.replay, err = replay(tr, a, cfg.replayLoops, verifyLoops); err != nil {
			return nil, fmt.Errorf("process A: %w", err)
		}
		if fi, err := os.Stat(filepath.Join(ckpt, "checkpoint.nams")); err == nil {
			rd.replay.checkpointBytes = fi.Size()
		}
		if i == 0 {
			res.checkReplay(w, tr, rd.replay)
		} else {
			res.checkRepeat(rd.replay, res.rounds[0].replay)
		}

		// Process B starts on A's checkpoint with the workload's live refit
		// interval, and rewrites the checkpoint when it drains.
		for {
			b, err := startIngestd(cfg.ingestd, append(append([]string(nil), args...), "-refit", fmt.Sprint(w.liveRefit), "-checkpoint", ckpt))
			if err != nil {
				return nil, err
			}
			rd.restartS = b.startupS
			// B resumes where the checkpoint it started on stopped: A's
			// count, or the first attempt's when this is the second.
			base := rd.replay.stats.processed
			if rd.live != nil {
				base = rd.live.stats.processed
			}
			if rd.live, err = live(w, tr, b, cfg.liveFor, base); err != nil {
				return nil, fmt.Errorf("process B: %w", err)
			}
			res.checkLive(rd.live)
			if percentile(rd.live.lateMs, 90) <= lateLimitMs {
				break
			}
			// The generator ran late, so the phase says more about it than
			// about ingestd: one more attempt per run on a fresh process.
			if retried {
				res.liveValid = false
				break
			}
			retried = true
		}
		res.rounds = append(res.rounds, rd)
	}
	return res, nil
}

// replayResult is process A's run.
type replayResult struct {
	binsSent int64
	elapsedS float64 // first frame byte written -> final stats line read
	// alarms and incidents are the lines that fall inside the verified
	// prefix; the rest of the run is only counted.
	alarms    []alarmRecord
	incidents []incidentRecord
	stats     finalStats
	exit      exitInfo
	// cpu is the CPU spent after the listening line: the stream's work,
	// the drain and the checkpoint.
	cpu             time.Duration
	checkpointBytes int64
	peakRSSMiB      float64 // read when the last byte was written
}

type alarmRecord struct {
	seq  int64
	flow string
}

type incidentRecord struct {
	what              string
	start, end, count int64
}

// replay writes the header once and the stream's frames loops times
// over one TCP connection. Blocking writes, TCP flow control and
// ingestd's OverloadBlock make the loop closed: the generator sends as
// fast as ingestd takes.
func replay(tr *trace, p *proc, loops, verifyLoops int) (*replayResult, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		p.kill()
		return nil, err
	}
	res := &replayResult{binsSent: int64(loops) * streamBins}
	verifyBins := int64(verifyLoops) * streamBins

	writeErr := make(chan error, 1)
	begin := time.Now()
	go func() {
		defer conn.Close()
		if _, err := conn.Write(tr.header); err != nil {
			writeErr <- err
			return
		}
		for i := 0; i < loops; i++ {
			if _, err := conn.Write(tr.wire); err != nil {
				writeErr <- err
				return
			}
		}
		// The queue is full and the model as large as it gets; once the
		// connection closes the process may be gone before it can be asked.
		var err error
		res.peakRSSMiB, err = p.peakRSSMiB()
		writeErr <- err
	}()

	for {
		line, err := p.out.ReadSlice('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			p.kill()
			return nil, err
		}
		if seq, flow, ok := parseAlarm(line); ok {
			if seq < verifyBins {
				res.alarms = append(res.alarms, alarmRecord{seq, string(flow)})
			}
			continue
		}
		if bytes.HasPrefix(line, []byte("incident #")) {
			// The cheap test first: past the prefix only closed lines near
			// it matter, and they are a small share of the run.
			if inc, ok := parseIncident(line); ok && inc.closed && inc.start < verifyBins {
				res.incidents = append(res.incidents, incidentRecord{inc.what, inc.start, inc.end, inc.alarms})
			}
			continue
		}
		if res.stats.parseStats(line) {
			res.elapsedS = time.Since(begin).Seconds()
		}
	}
	if err := <-writeErr; err != nil {
		p.kill()
		return nil, fmt.Errorf("replay: %w", err)
	}
	if res.exit, err = p.wait(); err != nil {
		return nil, err
	}
	if !res.stats.seenFinal {
		return nil, fmt.Errorf("ingestd exited without its final stats line")
	}
	res.cpu = res.exit.cpu - p.cpuAtListen
	return res, nil
}

// checkRepeat holds a later round's process A against the first
// round's, which was checked against the reference: the same bytes into
// the same model must raise the same number of alarms.
func (r *e2eResult) checkRepeat(rp, first *replayResult) {
	r.attempted += rp.binsSent
	r.checkCounts("A", rp.stats, rp.binsSent, rp.binsSent)
	if rp.stats.alarms != first.stats.alarms {
		r.fail(1, "A raised %d alarms, the first round's A %d", rp.stats.alarms, first.stats.alarms)
	}
}

// checkReplay holds process A's output against the run's own counts and
// against the in-process reference over the verified prefix.
func (r *e2eResult) checkReplay(w workload, tr *trace, rp *replayResult) {
	r.attempted += rp.binsSent
	r.checkCounts("A", rp.stats, rp.binsSent, rp.binsSent)

	wantAlarms, wantIncidents, err := reference(w, tr, w.verifyLoops)
	if err != nil {
		r.fail(1, "reference: %v", err)
		return
	}
	verifyBins := int64(w.verifyLoops) * streamBins
	var hit func(lo, hi int64) bool
	if w.incidents {
		// An incident whose last alarm is near the end of the prefix may
		// still merge with alarms past it; stop comparing a frame early.
		cut := verifyBins - frameBins
		got := coalesce(rp.incidents, quietPeriod)
		r.fail(diffRecords(keepBefore(got, cut), keepBefore(wantIncidents, cut)), "incidents differ from the in-process reference")
		hit = func(lo, hi int64) bool {
			for _, inc := range got {
				if inc.start >= lo && inc.start < hi {
					return true
				}
			}
			return false
		}
	} else {
		r.fail(diffRecords(rp.alarms, wantAlarms), "alarm lines differ from the in-process reference (got %d, want %d)", len(rp.alarms), len(wantAlarms))
		seen := make(map[int64]bool, len(rp.alarms))
		for _, a := range rp.alarms {
			seen[a.seq] = true
		}
		hit = func(lo, hi int64) bool {
			for s := lo; s < hi; s++ {
				if seen[s] {
					return true
				}
			}
			return false
		}
	}
	// One alarm line per injected anomaly, over the verified prefix.
	missed := int64(0)
	for loop := 0; loop < w.verifyLoops; loop++ {
		for _, an := range tr.anomalies {
			lo := int64(loop)*streamBins + int64(an.start)
			if lo+int64(an.len) > verifyBins-frameBins {
				continue
			}
			r.attempted++
			if !hit(lo, lo+int64(an.len)) {
				missed++
			}
		}
	}
	r.fail(missed, "injected anomalies without an alarm line in the replay")
}

// checkCounts requires that every bin sent was enqueued and processed,
// none dropped or rejected, and that the drain lines reconcile.
func (r *e2eResult) checkCounts(who string, fs finalStats, sent, processedDelta int64) {
	r.fail(sent-processedDelta, "%s: bins sent but not processed (sent %d)", who, sent)
	r.fail(fs.dropped, "%s: bins dropped", who)
	r.fail(fs.rejected, "%s: bins rejected", who)
	if !fs.seenQueue || !fs.seenStream {
		r.fail(1, "%s: queue or stream line missing from the drain output", who)
		return
	}
	if fs.streamEnqueued != sent {
		r.fail(1, "%s: stream line reports %d bins enqueued, %d sent", who, fs.streamEnqueued, sent)
	}
	// EnqueuedBins - DroppedBins == Processed at quiescence; both count
	// from the first bin the view ever saw, across restarts.
	if fs.enqueued-fs.dropped != fs.processed {
		r.fail(1, "%s: queue line reports %d bins enqueued, %d dropped, but %d were processed", who, fs.enqueued, fs.dropped, fs.processed)
	}
	if fs.streams != 1 {
		r.fail(1, "%s: %d streams served, want 1", who, fs.streams)
	}
}

// liveResult is process B's run.
type liveResult struct {
	frames      int
	binsSent    int64
	latenciesMs []float64 // due time -> alarm line, one per detected anomaly
	lateMs      []float64 // due time -> write, one per frame
	missed      int64
	// cpu is the CPU spent after the listening line, up to the exit: the
	// stream's work, every background refit it triggered (the drain waits
	// for the one in flight, so the count does not depend on timing), and
	// the checkpoint.
	cpu        time.Duration
	peakRSSMiB float64 // read when the last frame was written
	stats      finalStats
	exit       exitInfo
	// base is the sequence number of the phase's first bin: B continues
	// A's count.
	base       int64
	restoredAt int64
}

type lineHit struct {
	bin int64
	at  time.Time
}

// live sends one frame every period on a fixed schedule (open loop) and
// times each injected anomaly from the moment its frame was due to the
// arrival of the first alarm or incident-open line inside its bins.
func live(w workload, tr *trace, p *proc, dur time.Duration, base int64) (*liveResult, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		p.kill()
		return nil, err
	}
	res := &liveResult{base: base, restoredAt: p.restoredAt, frames: max(int(dur/w.livePeriod), 1)}

	// hits belongs to the reader goroutine until readDone delivers.
	var hits []lineHit
	readDone := make(chan error, 1)
	go func() {
		for {
			line, err := p.out.ReadSlice('\n')
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				readDone <- err
				return
			}
			now := time.Now()
			bin, ok := int64(0), false
			if w.incidents {
				var inc incidentLine
				if inc, ok = parseIncident(line); ok {
					bin, ok = inc.start, !inc.closed
				}
			} else {
				bin, _, ok = parseAlarm(line)
			}
			if ok {
				hits = append(hits, lineHit{bin, now})
				continue
			}
			res.stats.parseStats(line)
		}
	}()

	abort := func(err error) (*liveResult, error) {
		conn.Close()
		p.kill()
		<-readDone
		return nil, err
	}
	if _, err := conn.Write(tr.header); err != nil {
		return abort(err)
	}
	// The pacing thread must not queue behind other goroutines when its
	// sleep ends.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now().Add(20 * time.Millisecond)
	for i := 0; i < res.frames; i++ {
		due := t0.Add(time.Duration(i) * w.livePeriod)
		// Sleep to within a millisecond of the due time, then spin: the
		// sleep alone overshoots by more than the latencies measured.
		if d := time.Until(due) - time.Millisecond; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		res.lateMs = append(res.lateMs, time.Since(due).Seconds()*1e3)
		if _, err := conn.Write(tr.frames[i%streamFrames]); err != nil {
			return abort(fmt.Errorf("live write: %w", err))
		}
	}
	res.binsSent = int64(res.frames) * frameBins

	if res.peakRSSMiB, err = p.peakRSSMiB(); err != nil {
		return abort(err)
	}
	// Closing ends the stream; ingestd drains what it has queued, prints
	// the last alarms and exits.
	conn.Close()
	if err := <-readDone; err != nil {
		p.kill()
		return nil, err
	}
	if res.exit, err = p.wait(); err != nil {
		return nil, err
	}
	if !res.stats.seenFinal {
		return nil, fmt.Errorf("ingestd exited without its final stats line")
	}
	res.cpu = res.exit.cpu - p.cpuAtListen

	// First line inside each frame's injected bins, against its due time.
	first := make(map[int]time.Time, res.frames)
	for _, h := range hits {
		idx := h.bin - base
		if idx < 0 || idx >= res.binsSent {
			continue
		}
		f := int(idx / frameBins)
		an := tr.anomalies[f%streamFrames]
		off := int(idx%frameBins) + (f%streamFrames)*frameBins
		if off < an.start || off >= an.start+an.len {
			continue
		}
		if _, ok := first[f]; !ok {
			first[f] = h.at
		}
	}
	for f := 0; f < res.frames; f++ {
		at, ok := first[f]
		if !ok {
			res.missed++
			continue
		}
		due := t0.Add(time.Duration(f) * w.livePeriod)
		res.latenciesMs = append(res.latenciesMs, at.Sub(due).Seconds()*1e3)
	}
	return res, nil
}

// checkLive holds process B's run against its own counts: B resumed
// where A stopped, processed every bin, and raised one alarm line per
// injected anomaly.
func (r *e2eResult) checkLive(lv *liveResult) {
	r.attempted += lv.binsSent + int64(lv.frames)
	r.checkCounts("B", lv.stats, lv.binsSent, lv.stats.processed-lv.base)
	if lv.restoredAt != lv.base {
		r.fail(1, "B restored at bin %d, A processed %d", lv.restoredAt, lv.base)
	}
	r.fail(lv.missed, "injected anomalies without an alarm line in the live phase")
}

// quietPeriod is the incident correlator's default merge gap, which
// ingestd runs with.
const quietPeriod = 8

// reference builds the expected output in process: the same monitor,
// view and options ingestd assembles, fed the same wire bytes.
func reference(w workload, tr *trace, loops int) ([]alarmRecord, []incidentRecord, error) {
	var alarms []alarmRecord
	var incidents []incidentRecord
	var corr *netanomaly.Correlator
	if w.incidents {
		corr = netanomaly.NewCorrelator(netanomaly.WithIncidentCallback(func(e netanomaly.IncidentEvent) {
			if e.Type == netanomaly.IncidentClosed {
				inc := e.Incident
				incidents = append(incidents, incidentRecord{incidentWhat(tr.topo, inc.Key), int64(inc.StartSeq), int64(inc.EndSeq), int64(inc.Alarms)})
			}
		}))
	}
	mon := newMonitor(func(a netanomaly.MonitorAlarm) {
		if corr != nil {
			corr.Observe(a.View, a.Alarm)
			return
		}
		alarms = append(alarms, alarmRecord{int64(a.Seq), flowName(tr.topo, a.Flow)})
	})
	defer mon.Close()
	if err := netanomaly.AddView(mon, viewName, tr.history, tr.topo, netanomaly.WithDetector(w.detector)); err != nil {
		return nil, nil, err
	}
	dec, err := netanomaly.NewBinaryDecoder(tr.reader(loops))
	if err != nil {
		return nil, nil, err
	}
	if err := mon.IngestBinary(viewName, dec); err != nil {
		return nil, nil, err
	}
	mon.Close()
	if errs := mon.Errs(); len(errs) > 0 {
		return nil, nil, errs[0]
	}
	if corr != nil {
		corr.Flush()
	}
	return alarms, incidents, nil
}

// newMonitor is the monitor ingestd builds for process A: 64-bin
// batches, a 4096-bin blocking queue, no refits, default confidence.
func newMonitor(onAlarm func(netanomaly.MonitorAlarm)) *netanomaly.Monitor {
	return netanomaly.NewMonitor(netanomaly.MonitorConfig{
		BatchSize: frameBins,
		Options:   netanomaly.Options{Confidence: 0.999},
		OnAlarm:   onAlarm,
	}, netanomaly.WithMaxPending(maxPending), netanomaly.WithOverloadPolicy(netanomaly.OverloadBlock))
}

func flowName(topo *netanomaly.Topology, flow int) string {
	if flow < 0 {
		return "-"
	}
	return topo.FlowName(flow)
}

// incidentWhat renders an incident key the way ingestd prints it.
func incidentWhat(topo *netanomaly.Topology, key netanomaly.IncidentKey) string {
	if key.Flow >= 0 {
		return "flow " + topo.FlowName(key.Flow)
	}
	return fmt.Sprintf("view %s (unattributed)", key.Region)
}

// coalesce merges consecutive incidents of one key that lie within the
// quiet period of each other. ingestd advances the correlator's clock
// from a 500 ms ticker with the processed-bin count, which runs ahead of
// the alarms still being emitted for the current batch; a tick that
// lands there closes an incident that its next alarm then reopens. The
// pieces add up to the reference incident, so they are compared merged.
func coalesce(in []incidentRecord, quiet int64) []incidentRecord {
	var out []incidentRecord
	last := map[string]int{} // key -> index in out of its latest incident
	for _, inc := range sortedByStart(in) {
		if i, ok := last[inc.what]; ok && inc.start-out[i].end <= quiet {
			out[i].end = max(out[i].end, inc.end)
			out[i].count += inc.count
			continue
		}
		last[inc.what] = len(out)
		out = append(out, inc)
	}
	return out
}

func sortedByStart(in []incidentRecord) []incidentRecord {
	out := append([]incidentRecord(nil), in...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].what < out[j].what
	})
	return out
}

// diffRecords counts the records present in one list and not in the
// other, duplicates included.
func diffRecords[T comparable](got, want []T) int64 {
	balance := make(map[T]int, len(want))
	for _, r := range want {
		balance[r]++
	}
	for _, r := range got {
		balance[r]--
	}
	n := int64(0)
	for _, b := range balance {
		if b < 0 {
			b = -b
		}
		n += int64(b)
	}
	return n
}

func keepBefore(in []incidentRecord, cut int64) []incidentRecord {
	var out []incidentRecord
	for _, inc := range in {
		if inc.end < cut {
			out = append(out, inc)
		}
	}
	return sortedByStart(out)
}
