package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"netanomaly"
	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
)

// The traced run assembles ingestd's pipeline in process on the same
// trace and times every call into a layer's public function from the
// outside: nothing inside the measured packages is instrumented. The
// hot path only stores timestamps into preallocated per-batch slots;
// spans are built from them when the run is over.

// recorder holds the traced run's timestamps, nanoseconds since base.
// The producer goroutine owns the decode and ingest slots, the engine's
// worker the advance and process slots; the engine hands a shard from
// worker to worker under its own lock, so no slot has two writers.
type recorder struct {
	base                     time.Time
	decodeStart, decodeEnd   []int64
	ingestStart, ingestEnd   []int64
	advanceStart, advanceEnd []int64
	processStart, processEnd []int64
	emits                    []emitRecord // guarded by alarmSink.mu
}

type emitRecord struct {
	batch                    int
	start, end               int64
	observeStart, observeEnd int64
}

func newRecorder(batches int) *recorder {
	slots := make([]int64, 8*batches)
	cut := func(i int) []int64 { return slots[i*batches : (i+1)*batches] }
	return &recorder{
		decodeStart: cut(0), decodeEnd: cut(1), ingestStart: cut(2), ingestEnd: cut(3),
		advanceStart: cut(4), advanceEnd: cut(5), processStart: cut(6), processEnd: cut(7),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// alarmSink is the OnAlarm callback ingestd installs, with the output
// discarded: count under a lock, then either format the alarm line or
// hand the alarm to the incident correlator.
type alarmSink struct {
	mu     sync.Mutex
	topo   *netanomaly.Topology
	corr   *netanomaly.Correlator
	rec    *recorder // nil when tracing is off
	alarms int64
}

func newAlarmSink(w workload, tr *trace, rec *recorder) *alarmSink {
	s := &alarmSink{topo: tr.topo, rec: rec}
	if w.incidents {
		s.corr = netanomaly.NewCorrelator(netanomaly.WithIncidentCallback(func(e netanomaly.IncidentEvent) {
			inc := e.Incident
			switch e.Type {
			case netanomaly.IncidentOpened:
				fmt.Fprintf(io.Discard, "incident #%d open: %s, start bin %d, SPE %.4g\n",
					inc.ID, incidentWhat(tr.topo, inc.Key), inc.StartSeq, inc.PeakSPE)
			case netanomaly.IncidentClosed:
				fmt.Fprintf(io.Discard, "incident #%d closed: %s, bins %d..%d, peak SPE %.4g, %.4g bytes, %d alarms, %d views, severity %.4g\n",
					inc.ID, incidentWhat(tr.topo, inc.Key), inc.StartSeq, inc.EndSeq, inc.PeakSPE, inc.Bytes,
					inc.Alarms, len(inc.Views), inc.Severity())
			}
		}))
	}
	return s
}

func (s *alarmSink) onAlarm(a netanomaly.MonitorAlarm) {
	var e emitRecord
	if s.rec != nil {
		e.batch = a.Seq / frameBins
		e.start = s.rec.now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alarms++
	if s.corr != nil {
		if s.rec != nil {
			e.observeStart = s.rec.now()
		}
		s.corr.Observe(a.View, a.Alarm)
		if s.rec != nil {
			e.observeEnd = s.rec.now()
		}
	} else {
		fmt.Fprintf(io.Discard, "alarm bin %d: SPE %.4g > %.4g, flow %s, %.4g bytes\n",
			a.Seq, a.SPE, a.Threshold, flowName(s.topo, a.Flow), a.Bytes)
	}
	if s.rec != nil {
		e.end = s.rec.now()
		s.rec.emits = append(s.rec.emits, e)
	}
}

// tracedDetector is a pass-through ViewDetector registered with
// AddDetectorView. It sees each batch at the moment the engine hands it
// to the detector, which is where queue wait ends and detection starts.
type tracedDetector struct {
	core.ViewDetector
	rec  *recorder
	corr *netanomaly.Correlator
	// inflight[k] is the pooled buffer behind batch k, released once the
	// detector is done with it (Monitor.Ingest does not copy).
	inflight []*netmeas.FrameBatch
	next     int
}

func (t *tracedDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	k := t.next
	t.next++
	if t.corr != nil {
		// Every alarm of the batches before k has been emitted, so the
		// clock can move to the last bin processed without splitting an
		// incident whose alarms are still on their way.
		t.rec.advanceStart[k] = t.rec.now()
		t.corr.Advance(k*frameBins - 1)
		t.rec.advanceEnd[k] = t.rec.now()
	}
	t.rec.processStart[k] = t.rec.now()
	alarms, err := t.ViewDetector.ProcessBatch(y)
	t.rec.processEnd[k] = t.rec.now()
	t.inflight[k].Release()
	return alarms, err
}

// buildSpans turns the recorded timestamps into spans. Per batch: a
// root covering decode to the last callback, the decode and
// Monitor.Ingest calls on the producer side, and on the worker side an
// engine.batch span that starts when the worker could have started on
// the batch (the previous batch done and this one queued) and holds the
// detector call and the alarm callbacks as children, so its self time
// is the engine's own dispatch, wake-up and bookkeeping.
func buildSpans(rec *recorder, batches int, incidents bool) []span {
	spans := make([]span, 0, 5*batches+2*len(rec.emits))
	e := 0
	prevEnd := int64(0)
	for k := 0; k < batches; k++ {
		first := e
		end := rec.processEnd[k]
		for e < len(rec.emits) && rec.emits[e].batch == k {
			end = max(end, rec.emits[e].end)
			e++
		}
		workStart := rec.processStart[k]
		if incidents {
			workStart = rec.advanceStart[k]
		}
		root := len(spans)
		spans = append(spans,
			span{"batch", rec.decodeStart[k], end, -1, k},
			span{"netmeas.decode", rec.decodeStart[k], rec.decodeEnd[k], root, k},
			span{"engine.ingest", rec.ingestStart[k], rec.ingestEnd[k], root, k},
			span{"engine.batch", min(max(prevEnd, rec.ingestEnd[k]), workStart), end, root, k},
		)
		eb := root + 3
		if incidents {
			spans = append(spans, span{"incident.advance", rec.advanceStart[k], rec.advanceEnd[k], eb, k})
		}
		spans = append(spans, span{"core.process", rec.processStart[k], rec.processEnd[k], eb, k})
		for _, em := range rec.emits[first:e] {
			spans = append(spans, span{"engine.emit", em.start, em.end, eb, k})
			if incidents {
				spans = append(spans, span{"incident.observe", em.observeStart, em.observeEnd, len(spans) - 1, k})
			}
		}
		prevEnd = end
	}
	return spans
}

// layerMetrics runs the untraced and the traced in-process pipeline and
// the stand-alone kernel timings, and returns the per-layer metrics of
// the repo's packages.
func layerMetrics(w workload, tr *trace, outDir string) (map[string]float64, error) {
	out := map[string]float64{}
	loops := w.traceLoops
	bins := float64(loops * streamBins)
	batches := loops * streamFrames

	// Seed one detector exactly as AddView does, and keep its fresh state
	// so the traced run starts from the same model as the untraced one.
	host := newMonitor(nil)
	begin := time.Now()
	if err := netanomaly.AddView(host, viewName, tr.history, tr.topo, netanomaly.WithDetector(w.detector)); err != nil {
		return nil, err
	}
	out["core.seed_ms"] = msSince(begin)
	det, err := host.Detector(viewName)
	host.Close()
	if err != nil {
		return nil, err
	}
	var fresh bytes.Buffer
	begin = time.Now()
	if err := det.Snapshot(&fresh); err != nil {
		return nil, err
	}
	out["core.snapshot_ms"] = msSince(begin)
	out["core.snapshot_bytes"] = float64(fresh.Len())

	// Untraced: the pipeline as ingestd runs it, IngestBinary included.
	sink := newAlarmSink(w, tr, nil)
	mon := newMonitor(sink.onAlarm)
	if err := mon.AddDetectorView(viewName, det); err != nil {
		return nil, err
	}
	dec, err := netanomaly.NewBinaryDecoder(tr.reader(loops))
	if err != nil {
		return nil, err
	}
	begin = time.Now()
	if err := mon.IngestBinary(viewName, dec); err != nil {
		return nil, err
	}
	mon.Close()
	untracedS := time.Since(begin).Seconds()
	if errs := mon.Errs(); len(errs) > 0 {
		return nil, errs[0]
	}
	untracedAlarms := sink.alarms

	begin = time.Now()
	if err := det.Restore(bytes.NewReader(fresh.Bytes())); err != nil {
		return nil, err
	}
	out["core.restore_ms"] = msSince(begin)

	// Traced: the same pipeline taken apart so that each call is timed.
	rec := newRecorder(batches)
	sink = newAlarmSink(w, tr, rec)
	mon = newMonitor(sink.onAlarm)
	wrapped := &tracedDetector{ViewDetector: det, rec: rec, corr: sink.corr, inflight: make([]*netmeas.FrameBatch, batches)}
	if err := mon.AddDetectorView(viewName, wrapped); err != nil {
		return nil, err
	}
	dec, err = netanomaly.NewBinaryDecoder(tr.reader(loops))
	if err != nil {
		return nil, err
	}
	pool := netmeas.NewFrameBatchPool(frameBins, tr.stream.Cols())
	rec.base = time.Now() // the traced run begins
	for k := 0; k < batches; k++ {
		fb := pool.Get()
		rec.decodeStart[k] = rec.now()
		rows, err := dec.ReadBatch(fb)
		rec.decodeEnd[k] = rec.now()
		if rows != frameBins || (err != nil && err != io.EOF) {
			mon.Close()
			return nil, fmt.Errorf("traced decode: batch %d has %d rows: %v", k, rows, err)
		}
		wrapped.inflight[k] = fb
		rec.ingestStart[k] = rec.now()
		err = mon.Ingest(viewName, fb.Rows(rows))
		rec.ingestEnd[k] = rec.now()
		if err != nil {
			mon.Close()
			return nil, err
		}
	}
	mon.Flush()
	tracedNs := rec.now()
	var ckpt bytes.Buffer
	begin = time.Now()
	if err := mon.Checkpoint(&ckpt); err != nil {
		return nil, err
	}
	out["engine.checkpoint_ms"] = msSince(begin)
	mon.Close()
	if errs := mon.Errs(); len(errs) > 0 {
		return nil, errs[0]
	}
	if sink.alarms != untracedAlarms {
		return nil, fmt.Errorf("traced run raised %d alarms, untraced %d", sink.alarms, untracedAlarms)
	}
	// Traced over untraced bins/s: the same bins, so the inverse ratio of the times.
	out["trace.overhead_ratio"] = untracedS / (float64(tracedNs) / 1e9)

	spans := buildSpans(rec, batches, w.incidents)
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, spans); err != nil {
		return nil, err
	}
	totals := totalsByName(spans)
	total := func(name string) *layerTotal {
		if t := totals[name]; t != nil {
			return t
		}
		return &layerTotal{}
	}
	alarms := float64(sink.alarms)
	out["netmeas.decode_ns_per_bin"] = float64(total("netmeas.decode").self) / bins
	out["engine.ingest_ns_per_bin"] = float64(total("engine.ingest").dur) / bins
	out["engine.self_ns_per_bin"] = float64(total("engine.batch").self) / bins
	out["engine.emit_ns_per_alarm"] = ratio(float64(total("engine.emit").self), alarms)
	out["core.process_ns_per_bin"] = float64(total("core.process").dur) / bins
	out["core.busy_share"] = float64(total("core.process").dur) / float64(tracedNs)
	waits := make([]float64, batches)
	for k := range waits {
		start := rec.processStart[k]
		if w.incidents {
			start = rec.advanceStart[k]
		}
		waits[k] = float64(max(start-rec.ingestEnd[k], 0)) / 1e3
	}
	out["engine.queue_wait_us_p50"] = percentile(waits, 50)
	out["engine.queue_wait_us_p90"] = percentile(waits, 90)

	out["incident.observe_ns_per_alarm"] = ratio(float64(total("incident.observe").dur), float64(total("incident.observe").count))
	out["incident.advance_ns"] = median(total("incident.advance").durSamples)
	if sink.corr != nil {
		st := sink.corr.Stats()
		out["incident.merged_ratio"] = ratio(float64(st.Merged), alarms)
		out["incident.opened"] = float64(st.Opened)
	} else {
		out["incident.merged_ratio"], out["incident.opened"] = 0, 0
	}
	out["core.hybrid_escalated_ratio"], out["core.hybrid_identified_ratio"] = 0, 0
	if h, ok := det.(*core.HybridDetector); ok {
		hs := h.HybridStats()
		out["core.hybrid_escalated_ratio"] = float64(hs.Escalated) / bins
		out["core.hybrid_identified_ratio"] = ratio(float64(hs.Identified), float64(hs.Escalated))
	}

	var refits []float64
	for i := 0; i < 3; i++ {
		begin = time.Now()
		if err := det.Refit(); err != nil {
			return nil, err
		}
		refits = append(refits, msSince(begin))
	}
	out["core.refit_ms"] = median(refits)

	if err := kernelMetrics(w, tr, det, out); err != nil {
		return nil, err
	}
	return out, nil
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }

// forEachBatch calls fn on every 64-bin batch of the stream, as views
// into the stream matrix.
func forEachBatch(stream *mat.Dense, fn func(*mat.Dense)) {
	cols := stream.Cols()
	raw := stream.RawData()
	for b := 0; b+frameBins <= stream.Rows(); b += frameBins {
		fn(mat.NewDense(frameBins, cols, raw[b*cols:(b+frameBins)*cols]))
	}
}

// perPass times fn, one pass over the stream, repeating it until a
// fifth of a second has gone by, and returns the mean time of a pass.
func perPass(fn func()) time.Duration {
	begin := time.Now()
	passes := 0
	for passes == 0 || time.Since(begin) < 200*time.Millisecond {
		fn()
		passes++
	}
	return time.Since(begin) / time.Duration(passes)
}

// kernelMetrics times single public functions on the workload's trace,
// outside any pipeline: the wire codec, the detection and identification
// kernels, the triage forecaster and the factorizations a fit runs.
func kernelMetrics(w workload, tr *trace, det core.ViewDetector, out map[string]float64) error {
	out["netmeas.encode_ns_per_bin"] = tr.encodeS * 1e9 / streamBins

	// Decode alone, on one goroutine, for the allocation and read counts.
	dec, err := netanomaly.NewBinaryDecoder(tr.reader(8))
	if err != nil {
		return err
	}
	pool := netmeas.NewFrameBatchPool(frameBins, tr.stream.Cols())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decoded := 0
	for {
		fb := pool.Get()
		rows, err := dec.ReadBatch(fb)
		fb.Release()
		decoded += rows
		if err == io.EOF || rows == 0 {
			break
		}
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out["netmeas.decode_allocs_per_bin"] = float64(after.Mallocs-before.Mallocs) / float64(decoded)
	out["netmeas.read_calls_per_bin"] = float64(dec.ReadCalls()) / float64(decoded)

	// Detection and identification: the subspace model the workload's
	// backend holds, or for the hybrid (which keeps its own private) the
	// model its identification stage is built from.
	var diag *core.Diagnoser
	if d, ok := det.(interface{ Diagnoser() *core.Diagnoser }); ok {
		diag = d.Diagnoser()
	} else if diag, err = core.NewDiagnoser(tr.history, tr.topo.RoutingMatrix(), core.Options{Confidence: 0.999}); err != nil {
		return err
	}
	alarmed := 0
	detect := perPass(func() {
		forEachBatch(tr.stream, func(y *mat.Dense) { diag.Detector().DetectBatch(y) })
	})
	diagnose := perPass(func() {
		alarmed = 0
		forEachBatch(tr.stream, func(y *mat.Dense) {
			_, flags := diag.DiagnoseBatch(y)
			for _, f := range flags {
				if f {
					alarmed++
				}
			}
		})
	})
	out["core.detect_ns_per_bin"] = float64(detect) / streamBins
	out["core.identify_us_per_alarm"] = ratio(float64(max(diagnose-detect, 0))/1e3, float64(alarmed))

	out["forecast.process_ns_per_bin"] = 0
	if w.detector == netanomaly.DetectorHybrid {
		triage, err := forecast.NewDetector(tr.history, forecast.Config{Kind: forecast.EWMA, Window: historyBins})
		if err != nil {
			return err
		}
		var perr error
		pass := perPass(func() {
			forEachBatch(tr.stream, func(y *mat.Dense) {
				if _, err := triage.ProcessBatch(y); err != nil {
					perr = err
				}
			})
		})
		if perr != nil {
			return perr
		}
		out["forecast.process_ns_per_bin"] = float64(pass) / streamBins
	}

	// The factorizations behind a fit, on the centered seed window.
	window := tr.history.Clone()
	window.CenterColumns()
	begin := time.Now()
	if _, _, _, err := mat.SVD(window); err != nil {
		return err
	}
	out["mat.svd_ms"] = msSince(begin)
	begin = time.Now()
	gram := window.Gram()
	out["mat.gram_ms"] = msSince(begin)
	begin = time.Now()
	if _, _, err := mat.SymEig(gram); err != nil {
		return err
	}
	out["mat.symeig_ms"] = msSince(begin)
	return nil
}

// backendKinds are the nine shipped backends, in the order the table
// prints them.
var backendKinds = []netanomaly.DetectorKind{
	netanomaly.DetectorSubspace, netanomaly.DetectorIncremental, netanomaly.DetectorSketch,
	netanomaly.DetectorMultiscale, netanomaly.DetectorMultiFlow, netanomaly.DetectorEWMA,
	netanomaly.DetectorHoltWinters, netanomaly.DetectorFourier, netanomaly.DetectorHybrid,
}

// backendTable measures every backend through the bare ViewDetector
// interface on the workload's trace: one pass of the stream in 64-bin
// batches, one synchronous refit, and the size of a snapshot. Each
// detector is constructed by AddView, so it is exactly what a view of
// that kind gets.
func backendTable(tr *trace, out map[string]float64) error {
	for _, kind := range backendKinds {
		history, stream := tr.history, tr.stream
		if kind == netanomaly.DetectorMultiFlow {
			ms, err := netanomaly.DeriveLinkMetrics(tr.topo, tr.od, netanomaly.LinkMetricConfig{Seed: trafficSeed})
			if err != nil {
				return err
			}
			stacked, err := ms.Stacked()
			if err != nil {
				return err
			}
			cols := stacked.Cols()
			history = mat.NewDense(historyBins, cols, stacked.RawData()[:historyBins*cols])
			stream = mat.NewDense(streamBins, cols, stacked.RawData()[historyBins*cols:])
		}
		host := newMonitor(nil)
		err := netanomaly.AddView(host, viewName, history, tr.topo, netanomaly.WithDetector(kind))
		if err != nil {
			host.Close()
			return fmt.Errorf("backend %s: %w", kind, err)
		}
		det, err := host.Detector(viewName)
		host.Close()
		if err != nil {
			return err
		}
		var perr error
		begin := time.Now()
		forEachBatch(stream, func(y *mat.Dense) {
			if _, err := det.ProcessBatch(y); err != nil {
				perr = err
			}
		})
		process := time.Since(begin)
		if perr != nil {
			return fmt.Errorf("backend %s: %w", kind, perr)
		}
		begin = time.Now()
		if err := det.Refit(); err != nil {
			return fmt.Errorf("backend %s: refit: %w", kind, err)
		}
		refit := msSince(begin)
		var snap bytes.Buffer
		if err := det.Snapshot(&snap); err != nil {
			return fmt.Errorf("backend %s: snapshot: %w", kind, err)
		}
		prefix := "backend." + string(kind)
		out[prefix+".process_ns_per_bin"] = float64(process) / streamBins
		out[prefix+".refit_ms"] = refit
		out[prefix+".snapshot_bytes"] = float64(snap.Len())
	}
	return nil
}
