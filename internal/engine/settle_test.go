package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

var errSettle = errors.New("settle failed")

// settleRecorder counts bins like countDetector, alarms on the first bin
// of every batch, and logs each ProcessBatch and Settle by batch index;
// its Settle fails on batch failAt.
type settleRecorder struct {
	countDetector
	bins   int
	failAt int
	log    *eventLog
}

type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (d *settleRecorder) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	seq := d.Stats().Processed
	if _, err := d.countDetector.ProcessBatch(y); err != nil {
		return nil, err
	}
	d.log.add("process %d", seq/d.bins)
	return []core.Alarm{{Seq: seq, Diagnosis: core.Diagnosis{Bin: seq, Flow: 3, SPE: 2, Threshold: 1}}}, nil
}

func (d *settleRecorder) Settle() error {
	k := d.Stats().Processed/d.bins - 1
	d.log.add("settle %d", k)
	if k == d.failAt {
		return errSettle
	}
	return nil
}

// TestWorkerSettlesAfterAlarms: the worker delivers batch k's alarms
// before it settles batch k, and settles it before processing batch k+1;
// a Settle failure reaches Errs.
func TestWorkerSettlesAfterAlarms(t *testing.T) {
	const links, bins, batches = 2, 8, 4
	log := &eventLog{}
	mon := NewMonitor(Config{Workers: 2, BatchSize: bins, OnAlarm: func(a Alarm) {
		log.add("alarm %d", a.Seq/bins)
	}})
	defer mon.Close()
	det := &settleRecorder{countDetector: countDetector{links: links}, bins: bins, failAt: 2, log: log}
	if err := mon.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	if err := mon.Ingest("v", mat.Zeros(batches*bins, links)); err != nil {
		t.Fatal(err)
	}
	mon.Flush()
	var want []string
	for k := 0; k < batches; k++ {
		want = append(want, fmt.Sprintf("process %d", k), fmt.Sprintf("alarm %d", k), fmt.Sprintf("settle %d", k))
	}
	log.mu.Lock()
	got := log.events
	log.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order:\n got %q\nwant %q", got, want)
	}
	errs := mon.Errs()
	if len(errs) != 1 || !errors.Is(errs[0], errSettle) {
		t.Fatalf("Errs() = %v, want the one Settle failure", errs)
	}
}

// TestCheckpointAfterIngestMatchesSynchronous: a sketch view checkpointed
// right after an asynchronous Ingest — the worker may still be settling —
// carries the same detector bytes, and raised the same alarms, as one fed
// the same batches through synchronous ProcessBatch.
func TestCheckpointAfterIngestMatchesSynchronous(t *testing.T) {
	const historyBins, streamBins, batch = 504, 64, 16
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(81)
	cfg.Bins = historyBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	od := gen.Generate()
	od.Set(historyBins+20, 9, od.At(historyBins+20, 9)+9e7)
	y := traffic.LinkLoads(topo, od)
	links := topo.NumLinks()
	history := mat.NewDense(historyBins, links, y.RawData()[:historyBins*links])
	stream := mat.NewDense(streamBins, links, y.RawData()[historyBins*links:])

	run := func(feed func(*Monitor) error) ([]Alarm, []byte) {
		t.Helper()
		det, err := core.NewSketchDetector(history, topo.RoutingMatrix(), core.SketchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		mon := NewMonitor(Config{Workers: 1, BatchSize: batch})
		defer mon.Close()
		if err := mon.AddDetectorView("v", det); err != nil {
			t.Fatal(err)
		}
		if err := feed(mon); err != nil {
			t.Fatal(err)
		}
		var ck bytes.Buffer
		if err := mon.CheckpointView("v", &ck); err != nil {
			t.Fatal(err)
		}
		return mon.TakeAlarms(), nestedDetector(t, ck.Bytes())
	}
	asyncAlarms, asyncState := run(func(m *Monitor) error { return m.Ingest("v", stream) })
	syncAlarms, syncState := run(func(m *Monitor) error {
		for b := 0; b < streamBins; b += batch {
			if _, err := m.ProcessBatch("v", mat.NewDense(batch, links, stream.RawData()[b*links:(b+batch)*links])); err != nil {
				return err
			}
		}
		return nil
	})
	if len(asyncAlarms) == 0 || !reflect.DeepEqual(asyncAlarms, syncAlarms) {
		t.Fatalf("alarms: Ingest %+v, ProcessBatch %+v", asyncAlarms, syncAlarms)
	}
	if !bytes.Equal(asyncState, syncState) {
		t.Fatal("detector state checkpointed after Ingest differs from the synchronous path's")
	}
}

// nestedDetector returns the detector envelope inside a CheckpointView
// envelope, skipping the queue counters, which Ingest advances and
// synchronous ProcessBatch does not.
func nestedDetector(t *testing.T, view []byte) []byte {
	t.Helper()
	var det []byte
	err := core.DecodeSnapshot(bytes.NewReader(view), core.SnapKindView, func(sr *core.SnapshotReader) error {
		_ = sr.String() // view name
		sr.Int()        // links
		for range 4 {
			sr.I64() // enqueued, dropped, dropped batches, rejected
		}
		sr.NonNegInt() // queue high-water
		sr.Nested(func(r io.Reader) (err error) {
			det, err = io.ReadAll(r)
			return err
		})
		return sr.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}
