package netanomaly_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"netanomaly"
	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// TestRestoredStateDoesNotAliasCheckpoint: a restore decodes in place
// out of the checkpoint's bytes, so restored state that kept a sub-slice
// of them — a string, a float slice, a window — would change when the
// buffer is reused, and would hold the whole checkpoint live. Each of
// the nine kinds, and a two-view monitor with an incidents envelope
// after it, restores from one buffer that is then overwritten:
// re-checkpointing must still give the original bytes. The 400-bin
// windows are shorter than the 1024-bin seed history, so the streamed
// bins wrap the checkpointed rings.
func TestRestoredStateDoesNotAliasCheckpoint(t *testing.T) {
	const historyBins, streamBins, batch = 1024, 200, 50
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(44)
	cfg.Bins = historyBins + streamBins
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := netanomaly.LinkLoads(topo, od)
	ms, err := netanomaly.DeriveLinkMetrics(topo, od, netanomaly.LinkMetricConfig{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := ms.Stacked()
	if err != nil {
		t.Fatal(err)
	}
	rows := func(y *netanomaly.Matrix, from, to int) *netanomaly.Matrix {
		c := y.Cols()
		return netanomaly.NewMatrix(to-from, c, y.RawData()[from*c:to*c])
	}
	routing := topo.RoutingMatrix()
	restoreOverwritten := func(t *testing.T, want []byte, restore func(src *bytes.Buffer) error, checkpoint func(*bytes.Buffer) error) {
		t.Helper()
		buf := bytes.Clone(want)
		if err := restore(bytes.NewBuffer(buf)); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xa5
		}
		var got bytes.Buffer
		if err := checkpoint(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("re-checkpoint after overwriting the restored buffer differs from the original (%d vs %d bytes): restored state aliases the checkpoint", got.Len(), len(want))
		}
	}

	for _, kind := range backend.Kinds {
		t.Run(kind, func(t *testing.T) {
			y := loads
			if kind == string(netanomaly.DetectorMultiFlow) {
				y = stacked
			}
			spec := backend.Spec{Kind: kind, Window: 400}
			det, err := backend.Build(spec, rows(y, 0, historyBins), routing)
			if err != nil {
				t.Fatal(err)
			}
			for from := historyBins; from < historyBins+streamBins; from += batch {
				if _, err := det.ProcessBatch(rows(y, from, from+batch)); err != nil {
					t.Fatal(err)
				}
			}
			var want bytes.Buffer
			if err := det.Snapshot(&want); err != nil {
				t.Fatal(err)
			}
			restored, err := backend.New(spec, routing)
			if err != nil {
				t.Fatal(err)
			}
			restoreOverwritten(t, want.Bytes(),
				func(src *bytes.Buffer) error { return restored.Restore(src) },
				func(w *bytes.Buffer) error { return restored.Snapshot(w) })
		})
	}

	t.Run("monitor+incidents", func(t *testing.T) {
		monCfg := netanomaly.MonitorConfig{Workers: 1}
		views := []netanomaly.ViewSpec{
			{Name: "east", Topo: topo},
			{Name: "west", Topo: topo, Options: []netanomaly.ViewOption{netanomaly.WithDetector(netanomaly.DetectorHybrid)}},
		}
		mon := netanomaly.NewMonitor(monCfg)
		defer mon.Close()
		for _, v := range views {
			if err := netanomaly.AddView(mon, v.Name, rows(loads, 0, historyBins), topo, v.Options...); err != nil {
				t.Fatal(err)
			}
			if _, err := mon.ProcessBatch(v.Name, rows(loads, historyBins, historyBins+streamBins)); err != nil {
				t.Fatal(err)
			}
		}
		corr := netanomaly.NewCorrelator()
		corr.Observe("east", netanomaly.Alarm{Seq: 190, Diagnosis: core.Diagnosis{Flow: 7, SPE: 3e15, Bytes: 9e7}})
		corr.Observe("west", netanomaly.Alarm{Seq: 191, Diagnosis: core.Diagnosis{Flow: 7, SPE: 2e15, Bytes: 8e7}})
		corr.Observe("west", netanomaly.Alarm{Seq: 195, Diagnosis: core.Diagnosis{Flow: -1, SPE: 1e15}})
		if open := corr.Stats().Open; open != 2 {
			t.Fatalf("%d incidents open, want 2", open)
		}
		checkpoint := func(mon *netanomaly.Monitor, corr *netanomaly.Correlator, w *bytes.Buffer) error {
			if err := mon.Checkpoint(w); err != nil {
				return err
			}
			return corr.Snapshot(w)
		}
		var want bytes.Buffer
		if err := checkpoint(mon, corr, &want); err != nil {
			t.Fatal(err)
		}
		var restored *netanomaly.Monitor
		defer func() {
			if restored != nil {
				restored.Close()
			}
		}()
		restoredCorr := netanomaly.NewCorrelator()
		restoreOverwritten(t, want.Bytes(),
			func(src *bytes.Buffer) (err error) {
				if restored, err = netanomaly.Restore(monCfg, src, views); err != nil {
					return err
				}
				return restoredCorr.Restore(src)
			},
			func(w *bytes.Buffer) error { return checkpoint(restored, restoredCorr, w) })
	})
}

// TestWarmStartRestoreAllocations holds the in-process warm start of a
// one-view subspace checkpoint at the ledger's wide scale
// (synthetic:30:45:7, 120 links, a 1008-bin window: a 975 KB checkpoint)
// to 3.5 MB allocated. That buys the one read of the checkpoint, the
// restored window and the model with its identifier; a decode that
// copied each nested payload, and the window twice more, allocated
// 6.9 MB.
func TestWarmStartRestoreAllocations(t *testing.T) {
	const budget = 3.5e6
	topo, err := topology.Parse("synthetic:30:45:7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultConfig(3)
	cfg.Bins = 1008
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	week := traffic.LinkLoads(topo, gen.Generate())
	monCfg := netanomaly.MonitorConfig{Workers: 1}
	mon := netanomaly.NewMonitor(monCfg)
	if err := netanomaly.AddView(mon, "net", week, topo); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := mon.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	mon.Close()
	views := []netanomaly.ViewSpec{{Name: "net", Topo: topo}}
	// The least of three restores: a stray allocation elsewhere in the
	// process can only inflate one.
	least := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		restored, err := netanomaly.Restore(monCfg, bytes.NewReader(ckpt.Bytes()), views)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		restored.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Fatalf("restoring a %d-byte checkpoint allocated %d bytes, budget %.0f", ckpt.Len(), least, budget)
	}
	t.Logf("restoring a %d-byte checkpoint allocated %d bytes", ckpt.Len(), least)
}

// TestCheckpointAllocations holds Monitor.Checkpoint of a one-view
// monitor at the ledger's wide scale (synthetic:30:45:7, 120 links, a
// 1008-bin window) to 1.2x the checkpoint's bytes allocated, for the
// subspace, ewma, hybrid and sketch backends: a sizing pass lets the
// envelope be built in one buffer of its exact size. A buffer grown by
// append allocated 1.8-2.4x for ewma, hybrid and sketch; subspace's
// fields after its window happened to fit the allocator's rounding of
// the one grow the window made.
func TestCheckpointAllocations(t *testing.T) {
	topo, err := topology.Parse("synthetic:30:45:7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultConfig(3)
	cfg.Bins = 1008
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	week := traffic.LinkLoads(topo, gen.Generate())
	kinds := []netanomaly.DetectorKind{netanomaly.DetectorSubspace, netanomaly.DetectorEWMA, netanomaly.DetectorHybrid, netanomaly.DetectorSketch}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{Workers: 1})
			defer mon.Close()
			if err := netanomaly.AddView(mon, "net", week, topo, netanomaly.WithDetector(kind)); err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := mon.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			least := uint64(1 << 62)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				err := mon.Checkpoint(io.Discard)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			ratio := float64(least) / float64(ckpt.Len())
			if ratio > 1.2 {
				t.Fatalf("a %d-byte checkpoint allocated %d bytes (%.2fx), budget 1.2x", ckpt.Len(), least, ratio)
			}
			t.Logf("a %d-byte checkpoint allocated %d bytes (%.2fx)", ckpt.Len(), least, ratio)
		})
	}
}
