package netanomaly_test

import (
	"bytes"
	"strings"
	"testing"

	"netanomaly"
	"netanomaly/internal/backend"
)

// TestOneConstructionPathEveryKind runs every backend kind through the
// single kind→detector builder and the public view lifecycle built on
// it: the builder reports the kind it was asked for, a view AddView
// built checkpoints and comes back through Restore byte-for-byte, and
// an unknown kind or a wrong-width history fails with an error naming
// the kind.
func TestOneConstructionPathEveryKind(t *testing.T) {
	const historyBins, streamBins = 1024, 64
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(28)
	cfg.Bins = historyBins + streamBins
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := netanomaly.LinkLoads(topo, od)
	ms, err := netanomaly.DeriveLinkMetrics(topo, od, netanomaly.LinkMetricConfig{Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := ms.Stacked()
	if err != nil {
		t.Fatal(err)
	}
	split := func(y *netanomaly.Matrix) (history, stream *netanomaly.Matrix) {
		c := y.Cols()
		return netanomaly.NewMatrix(historyBins, c, y.RawData()[:historyBins*c]),
			netanomaly.NewMatrix(streamBins, c, y.RawData()[historyBins*c:])
	}
	routing := topo.RoutingMatrix()

	if len(backend.Kinds) != 9 {
		t.Fatalf("builder lists %d kinds, want 9", len(backend.Kinds))
	}
	if _, err := backend.Build(backend.Spec{Kind: "bogus"}, loads, routing); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("unknown kind: err = %v, want one naming it", err)
	}
	for _, kind := range backend.Kinds {
		t.Run(kind, func(t *testing.T) {
			history, stream := split(loads)
			wrong, _ := split(stacked)
			if kind == string(netanomaly.DetectorMultiFlow) {
				wrong = history
				history, stream = split(stacked)
			}

			det, err := backend.Build(backend.Spec{Kind: kind}, history, routing)
			if err != nil {
				t.Fatal(err)
			}
			if got := det.Stats().Backend; got != kind {
				t.Fatalf("Build(%q) made a %q detector", kind, got)
			}
			if _, err := backend.Build(backend.Spec{Kind: kind}, wrong, routing); err == nil || !strings.Contains(err.Error(), kind) {
				t.Fatalf("wrong-width history: err = %v, want one naming %q", err, kind)
			}

			monCfg := netanomaly.MonitorConfig{Workers: 1, BatchSize: 32}
			opts := []netanomaly.ViewOption{netanomaly.WithDetector(netanomaly.DetectorKind(kind))}
			mon := netanomaly.NewMonitor(monCfg)
			defer mon.Close()
			if err := netanomaly.AddView(mon, kind, history, topo, opts...); err != nil {
				t.Fatal(err)
			}
			if kind == string(netanomaly.DetectorHybrid) {
				// The hybrid's triage stage is always ewma.
				det, err := mon.Detector(kind)
				if err != nil {
					t.Fatal(err)
				}
				if got := det.(*netanomaly.HybridDetector).HybridStats().Triage.Backend; got != string(netanomaly.DetectorEWMA) {
					t.Fatalf("hybrid triages with %q, want ewma", got)
				}
			}
			if err := mon.Ingest(kind, stream); err != nil {
				t.Fatal(err)
			}
			mon.Flush()
			var first bytes.Buffer
			if err := mon.Checkpoint(&first); err != nil {
				t.Fatal(err)
			}
			spec := netanomaly.ViewSpec{Name: kind, History: history, Topo: topo, Options: opts}
			restored, err := netanomaly.Restore(monCfg, bytes.NewReader(first.Bytes()), []netanomaly.ViewSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			var again bytes.Buffer
			if err := restored.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), again.Bytes()) {
				t.Fatalf("restored checkpoint differs: %d bytes, want %d", again.Len(), first.Len())
			}
		})
	}
}

// TestRestoreNeedsViewSpecByName pins that Restore matches specs to
// checkpointed views by name only: a spec with an empty Name describes
// no view, so restoring a checkpoint of view "net" with it fails and
// returns no monitor.
func TestRestoreNeedsViewSpecByName(t *testing.T) {
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(35)
	cfg.Bins = 256
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	history := netanomaly.LinkLoads(topo, od)
	monCfg := netanomaly.MonitorConfig{Workers: 1}
	mon := netanomaly.NewMonitor(monCfg)
	defer mon.Close()
	if err := netanomaly.AddView(mon, "net", history, topo); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := mon.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	nameless := netanomaly.ViewSpec{History: history, Topo: topo}
	restored, err := netanomaly.Restore(monCfg, &ckpt, []netanomaly.ViewSpec{nameless})
	if err == nil || !strings.Contains(err.Error(), `view "net" but no ViewSpec describes it`) {
		t.Fatalf("Restore with a nameless spec: err = %v, want the no-ViewSpec error", err)
	}
	if restored != nil {
		restored.Close()
		t.Fatal("failed Restore returned a monitor")
	}
}
