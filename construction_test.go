package netanomaly_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"netanomaly"
	"netanomaly/internal/backend"
)

// TestOneConstructionPathEveryKind runs every backend kind through the
// single kind→detector builder and the public view lifecycle built on
// it: New and Build report the kind they were asked for, a view AddView
// built checkpoints and comes back byte-for-byte through a Restore whose
// ViewSpec carries no history, and an unknown kind or a wrong-width
// history fails with an error naming the kind.
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
			unseeded, err := backend.New(backend.Spec{Kind: kind}, routing)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := unseeded.Stats(), det.Stats(); got.Backend != kind || got.Links != want.Links || got.Processed != 0 {
				t.Fatalf("New(%q) reports %+v before any seed, want kind %q on %d links", kind, got, kind, want.Links)
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
			spec := netanomaly.ViewSpec{Name: kind, Topo: topo, Options: opts}
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
	nameless := netanomaly.ViewSpec{Topo: topo}
	restored, err := netanomaly.Restore(monCfg, &ckpt, []netanomaly.ViewSpec{nameless})
	if err == nil || !strings.Contains(err.Error(), `view "net" but no ViewSpec describes it`) {
		t.Fatalf("Restore with a nameless spec: err = %v, want the no-ViewSpec error", err)
	}
	if restored != nil {
		restored.Close()
		t.Fatal("failed Restore returned a monitor")
	}
}

// TestRestoreTruncatedCheckpoint cuts a two-view checkpoint at every
// envelope boundary — the monitor's header and view count, each view
// envelope's header, the start and header of the detector envelope it
// carries, its end, the reserved trailer — and in the middle of every
// header and detector payload. Every cut must fail Restore with a
// classified error and no monitor, and must leave none of the half-built
// monitor's goroutines running.
func TestRestoreTruncatedCheckpoint(t *testing.T) {
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(36)
	cfg.Bins = 96
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	history := netanomaly.LinkLoads(topo, od)
	monCfg := netanomaly.MonitorConfig{Workers: 2}
	// In name order, the order Checkpoint writes them.
	views := []netanomaly.ViewSpec{
		{Name: "a", Topo: topo},
		{Name: "b", Topo: topo, Options: []netanomaly.ViewOption{netanomaly.WithDetector(netanomaly.DetectorSketch)}},
	}
	mon := netanomaly.NewMonitor(monCfg)
	for _, v := range views {
		if err := netanomaly.AddView(mon, v.Name, history, topo, v.Options...); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := mon.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	mon.Close()
	full := ckpt.Bytes()
	whole, err := netanomaly.Restore(monCfg, bytes.NewReader(full), views)
	if err != nil {
		t.Fatal(err)
	}
	whole.Close()

	// An envelope header is magic, version, kind and a u64 payload
	// length. The monitor payload is the view count, the view envelopes
	// and three reserved 8-byte fields; a view payload is its name
	// (u32 length and bytes), link count and five counters, then the
	// detector's own envelope.
	const hdr = 14
	cuts := []int{0, hdr / 2, hdr, hdr + 8}
	at := hdr + 8
	for _, v := range views {
		end := at + hdr + int(binary.LittleEndian.Uint64(full[at+6:]))
		det := at + hdr + 4 + len(v.Name) + 8 + 5*8
		cuts = append(cuts, at+hdr/2, at+hdr, det, det+hdr/2, det+hdr, (det+hdr+end)/2, end-1)
		at = end
	}
	cuts = append(cuts, at, at+8, at+16, len(full)-1)
	if at+24 != len(full) {
		t.Fatalf("walked %d bytes of envelopes and trailer, checkpoint has %d", at+24, len(full))
	}

	for _, cut := range cuts {
		before := runtime.NumGoroutine()
		m, err := netanomaly.Restore(monCfg, bytes.NewReader(full[:cut]), views)
		if m != nil {
			m.Close()
			t.Fatalf("cut at %d of %d bytes: Restore returned a monitor", cut, len(full))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, netanomaly.ErrSnapshotFormat) {
			t.Fatalf("cut at %d of %d bytes: got %v, want truncation or corruption", cut, len(full), err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cut at %d: %d goroutines before Restore, %d after", cut, before, runtime.NumGoroutine())
			}
		}
	}
}
