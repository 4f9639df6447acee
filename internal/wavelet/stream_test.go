package wavelet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/traffic"
)

// seeded returns a function that seeds the detector a constructor just
// returned on history — the construction backend.Build runs — passing a
// constructor error through.
func seeded[D interface{ Seed(*mat.Dense) error }](det D, err error) func(history *mat.Dense) (D, error) {
	return func(history *mat.Dense) (D, error) {
		if err == nil {
			err = det.Seed(history)
		}
		return det, err
	}
}

// streamWaveletData builds a 1024-bin seed plus a 256-bin continuation
// with a sustained dyadic-misaligned anomaly injected at stream offset
// spikeStart (length 8, flow 3->8), mirroring the batch multiscale test.
func streamWaveletData(t *testing.T, seed int64, spikeStart int) (history, stream *mat.Dense, links int) {
	t.Helper()
	topo, _, _ := buildWaveletDataset(t, seed)
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = 1024 + 256
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	if spikeStart >= 0 {
		flow := topo.FlowID(3, 8)
		for b := 1024 + spikeStart; b < 1024+spikeStart+8; b++ {
			x.Set(b, flow, x.At(b, flow)+5e7)
		}
	}
	y := traffic.LinkLoads(topo, x)
	links = topo.NumLinks()
	history = mat.NewDense(1024, links, y.RawData()[:1024*links])
	stream = mat.NewDense(256, links, y.RawData()[1024*links:])
	return history, stream, links
}

func TestStreamDetectorFindsSustainedAnomaly(t *testing.T) {
	const spikeStart = 67 // misaligned with the dyadic grid
	history, stream, _ := streamWaveletData(t, 94, spikeStart)
	sd, err := seeded(NewStreamDetector(history.Cols(), StreamConfig{Levels: 3}))(history)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Levels() != 3 {
		t.Fatalf("levels = %d", sd.Levels())
	}
	// Feed in deliberately awkward batch sizes so blocks straddle batch
	// boundaries.
	var alarms []struct{ seq int }
	for b := 0; b < stream.Rows(); {
		n := 7
		if b+n > stream.Rows() {
			n = stream.Rows() - b
		}
		chunk := mat.NewDense(n, stream.Cols(), stream.RawData()[b*stream.Cols():(b+n)*stream.Cols()])
		got, err := sd.ProcessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range got {
			if a.Flow != -1 {
				t.Fatalf("multiscale alarm carries flow %d, want -1", a.Flow)
			}
			if a.SPE <= a.Threshold {
				t.Fatal("alarm below threshold")
			}
			alarms = append(alarms, struct{ seq int }{a.Seq})
		}
		b += n
	}
	found := false
	for _, a := range alarms {
		// The anomaly spans [spikeStart, spikeStart+8); a detection at
		// any scale reports a region start within one coarsest block.
		if a.seq >= spikeStart-8 && a.seq < spikeStart+8 {
			found = true
		}
	}
	if !found {
		t.Fatalf("sustained anomaly not alarmed; alarms: %+v", alarms)
	}
	if len(alarms) > 12 {
		t.Fatalf("too many alarms: %d", len(alarms))
	}
	if got := sd.Stats(); got.Processed != 256 || got.Backend != "multiscale" {
		t.Fatalf("stats = %+v", got)
	}
}

func TestStreamDetectorRefitAndSeed(t *testing.T) {
	history, stream, links := streamWaveletData(t, 95, -1)
	sd, err := seeded(NewStreamDetector(history.Cols(), StreamConfig{Levels: 2, RefitEvery: 64}))(history)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.ProcessBatch(mat.Zeros(4, 3)); err == nil {
		t.Fatal("mis-sized batch accepted")
	}
	if _, err := sd.ProcessBatch(stream); err != nil {
		t.Fatal(err)
	}
	if err := sd.Settle(); err != nil {
		t.Fatal(err)
	}
	if sd.Stats().Refits == 0 {
		t.Fatal("no automatic refit completed")
	}
	if err := sd.Refit(); err != nil {
		t.Fatal(err)
	}
	if err := sd.Seed(history); err != nil {
		t.Fatal(err)
	}
	if err := sd.Seed(mat.Zeros(16, links)); err == nil {
		t.Fatal("too-short seed accepted")
	}
	if got := sd.Stats().Processed; got != 256 {
		t.Fatalf("processed %d want 256", got)
	}
}

// TestStreamDetectorNonFiniteBin: a block with a NaN load must not pass
// as clean — in the refit window it would fail every refit until it
// rolled out. It raises no alarm and stays out of the window, the batch
// reports core.ErrNonFinite naming the bin, and every later refit,
// automatic or explicit, succeeds.
func TestStreamDetectorNonFiniteBin(t *testing.T) {
	const badBin, batch = 10, 16
	history, stream, _ := streamWaveletData(t, 94, -1)
	sd, err := seeded(NewStreamDetector(history.Cols(), StreamConfig{Levels: 3, RefitEvery: 64}))(history)
	if err != nil {
		t.Fatal(err)
	}
	y := stream.Clone()
	y.Set(badBin, 2, math.NaN())
	for from := 0; from < y.Rows(); from += batch {
		alarms, err := sd.ProcessBatch(mat.NewDense(batch, y.Cols(), y.RawData()[from*y.Cols():(from+batch)*y.Cols()]))
		if from == 0 {
			if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("bin %d ", badBin)) {
				t.Fatalf("batch with a NaN load: got %v, want ErrNonFinite naming bin %d", err, badBin)
			}
			for _, a := range alarms {
				if a.Seq >= 8 && a.Seq < 16 {
					t.Fatalf("the NaN bin's block alarmed: %+v", a)
				}
			}
		} else if err != nil {
			t.Fatalf("batch at bin %d: %v", from, err)
		}
		if err := sd.Settle(); err != nil {
			t.Fatalf("Settle after bin %d: %v", from, err)
		}
	}
	if got := sd.Stats(); got.Refits != got.Processed/64 {
		t.Fatalf("%d refits over %d bins, want one per 64", got.Refits, got.Processed)
	}
	if err := sd.Refit(); err != nil {
		t.Fatalf("refit after a NaN bin: %v", err)
	}
}

func TestStreamDetectorValidation(t *testing.T) {
	history, _, links := streamWaveletData(t, 96, -1)
	if _, err := seeded(NewStreamDetector(links, StreamConfig{Levels: 3}))(mat.Zeros(links, links)); err == nil {
		t.Fatal("insufficient history accepted")
	}
	if _, err := seeded(NewStreamDetector(history.Cols(), StreamConfig{Levels: 3, Window: 16}))(history); err == nil {
		t.Fatal("undersized window accepted")
	}
	sd, err := seeded(NewStreamDetector(history.Cols(), StreamConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Levels() != 3 {
		t.Fatalf("default levels = %d", sd.Levels())
	}
}
