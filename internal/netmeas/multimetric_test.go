package netmeas

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
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

// multiMetricFixture builds a stacked history (1008 bins) and stream
// (144 bins) on Abilene with two injected anomalies in the stream: a
// byte-volume spike (moves bytes and flow counts) at byteBin and a
// flow-count-only surge (a scan signature: flows move, bytes do not)
// at scanBin. Returns the stacked matrices, the routing matrix, and
// the spiked flow id.
func multiMetricFixture(t *testing.T, seed int64, byteBin, scanBin int) (history, stream, routing *mat.Dense, flow int) {
	t.Helper()
	const historyBins, streamBins = 1008, 144
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = historyBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	od := gen.Generate()
	flow = topo.FlowID(2, 9)
	if byteBin >= 0 {
		od.Set(historyBins+byteBin, flow, od.At(historyBins+byteBin, flow)+9e7)
	}
	ms, err := LinkMetrics(topo, od, MetricConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if scanBin >= 0 {
		// ~40 flows/MB baseline: 60k extra flows is a loud scan that
		// carries no byte volume at all.
		ms.InjectFlowCountAnomaly(topo, flow, historyBins+scanBin, 6e4)
	}
	stacked, err := ms.Stacked()
	if err != nil {
		t.Fatal(err)
	}
	links := topo.NumLinks()
	cols := 3 * links
	history = mat.NewDense(historyBins, cols, stacked.RawData()[:historyBins*cols])
	stream = mat.NewDense(streamBins, cols, stacked.RawData()[historyBins*cols:])
	return history, stream, topo.RoutingMatrix(), flow
}

func TestMultiMetricDetectsByteAndScanAnomalies(t *testing.T) {
	const byteBin, scanBin = 40, 100
	history, stream, routing, flow := multiMetricFixture(t, 71, byteBin, scanBin)
	d, err := seeded(NewMultiMetricDetector(routing, MultiMetricConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stats(); got.Backend != "multiflow" || got.Links != stream.Cols() {
		t.Fatalf("stats = %+v", got)
	}
	alarms, err := d.ProcessBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	var sawByte, sawScan bool
	for _, a := range alarms {
		switch a.Seq {
		case byteBin:
			sawByte = true
			if a.Flow != flow {
				t.Fatalf("byte anomaly identified flow %d want %d", a.Flow, flow)
			}
			if a.Bytes < 4e7 {
				t.Fatalf("byte anomaly quantified at %v", a.Bytes)
			}
		case scanBin:
			sawScan = true
			if a.Flow != flow {
				t.Fatalf("scan identified flow %d want %d", a.Flow, flow)
			}
		}
	}
	if !sawByte {
		t.Fatalf("byte-volume anomaly not alarmed; alarms: %+v", alarms)
	}
	if !sawScan {
		t.Fatalf("flow-count-only scan not alarmed (any one metric's alarm must fire); alarms: %+v", alarms)
	}
	if len(alarms) > 20 {
		t.Fatalf("too many alarms: %d", len(alarms))
	}
	if got := d.Stats().Processed; got != stream.Rows() {
		t.Fatalf("processed %d want %d", got, stream.Rows())
	}
}

func TestMultiMetricSeedRefitAndValidation(t *testing.T) {
	history, stream, routing, _ := multiMetricFixture(t, 73, -1, -1)
	if _, err := seeded(NewMultiMetricDetector(routing, MultiMetricConfig{}))(mat.Zeros(40, 7)); err == nil {
		t.Fatal("mis-sized history accepted")
	}
	d, err := seeded(NewMultiMetricDetector(routing, MultiMetricConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics(); len(got) != 3 || got[0] != "bytes" {
		t.Fatalf("metrics = %v", got)
	}
	if _, err := d.ProcessBatch(mat.Zeros(4, 5)); err == nil {
		t.Fatal("mis-sized batch accepted")
	}
	if _, err := d.ProcessBatch(stream); err != nil {
		t.Fatal(err)
	}
	if err := d.Refit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := d.Seed(mat.Zeros(40, 7)); err == nil {
		t.Fatal("mis-sized seed accepted")
	}
	if err := d.Seed(history); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Processed; got != stream.Rows() {
		t.Fatalf("Seed reset processed counter to %d", got)
	}
}

// TestMultiMetricNonFiniteBin: a NaN in one metric's block of a batch
// is that metric's non-finite bin — reported as core.ErrNonFinite naming
// the metric and the bin — while a scan the flow-count metric catches in
// the same batch still alarms, and the metrics' refits stay healthy.
func TestMultiMetricNonFiniteBin(t *testing.T) {
	const nanBin, scanBin = 20, 40
	history, stream, routing, _ := multiMetricFixture(t, 74, -1, scanBin)
	d, err := seeded(NewMultiMetricDetector(routing, MultiMetricConfig{Online: core.OnlineConfig{RefitEvery: 64}}))(history)
	if err != nil {
		t.Fatal(err)
	}
	y := mat.Zeros(64, stream.Cols())
	copy(y.RawData(), stream.RawData())
	y.Set(nanBin, 4, math.NaN()) // the bytes block
	alarms, err := d.ProcessBatch(y)
	if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), `metric "bytes"`) || !strings.Contains(err.Error(), fmt.Sprintf("bin %d ", nanBin)) {
		t.Fatalf("got %v, want ErrNonFinite naming metric \"bytes\" and bin %d", err, nanBin)
	}
	scan := false
	for _, a := range alarms {
		if a.Seq == nanBin {
			t.Fatalf("NaN bin alarmed: %+v", a)
		}
		scan = scan || a.Seq == scanBin
	}
	if !scan {
		t.Fatalf("scan at bin %d missed alongside the NaN bin; alarms %+v", scanBin, alarms)
	}
	if err := d.Settle(); err != nil {
		t.Fatalf("Settle after the NaN bin: %v", err)
	}
	if got := d.Stats().Refits; got != 1 {
		t.Fatalf("%d refits after 64 bins, want 1", got)
	}
	if err := d.Refit(); err != nil {
		t.Fatalf("Refit after the NaN bin: %v", err)
	}
}

func TestStackMatricesValidation(t *testing.T) {
	if _, err := StackMatrices(); err == nil {
		t.Fatal("empty stack accepted")
	}
	if _, err := StackMatrices(mat.Zeros(3, 2), mat.Zeros(4, 2)); err == nil {
		t.Fatal("row mismatch accepted")
	}
	s, err := StackMatrices(mat.NewDense(2, 1, []float64{1, 3}), mat.NewDense(2, 2, []float64{10, 20, 30, 40}))
	if err != nil {
		t.Fatal(err)
	}
	want := mat.NewDense(2, 3, []float64{1, 10, 20, 3, 30, 40})
	if !mat.EqualApprox(s, want, 0) {
		t.Fatalf("stacked = %v", s)
	}
}
