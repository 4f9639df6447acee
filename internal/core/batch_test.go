package core

import (
	"math"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

func TestSPEBatchMatchesSPE(t *testing.T) {
	_, _, y := testDataset(t, 70, 432)
	m := fitModel(t, y, 0)
	spes := m.SPEBatch(y, nil)
	if len(spes) != 432 {
		t.Fatalf("SPEBatch returned %d values", len(spes))
	}
	for b := 0; b < 432; b++ {
		want := m.SPE(y.RowView(b))
		tol := 1e-8 * (want + 1)
		if math.Abs(spes[b]-want) > tol {
			t.Fatalf("bin %d: batch SPE %v, per-vector SPE %v", b, spes[b], want)
		}
	}
}

func TestSPEBatchReusesOutput(t *testing.T) {
	_, _, y := testDataset(t, 71, 288)
	m := fitModel(t, y, 0)
	buf := make([]float64, 288)
	out := m.SPEBatch(y, buf)
	if &out[0] != &buf[0] {
		t.Fatal("SPEBatch allocated despite sufficient capacity")
	}
}

func TestDetectBatchMatchesDetectSeries(t *testing.T) {
	_, _, y := testDataset(t, 72, 432)
	m := fitModel(t, y, 0)
	det, err := NewDetector(m, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	batch := det.DetectBatch(y)
	series := det.DetectSeries(y)
	for b := range series {
		if batch[b].Alarm != series[b].Alarm {
			t.Fatalf("bin %d: batch alarm %v, series alarm %v", b, batch[b].Alarm, series[b].Alarm)
		}
		if batch[b].Bin != b {
			t.Fatalf("bin %d mislabeled as %d", b, batch[b].Bin)
		}
	}
}

func TestDiagnoseBatchMatchesDiagnoseAt(t *testing.T) {
	// A dataset with a known injected spike: the batched pipeline must
	// alarm on the same bins and identify the same flows as the
	// per-vector pipeline.
	topo, x, _, _, _ := fitPipeline(t, 73, 1008)
	flow := topo.FlowID(2, 6)
	x.Set(500, flow, x.At(500, flow)+9e7)
	y := traffic.LinkLoads(topo, x)
	diag, err := NewDiagnoser(y, topo.RoutingMatrix(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	diags, flags := diag.DiagnoseBatch(y)
	if len(diags) != 1008 || len(flags) != 1008 {
		t.Fatalf("batch sizes %d/%d", len(diags), len(flags))
	}
	anomalies := 0
	for b := 0; b < 1008; b++ {
		want, wantOK := diag.DiagnoseAt(y.RowView(b))
		if flags[b] != wantOK {
			t.Fatalf("bin %d: batch anomalous=%v, per-vector=%v", b, flags[b], wantOK)
		}
		if diags[b].Flow != want.Flow {
			t.Fatalf("bin %d: batch flow %d, per-vector flow %d", b, diags[b].Flow, want.Flow)
		}
		if flags[b] {
			anomalies++
			if math.Abs(diags[b].Bytes-want.Bytes) > 1e-6*(math.Abs(want.Bytes)+1) {
				t.Fatalf("bin %d: batch bytes %v, per-vector bytes %v", b, diags[b].Bytes, want.Bytes)
			}
		}
	}
	if anomalies == 0 {
		t.Fatal("injected spike produced no anomalies")
	}
	if !flags[500] {
		t.Fatal("batch pipeline missed the injected spike bin")
	}
	if diags[500].Flow != flow {
		t.Fatalf("spike bin identified flow %d want %d", diags[500].Flow, flow)
	}
}

// TestDiagnoseBatchIdentifiesWithoutAllocating pins identification's
// scratch to one allocation per batch: a 64-bin batch at 120 links
// (synthetic:30:45:7, 900 flows) in which every bin alarms allocates
// exactly as often as one in which a single bin does.
func TestDiagnoseBatchIdentifiesWithoutAllocating(t *testing.T) {
	topo, err := topology.Parse("synthetic:30:45:7")
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultConfig(1)
	cfg.Bins = 1008 + 64
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	links := topo.NumLinks()
	y := traffic.LinkLoads(topo, x)
	diag, err := NewDiagnoser(mat.NewDense(1008, links, y.RawData()[:1008*links]), topo.RoutingMatrix(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each batch row is a quiet week bin; spiking a flow by 5e8 bytes
	// makes its bin alarm.
	batch := func(spiked int) *mat.Dense {
		od := mat.NewDense(64, topo.NumFlows(), mat.CloneVec(x.RawData()[:64*topo.NumFlows()]))
		for b := 0; b < spiked; b++ {
			od.Set(b, (7*b)%topo.NumFlows(), od.At(b, (7*b)%topo.NumFlows())+5e8)
		}
		return traffic.LinkLoads(topo, od)
	}
	one, all := batch(1), batch(64)
	alarms := func(y *mat.Dense) int {
		_, flags := diag.DiagnoseBatch(y)
		n := 0
		for _, f := range flags {
			if f {
				n++
			}
		}
		return n
	}
	if n := alarms(one); n != 1 {
		t.Fatalf("one spiked bin: %d alarms, want 1", n)
	}
	if n := alarms(all); n != 64 {
		t.Fatalf("64 spiked bins: %d alarms, want 64", n)
	}
	allocsOne := testing.AllocsPerRun(20, func() { diag.DiagnoseBatch(one) })
	allocsAll := testing.AllocsPerRun(20, func() { diag.DiagnoseBatch(all) })
	if allocsAll != allocsOne {
		t.Fatalf("DiagnoseBatch allocates %v times with 64 alarms, %v with one", allocsAll, allocsOne)
	}
}
