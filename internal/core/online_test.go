package core

import (
	"math/rand"
	"sync"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/traffic"
)

func TestOnlineDetectorAlarmsOnSpike(t *testing.T) {
	// Two simulated weeks: fit the model on week one (the paper's
	// deployment mode, Section 7.1), stream week two.
	topo, x, _, _, _ := fitPipeline(t, 60, 2016)
	y := traffic.LinkLoads(topo, x)
	history := mat.Zeros(1008, topo.NumLinks())
	for b := 0; b < 1008; b++ {
		history.SetRow(b, y.RowView(b))
	}
	od, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), OnlineConfig{Window: 1008}))(history)
	if err != nil {
		t.Fatal(err)
	}
	flow := topo.FlowID(1, 7)
	alarms := 0
	const spikeBin = 1200
	for b := 1008; b < 1296; b++ {
		v := x.Row(b)
		if b == spikeBin {
			v[flow] += 9e7
		}
		al, anomalous, err := od.Process(traffic.LinkLoadAt(topo, v))
		if err != nil {
			t.Fatal(err)
		}
		if anomalous {
			alarms++
			if b == spikeBin {
				if al.Flow != flow {
					t.Fatalf("online alarm identified flow %d want %d", al.Flow, flow)
				}
				if al.Bytes < 4e7 {
					t.Fatalf("online alarm bytes = %v", al.Bytes)
				}
			}
		} else if b == spikeBin {
			t.Fatal("online detector missed the injected spike")
		}
	}
	if alarms > 10 {
		t.Fatalf("online false alarms too high: %d", alarms)
	}
	if od.Processed() != 288 {
		t.Fatalf("Processed = %d want 288", od.Processed())
	}
}

func TestOnlineDetectorRefit(t *testing.T) {
	topo, x, _, _, _ := fitPipeline(t, 61, 1008)
	y := traffic.LinkLoads(topo, x)
	history := mat.Zeros(600, topo.NumLinks())
	for b := 0; b < 600; b++ {
		history.SetRow(b, y.RowView(b))
	}
	od, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), OnlineConfig{
		Window:     600,
		RefitEvery: 100,
	}))(history)
	if err != nil {
		t.Fatal(err)
	}
	for b := 600; b < 900; b++ {
		if _, _, err := od.Process(y.Row(b)); err != nil {
			t.Fatalf("bin %d: refit failed: %v", b, err)
		}
	}
	if err := od.Refit(); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineDetectorWindowShorterThanHistory(t *testing.T) {
	topo, _, y := testDataset(t, 62, 432)
	od, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), OnlineConfig{Window: 300}))(y)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := od.Process(y.Row(0)); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineDetectorBadWindow: a negative window is refused, and a zero
// window keeps the whole first seed history.
func TestOnlineDetectorBadWindow(t *testing.T) {
	topo, _, y := testDataset(t, 63, 288)
	if _, err := NewOnlineDetector(topo.RoutingMatrix(), OnlineConfig{Window: -1}); err == nil {
		t.Fatal("expected error for negative window")
	}
	od, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), OnlineConfig{}))(y)
	if err != nil {
		t.Fatal(err)
	}
	if got := od.est.(*windowEstimator).ring.Cap(); got != y.Rows() {
		t.Fatalf("zero window kept %d bins, want the %d-bin seed history", got, y.Rows())
	}
}

func TestOnlineDetectorConcurrentProcess(t *testing.T) {
	topo, _, y := testDataset(t, 64, 432)
	od, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), OnlineConfig{Window: 432}))(y)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 50; b++ {
				od.Process(y.Row((g*50 + b) % 432))
			}
		}(g)
	}
	wg.Wait()
	if od.Processed() != 200 {
		t.Fatalf("Processed = %d want 200", od.Processed())
	}
}

func TestOnlineDetectorProcessBatchMatchesSerial(t *testing.T) {
	topo, x, _, _, _ := fitPipeline(t, 66, 1440)
	y := traffic.LinkLoads(topo, x)
	history := mat.Zeros(1008, topo.NumLinks())
	for b := 0; b < 1008; b++ {
		history.SetRow(b, y.RowView(b))
	}
	flow := topo.FlowID(0, 5)
	stream := mat.Zeros(432, topo.NumLinks())
	for b := 0; b < 432; b++ {
		v := x.Row(1008 + b)
		if b == 200 {
			v[flow] += 9e7
		}
		stream.SetRow(b, traffic.LinkLoadAt(topo, v))
	}
	cfg := OnlineConfig{Window: 1008}
	serial, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), cfg))(history)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), cfg))(history)
	if err != nil {
		t.Fatal(err)
	}
	var want []Alarm
	for b := 0; b < 432; b++ {
		al, anomalous, err := serial.Process(stream.RowView(b))
		if err != nil {
			t.Fatal(err)
		}
		if anomalous {
			want = append(want, al)
		}
	}
	var got []Alarm
	for b := 0; b < 432; b += 48 {
		alarms, err := batched.ProcessBatch(mat.NewDense(48, topo.NumLinks(), stream.RawData()[b*topo.NumLinks():(b+48)*topo.NumLinks()]))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, alarms...)
	}
	if len(got) != len(want) {
		t.Fatalf("batched path raised %d alarms, serial raised %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Flow != want[i].Flow {
			t.Fatalf("alarm %d: batched (seq %d flow %d) vs serial (seq %d flow %d)",
				i, got[i].Seq, got[i].Flow, want[i].Seq, want[i].Flow)
		}
	}
	if batched.Processed() != 432 {
		t.Fatalf("batched Processed = %d want 432", batched.Processed())
	}
}

// constantDetector builds a detector whose window can be driven into a
// degenerate (zero-variance) state: feeding `fill` copies of the history
// column means replaces every window row with an identical vector, on
// which model fitting must fail (the residual subspace carries no
// variance, so the Q-statistic is undefined).
func constantDetector(t *testing.T, refitEvery int) (*OnlineDetector, []float64) {
	t.Helper()
	const bins, links = 40, 6
	rng := rand.New(rand.NewSource(99))
	history := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			history.Set(i, j, 100+10*rng.NormFloat64())
		}
	}
	od, err := seeded(NewOnlineDetector(mat.Identity(links), OnlineConfig{
		Window:     bins,
		RefitEvery: refitEvery,
	}))(history)
	if err != nil {
		t.Fatal(err)
	}
	return od, history.ColMeans()
}

func TestOnlineDetectorFailedRefitKeepsModel(t *testing.T) {
	od, mean := constantDetector(t, 0)
	before := od.Diagnoser()
	for i := 0; i < 40; i++ {
		if _, anomalous, err := od.Process(mean); err != nil || anomalous {
			t.Fatalf("mean vector rejected: anomalous=%v err=%v", anomalous, err)
		}
	}
	if err := od.Refit(); err == nil {
		t.Fatal("expected refit on a constant window to fail")
	}
	if od.Diagnoser() != before {
		t.Fatal("failed refit replaced the model")
	}
	// The previous model must remain fully operational.
	if _, anomalous, err := od.Process(mean); err != nil || anomalous {
		t.Fatalf("detector broken after failed refit: anomalous=%v err=%v", anomalous, err)
	}
}

func TestOnlineDetectorConcurrentBatchesAndRefits(t *testing.T) {
	// Race hammer: concurrent Process, ProcessBatch and explicit Refit
	// calls must be safe together (run under -race in CI).
	topo, _, y := testDataset(t, 68, 432)
	od, err := seeded(NewOnlineDetector(topo.RoutingMatrix(), OnlineConfig{Window: 432, RefitEvery: 25}))(y)
	if err != nil {
		t.Fatal(err)
	}
	links := topo.NumLinks()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 60; b++ {
				od.Process(y.RowView((g*60 + b) % 432))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			batch := mat.Zeros(12, links)
			for b := 0; b < 12; b++ {
				batch.SetRow(b, y.RowView((i*12+b)%432))
			}
			if _, err := od.ProcessBatch(batch); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := od.Refit(); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if od.Processed() != 3*60+5*12 {
		t.Fatalf("Processed = %d want %d", od.Processed(), 3*60+5*12)
	}
}
