package core

import (
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
)

// scriptedTriage is a triage stage that alarms exactly on the bins of
// its own numbering listed in flag, with a triage-style diagnosis (no
// flow), so a test decides which bins escalate to the real subspace
// detector behind it.
type scriptedTriage struct {
	mu        sync.Mutex
	links     int
	processed int
	flag      map[int]bool
	settleErr error
}

func (s *scriptedTriage) Seed(*mat.Dense) error { return nil }
func (s *scriptedTriage) Refit() error          { return nil }

func (s *scriptedTriage) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var alarms []Alarm
	for b := 0; b < y.Rows(); b++ {
		if seq := s.processed + b; s.flag[seq] {
			alarms = append(alarms, Alarm{Seq: seq, Diagnosis: Diagnosis{Bin: seq, SPE: 1, Threshold: 0.5, Flow: -1}})
		}
	}
	s.processed += y.Rows()
	return alarms, nil
}

func (s *scriptedTriage) Snapshot(io.Writer) error { return nil }
func (s *scriptedTriage) Restore(io.Reader) error  { return nil }

func (s *scriptedTriage) Settle() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settleErr
}

func (s *scriptedTriage) Stats() ViewStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ViewStats{Backend: "stub-triage", Links: s.links, Processed: s.processed}
}

// spikeBin is the stream bin streamDataset spikes for the hybrid tests:
// the subspace model flags it and names hybridSpikeFlow.
const spikeBin, hybridSpikeFlow = 10, 9

// hybridFixture is a hybrid of a scripted triage stage flagging the
// given stream bins over a real windowed subspace detector on Abilene,
// seeded on 504 bins, and the 96-bin stream after them (spiked at
// spikeBin).
func hybridFixture(t *testing.T, cfg OnlineConfig, flag ...int) (*HybridDetector, *scriptedTriage, *mat.Dense, *mat.Dense) {
	t.Helper()
	topo, history, stream, _ := streamDataset(t, 67, 504, 96, []int{spikeBin})
	triage := &scriptedTriage{links: topo.NumLinks(), flag: map[int]bool{}}
	for _, b := range flag {
		triage.flag[b] = true
	}
	identify, err := NewOnlineDetector(topo.RoutingMatrix(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := seeded(NewHybridDetector(triage, identify))(history)
	if err != nil {
		t.Fatal(err)
	}
	return d, triage, history, stream
}

// cleanWindow is what the subspace detector's window must hold after the
// stream's first n bins: the history followed by every stream bin except
// the withheld ones, at most capacity rows of it.
func cleanWindow(history, stream *mat.Dense, n, capacity int, withheld ...int) *mat.Dense {
	var rows []float64
	rows = append(rows, history.RawData()...)
	for b := 0; b < n; b++ {
		if !slices.Contains(withheld, b) {
			rows = append(rows, stream.RowView(b)...)
		}
	}
	cols := history.Cols()
	if len(rows) > capacity*cols {
		rows = rows[len(rows)-capacity*cols:]
	}
	return mat.NewDense(len(rows)/cols, cols, rows)
}

func windowOf(d *HybridDetector) *mat.Dense {
	d.identify.mu.Lock()
	defer d.identify.mu.Unlock()
	return d.identify.est.(*windowEstimator).ring.Matrix()
}

func TestHybridEscalateImmediate(t *testing.T) {
	d, _, history, stream := hybridFixture(t, OnlineConfig{}, 3, spikeBin, 20)
	alarms, err := d.ProcessBatch(rowsOf(stream, 0, 32))
	if err != nil {
		t.Fatal(err)
	}
	// One alarm per triage-alarmed bin, in order; the spiked bin, which
	// the subspace model confirms, carries its diagnosis and flow.
	wantSeq := []int{3, spikeBin, 20}
	if len(alarms) != len(wantSeq) {
		t.Fatalf("alarms: %+v", alarms)
	}
	for i, a := range alarms {
		if a.Seq != wantSeq[i] || a.Bin != wantSeq[i] {
			t.Fatalf("alarm %d = %+v, want seq %d", i, a, wantSeq[i])
		}
	}
	if alarms[0].Flow != -1 || alarms[2].Flow != -1 {
		t.Fatalf("unconfirmed bins carry a flow: %+v", alarms)
	}
	diags, flags := d.identify.Diagnoser().DiagnoseBatch(rowsOf(stream, spikeBin, spikeBin+1))
	want := diags[0]
	want.Bin = spikeBin
	if !flags[0] || alarms[1].Diagnosis != want || want.Flow != hybridSpikeFlow {
		t.Fatalf("confirmed alarm %+v, subspace diagnosis %+v (flagged %v)", alarms[1], want, flags[0])
	}
	hs := d.HybridStats()
	if hs.TriageAlarms != 3 || hs.Escalated != 3 || hs.Identified != 1 || hs.Triage.Backend != "stub-triage" || hs.Triage.Processed != 32 {
		t.Fatalf("stats %+v", hs)
	}
	if got := d.Stats(); got.Backend != "hybrid" || got.Processed != 32 || got.Links != stream.Cols() || got.Rank == 0 {
		t.Fatalf("Stats() = %+v", got)
	}
	// The window holds exactly the bins triage passed.
	if got, want := windowOf(d), cleanWindow(history, stream, 32, history.Rows(), wantSeq...); !mat.EqualApprox(got, want, 0) {
		t.Fatalf("window of %d rows, want the %d clean ones", got.Rows(), want.Rows())
	}
}

func TestHybridSeqRebaseWithPreStreamedStages(t *testing.T) {
	// The triage stage streamed before the hybrid wrapped it; its alarms
	// are rebased, and the subspace detector numbers the hybrid's bins.
	d, triage, _, stream := hybridFixture(t, OnlineConfig{}, 5+spikeBin)
	triage.processed = 5
	alarms, err := d.ProcessBatch(rowsOf(stream, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 1 || alarms[0].Seq != spikeBin || alarms[0].Flow != hybridSpikeFlow {
		t.Fatalf("rebased alarms wrong: %+v", alarms)
	}
}

// TestHybridBackgroundReseed: the subspace detector refits on the
// hybrid's cadence, counting every bin, from the clean bins alone — the
// same model a re-seed on those bins fits.
func TestHybridBackgroundReseed(t *testing.T) {
	const every, window = 16, 256
	d, _, history, stream := hybridFixture(t, OnlineConfig{Window: window, RefitEvery: every}, spikeBin, 12)
	if _, err := d.ProcessBatch(rowsOf(stream, 0, every)); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Refits; got != 0 {
		t.Fatalf("refit ran before Settle: %d refits", got)
	}
	if err := d.Settle(); err != nil {
		t.Fatalf("refit failed: %v", err)
	}
	if got := d.Stats().Refits; got != 1 {
		t.Fatalf("refits = %d want 1", got)
	}
	twin, err := seeded(NewOnlineDetector(topology.Abilene().RoutingMatrix(), OnlineConfig{Window: window}))(
		cleanWindow(history, stream, every, window, spikeBin, 12))
	if err != nil {
		t.Fatal(err)
	}
	got, want := d.identify.Diagnoser().Detector(), twin.Diagnoser().Detector()
	if got.Limit() != want.Limit() || !mat.EqualApprox(got.Model().p, want.Model().p, 0) {
		t.Fatalf("refit model differs from a seed on the clean bins: threshold %v, want %v", got.Limit(), want.Limit())
	}
}

// TestHybridReseedFailureDeferred: a refit nobody settled runs, and
// fails, at the start of the next batch, whose valid detections come
// back with its error, tested against the model in force before it.
func TestHybridReseedFailureDeferred(t *testing.T) {
	d, triage, _, stream := hybridFixture(t, OnlineConfig{RefitEvery: 8}, spikeBin)
	if _, err := d.ProcessBatch(rowsOf(stream, 0, 4)); err != nil {
		t.Fatal(err)
	}
	// Four bins reach both stages, one of them poisoned in the window.
	absorbPoisoned(d.identify, rowsOf(stream, 4, 8))
	triage.processed += 4
	before := d.identify.Diagnoser()
	alarms, err := d.ProcessBatch(rowsOf(stream, 8, 12))
	if !isRefitError(err) {
		t.Fatalf("deferred refit failure not reported: %v", err)
	}
	if len(alarms) != 1 || alarms[0].Seq != spikeBin || alarms[0].Flow != hybridSpikeFlow {
		t.Fatalf("detections dropped alongside deferred error: %+v", alarms)
	}
	if d.identify.Diagnoser() != before || d.Stats().Refits != 0 {
		t.Fatal("the failed refit replaced the model")
	}
	if err := d.Settle(); err != nil {
		t.Fatalf("failed refit still due after it ran: %v", err)
	}
}

func TestHybridRejectsMismatches(t *testing.T) {
	identify, err := NewOnlineDetector(mat.Identity(4), OnlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHybridDetector(&scriptedTriage{links: 3}, identify); err == nil {
		t.Fatal("stage width mismatch accepted")
	}
	d, _, _, _ := hybridFixture(t, OnlineConfig{})
	if _, err := d.ProcessBatch(mat.Zeros(2, 5)); err == nil {
		t.Fatal("mis-sized batch accepted")
	}
	if got := d.Stats().Processed; got != 0 {
		t.Fatalf("rejected batch advanced the counter to %d", got)
	}
}

// TestHybridSettleJoinsStages: Settle settles the triage stage and then
// the subspace detector, which runs its due refit, and returns both
// failures joined, in that order.
func TestHybridSettleJoinsStages(t *testing.T) {
	d, triage, _, stream := hybridFixture(t, OnlineConfig{RefitEvery: 8})
	if _, err := d.ProcessBatch(rowsOf(stream, 0, 4)); err != nil {
		t.Fatal(err)
	}
	absorbPoisoned(d.identify, rowsOf(stream, 4, 8))
	triage.settleErr = errors.New("triage-settle")
	got := d.Settle()
	if got == nil || !strings.HasPrefix(got.Error(), "triage-settle\ncore: subspace refit: ") {
		t.Fatalf("stage errors not joined in order: %v", got)
	}
	triage.settleErr = nil
	if err := d.Settle(); err != nil {
		t.Fatalf("refit still due after it ran: %v", err)
	}
}

// garbledTriage wraps a scripted triage stage and rewrites the alarms it
// returns, to script a stage that breaks the one-alarm-per-bin,
// in-order contract.
type garbledTriage struct {
	*scriptedTriage
	garble func([]Alarm) []Alarm
}

func (s garbledTriage) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	a, err := s.scriptedTriage.ProcessBatch(y)
	return s.garble(a), err
}

func TestHybridRejectsDisorderedStageAlarms(t *testing.T) {
	// The triage stage must name distinct bins in increasing order,
	// inside the batch it was handed; the hybrid pairs its alarms with
	// bins in one walk and fails the batch on any other stream.
	garbles := map[string]func([]Alarm) []Alarm{
		"duplicate": func(a []Alarm) []Alarm { return append(a, a[len(a)-1]) },
		"reversed": func(a []Alarm) []Alarm {
			return append([]Alarm{a[len(a)-1]}, a[:len(a)-1]...)
		},
		"outside": func(a []Alarm) []Alarm {
			a[len(a)-1].Seq += 100
			return a
		},
	}
	for name, garble := range garbles {
		t.Run(name+"/triage", func(t *testing.T) {
			d, triage, _, stream := hybridFixture(t, OnlineConfig{}, 1, 3, 4)
			d.triage = garbledTriage{triage, garble}
			alarms, err := d.ProcessBatch(rowsOf(stream, 0, 5))
			if err == nil || !strings.Contains(err.Error(), "hybrid triage alarm") {
				t.Fatalf("triage %s alarms accepted: alarms %+v, error %v", name, alarms, err)
			}
			if alarms != nil {
				t.Fatalf("failed batch returned alarms %+v", alarms)
			}
		})
	}
}

func TestHybridNonFiniteBinWithheld(t *testing.T) {
	// A scripted triage stage passes a NaN bin as clean and reports
	// nothing; the hybrid must keep it out of the subspace detector's
	// window and name it, in its own numbering, as ErrNonFinite.
	d, _, history, stream := hybridFixture(t, OnlineConfig{RefitEvery: 6}, 5)
	if _, err := d.ProcessBatch(rowsOf(stream, 0, 3)); err != nil {
		t.Fatal(err)
	}
	y := rowsOf(stream, 3, 6).Clone()
	y.Set(1, 1, math.NaN())
	alarms, err := d.ProcessBatch(y)
	if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "bin 4 ") {
		t.Fatalf("got error %v, want ErrNonFinite naming bin 4", err)
	}
	if len(alarms) != 1 || alarms[0].Seq != 5 {
		t.Fatalf("alarms %+v, want the triage alarm at bin 5 alone", alarms)
	}
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Refits; got != 1 {
		t.Fatalf("refits = %d, want the one the cadence made due", got)
	}
	// Bins 0-3 are clean, 4 is NaN and 5 escalated: the window gained 4.
	if got, want := windowOf(d), cleanWindow(history, stream, 6, history.Rows(), 4, 5); !mat.EqualApprox(got, want, 0) {
		t.Fatalf("window of %d rows, want the %d finite clean ones", got.Rows(), want.Rows())
	}
}
