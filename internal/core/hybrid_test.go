package core

import (
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"netanomaly/internal/mat"
)

// stubStage is a scripted ViewDetector for exercising the hybrid's
// escalation plumbing without real models. Each row's first column is a
// marker the alarm predicate reads; the stage records every batch and
// seed it receives.
type stubStage struct {
	mu        sync.Mutex
	backend   string
	links     int
	processed int
	refits    int
	alarmAt   func(row []float64) (Diagnosis, bool)
	batches   []*mat.Dense
	seeds     []*mat.Dense
	seedErr   error
	deferred  error
}

func (s *stubStage) Seed(h *mat.Dense) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := mat.Zeros(h.Rows(), h.Cols())
	copy(cp.RawData(), h.RawData())
	s.seeds = append(s.seeds, cp)
	if s.seedErr != nil {
		return s.seedErr
	}
	s.refits++
	return nil
}

func (s *stubStage) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bins, _ := y.Dims()
	s.batches = append(s.batches, y)
	var alarms []Alarm
	for b := 0; b < bins; b++ {
		if diag, ok := s.alarmAt(y.RowView(b)); ok {
			diag.Bin = s.processed + b
			alarms = append(alarms, Alarm{Seq: s.processed + b, Diagnosis: diag})
		}
	}
	s.processed += bins
	return alarms, nil
}

func (s *stubStage) Refit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refits++
	return nil
}

func (s *stubStage) WaitRefits() {}

func (s *stubStage) Snapshot(io.Writer) error { return nil }
func (s *stubStage) Restore(io.Reader) error  { return nil }

func (s *stubStage) TakeRefitError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.deferred
	s.deferred = nil
	return err
}

func (s *stubStage) Stats() ViewStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ViewStats{Backend: s.backend, Links: s.links, Processed: s.processed, Refits: s.refits}
}

func (s *stubStage) receivedRows() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, b := range s.batches {
		for r := 0; r < b.Rows(); r++ {
			out = append(out, b.At(r, 0))
		}
	}
	return out
}

// Marker convention for stub batches (first column of each row):
// 0 clean, 1 triage-only alarm, 2 identify-only alarm, 3 both stages
// alarm. The identify stub attributes flow 7.
func stubStages(links int) (*stubStage, *stubStage) {
	triage := &stubStage{backend: "stub-triage", links: links, alarmAt: func(row []float64) (Diagnosis, bool) {
		v := row[0]
		return Diagnosis{SPE: v, Threshold: 0.5, Flow: -1, Bytes: v}, v == 1 || v == 3
	}}
	identify := &stubStage{backend: "stub-identify", links: links, alarmAt: func(row []float64) (Diagnosis, bool) {
		v := row[0]
		return Diagnosis{SPE: 2 * v, Threshold: 0.5, Flow: 7, Bytes: v}, v == 2 || v == 3
	}}
	return triage, identify
}

func markerBatch(links int, markers ...float64) *mat.Dense {
	y := mat.Zeros(len(markers), links)
	for b, v := range markers {
		y.Set(b, 0, v)
	}
	return y
}

func newStubHybrid(t *testing.T, links int, cfg HybridConfig) (*HybridDetector, *stubStage, *stubStage) {
	t.Helper()
	triage, identify := stubStages(links)
	d, err := seeded(NewHybridDetector(triage, identify, cfg))(mat.Zeros(4, links))
	if err != nil {
		t.Fatal(err)
	}
	return d, triage, identify
}

func TestHybridEscalateImmediate(t *testing.T) {
	const links = 3
	d, triage, identify := newStubHybrid(t, links, HybridConfig{})

	alarms, err := d.ProcessBatch(markerBatch(links, 0, 1, 0, 3, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Identification saw exactly the triage-alarmed rows.
	if got := identify.receivedRows(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("identify stage received rows %v, want [1 3 1]", got)
	}
	if got := triage.receivedRows(); len(got) != 6 {
		t.Fatalf("triage stage received %d rows, want every bin", len(got))
	}
	// One alarm per triage-alarmed bin, in order; the confirmed bin
	// (marker 3) carries the identify stage's flow.
	if len(alarms) != 3 {
		t.Fatalf("alarms: %+v", alarms)
	}
	wantSeq := []int{1, 3, 4}
	wantFlow := []int{-1, 7, -1}
	for i, a := range alarms {
		if a.Seq != wantSeq[i] || a.Bin != wantSeq[i] || a.Flow != wantFlow[i] {
			t.Fatalf("alarm %d = %+v, want seq %d flow %d", i, a, wantSeq[i], wantFlow[i])
		}
	}
	hs := d.HybridStats()
	if hs.TriageAlarms != 3 || hs.Escalated != 3 || hs.Identified != 1 {
		t.Fatalf("stats %+v", hs)
	}
	if hs.Triage.Backend != "stub-triage" || hs.Identify.Backend != "stub-identify" {
		t.Fatalf("stage stats %+v", hs)
	}
	if got := d.Stats(); got.Backend != "hybrid" || got.Processed != 6 || got.Links != links {
		t.Fatalf("Stats() = %+v", got)
	}
}

func TestHybridSeqRebaseWithPreStreamedStages(t *testing.T) {
	const links = 2
	triage, identify := stubStages(links)
	// Both stages streamed before the hybrid wrapped them; hybrid
	// sequence numbers must still start at zero.
	if _, err := triage.ProcessBatch(mat.Zeros(5, links)); err != nil {
		t.Fatal(err)
	}
	if _, err := identify.ProcessBatch(mat.Zeros(9, links)); err != nil {
		t.Fatal(err)
	}
	d, err := seeded(NewHybridDetector(triage, identify, HybridConfig{}))(mat.Zeros(4, links))
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := d.ProcessBatch(markerBatch(links, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 1 || alarms[0].Seq != 1 || alarms[0].Flow != 7 {
		t.Fatalf("rebased alarms wrong: %+v", alarms)
	}
}

func TestHybridBackgroundReseed(t *testing.T) {
	const links = 2
	d, _, identify := newStubHybrid(t, links, HybridConfig{RefitEvery: 4, Window: 8})

	// Two clean bins, then two alarmed ones: the re-seed fires after
	// bin 4 and must fit on clean bins only (4 history + 2 clean). The
	// stage's first seed is the hybrid's own, on the 4 history rows.
	if _, err := d.ProcessBatch(markerBatch(links, 0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	d.WaitRefits()
	identify.mu.Lock()
	seeds := len(identify.seeds)
	var rows int
	if seeds > 1 {
		rows = identify.seeds[1].Rows()
	}
	identify.mu.Unlock()
	if seeds != 2 || rows != 6 {
		t.Fatalf("re-seed: %d seeds, %d rows in the second, want 2 seeds, the second of 6 clean rows", seeds, rows)
	}
	if err := d.TakeRefitError(); err != nil {
		t.Fatalf("clean re-seed parked an error: %v", err)
	}
	if got := d.Stats().Refits; got != 1 {
		t.Fatalf("refits = %d want 1", got)
	}
}

func TestHybridReseedFailureDeferred(t *testing.T) {
	const links = 2
	triage, identify := stubStages(links)
	d, err := seeded(NewHybridDetector(triage, identify, HybridConfig{RefitEvery: 2}))(mat.Zeros(4, links))
	if err != nil {
		t.Fatal(err)
	}
	identify.seedErr = errors.New("boom")
	if _, err := d.ProcessBatch(markerBatch(links, 0, 0)); err != nil {
		t.Fatal(err)
	}
	d.WaitRefits()
	// The failed re-seed surfaces on the next batch (or TakeRefitError),
	// alongside that batch's valid detections.
	alarms, err := d.ProcessBatch(markerBatch(links, 3))
	if err == nil || !strings.Contains(err.Error(), "re-seed") {
		t.Fatalf("deferred re-seed failure not reported: %v", err)
	}
	if len(alarms) != 1 || alarms[0].Flow != 7 {
		t.Fatalf("detections dropped alongside deferred error: %+v", alarms)
	}
	if err := d.TakeRefitError(); err != nil {
		t.Fatalf("deferred error not cleared: %v", err)
	}
}

func TestHybridRejectsMismatches(t *testing.T) {
	triage, _ := stubStages(3)
	_, identify := stubStages(4)
	if _, err := NewHybridDetector(triage, identify, HybridConfig{}); err == nil {
		t.Fatal("stage width mismatch accepted")
	}
	d, _, _ := func() (*HybridDetector, *stubStage, *stubStage) {
		tr, id := stubStages(3)
		d, err := seeded(NewHybridDetector(tr, id, HybridConfig{}))(mat.Zeros(4, 3))
		if err != nil {
			t.Fatal(err)
		}
		return d, tr, id
	}()
	if _, err := d.ProcessBatch(mat.Zeros(2, 5)); err == nil {
		t.Fatal("mis-sized batch accepted")
	}
	if got := d.Stats().Processed; got != 0 {
		t.Fatalf("rejected batch advanced the counter to %d", got)
	}
}

func TestHybridTakeRefitErrorJoinsStages(t *testing.T) {
	const links = 2
	triage, identify := stubStages(links)
	triage.deferred = errors.New("triage-deferred")
	identify.deferred = errors.New("identify-deferred")
	d, err := seeded(NewHybridDetector(triage, identify, HybridConfig{}))(mat.Zeros(4, links))
	if err != nil {
		t.Fatal(err)
	}
	got := d.TakeRefitError()
	if got == nil || !strings.Contains(got.Error(), "triage-deferred") || !strings.Contains(got.Error(), "identify-deferred") {
		t.Fatalf("stage deferred errors not joined: %v", got)
	}
	if d.TakeRefitError() != nil {
		t.Fatal("deferred errors not cleared")
	}
}
