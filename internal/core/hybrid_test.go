package core

import (
	"errors"
	"io"
	"math"
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
	settleErr error
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
	// A stage may not keep the batch past the call (the hybrid reuses
	// its escalation buffer), so the record is a copy.
	cp := mat.Zeros(bins, y.Cols())
	copy(cp.RawData(), y.RawData())
	s.batches = append(s.batches, cp)
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

func (s *stubStage) Snapshot(io.Writer) error { return nil }
func (s *stubStage) Restore(io.Reader) error  { return nil }

func (s *stubStage) Settle() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settleErr
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
	if err := d.Settle(); err != nil {
		t.Fatalf("clean re-seed failed: %v", err)
	}
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
	// Nobody settled: the due re-seed runs, and fails, at the start of
	// the next batch, whose valid detections come back with its error.
	alarms, err := d.ProcessBatch(markerBatch(links, 3))
	if err == nil || !strings.Contains(err.Error(), "re-seed") {
		t.Fatalf("deferred re-seed failure not reported: %v", err)
	}
	if len(alarms) != 1 || alarms[0].Flow != 7 {
		t.Fatalf("detections dropped alongside deferred error: %+v", alarms)
	}
	if err := d.Settle(); err != nil {
		t.Fatalf("failed re-seed still due after it ran: %v", err)
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

// TestHybridSettleJoinsStages: Settle settles both stages and runs the
// hybrid's own due re-seed, and returns all three failures joined, in
// that order.
func TestHybridSettleJoinsStages(t *testing.T) {
	const links = 2
	triage, identify := stubStages(links)
	d, err := seeded(NewHybridDetector(triage, identify, HybridConfig{RefitEvery: 2}))(mat.Zeros(4, links))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessBatch(markerBatch(links, 0, 0)); err != nil {
		t.Fatal(err)
	}
	triage.settleErr = errors.New("triage-settle")
	identify.settleErr = errors.New("identify-settle")
	identify.seedErr = errors.New("boom")
	got := d.Settle()
	if got == nil || !strings.Contains(got.Error(), "triage-settle\nidentify-settle\ncore: hybrid identify re-seed: boom") {
		t.Fatalf("stage and re-seed errors not joined in order: %v", got)
	}
	triage.settleErr, identify.settleErr = nil, nil
	if err := d.Settle(); err != nil {
		t.Fatalf("re-seed still due after it ran: %v", err)
	}
}

// garbledStage wraps a stub stage and rewrites the alarms it returns, to
// script a stage that breaks the one-alarm-per-bin, in-order contract.
type garbledStage struct {
	*stubStage
	garble func([]Alarm) []Alarm
}

func (s garbledStage) ProcessBatch(y *mat.Dense) ([]Alarm, error) {
	a, err := s.stubStage.ProcessBatch(y)
	return s.garble(a), err
}

func TestHybridRejectsDisorderedStageAlarms(t *testing.T) {
	// Each stage must name distinct bins in increasing order, inside the
	// batch it was handed; the hybrid pairs its alarms with bins in one
	// walk and fails the batch on any other stream.
	const links = 2
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
		for _, stage := range []string{"triage", "identify"} {
			t.Run(name+"/"+stage, func(t *testing.T) {
				triage, identify := stubStages(links)
				var tStage, iStage ViewDetector = triage, identify
				if stage == "triage" {
					tStage = garbledStage{triage, garble}
				} else {
					iStage = garbledStage{identify, garble}
				}
				d, err := seeded(NewHybridDetector(tStage, iStage, HybridConfig{}))(mat.Zeros(4, links))
				if err != nil {
					t.Fatal(err)
				}
				alarms, err := d.ProcessBatch(markerBatch(links, 0, 3, 0, 3, 3))
				if err == nil || !strings.Contains(err.Error(), "hybrid "+stage+" alarm") {
					t.Fatalf("%s %s alarms accepted: alarms %+v, error %v", stage, name, alarms, err)
				}
				if alarms != nil {
					t.Fatalf("failed batch returned alarms %+v", alarms)
				}
			})
		}
	}
}

func TestHybridNonFiniteBinWithheld(t *testing.T) {
	// A stub triage stage passes a NaN bin as clean and reports nothing;
	// the hybrid must keep it out of the clean-bin window the
	// identification stage re-seeds from and name it, in its own
	// numbering, as ErrNonFinite.
	const links = 2
	d, _, identify := newStubHybrid(t, links, HybridConfig{RefitEvery: 5, Window: 16})
	if _, err := d.ProcessBatch(markerBatch(links, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	y := markerBatch(links, 0, 0, 1)
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
	identify.mu.Lock()
	defer identify.mu.Unlock()
	if len(identify.seeds) != 2 {
		t.Fatalf("%d identify seeds, want the hybrid's seed and one re-seed", len(identify.seeds))
	}
	// 4 history rows, 3 clean bins, then 1 of the 3: the NaN bin is out.
	if re := identify.seeds[1]; re.Rows() != 8 || !mat.AllFinite(re.RawData()) {
		t.Fatalf("re-seed window of %d rows, finite %v; want 8 finite rows", re.Rows(), mat.AllFinite(re.RawData()))
	}
}
