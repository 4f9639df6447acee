package eval

import (
	"errors"
	"io"
	"strings"
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
)

// binLabels labels detection-only truth bins (no flow to identify).
func binLabels(bins ...int) []LabeledBin {
	out := make([]LabeledBin, len(bins))
	for i, b := range bins {
		out[i] = LabeledBin{Bin: b, Flow: -1}
	}
	return out
}

// scriptedDetector is a minimal core.ViewDetector whose alarm behavior
// is a function of the absolute sequence number — just enough contract
// for the EvaluateStreamingFlows edge cases.
type scriptedDetector struct {
	links     int
	processed int
	alarmAt   func(seq int) (core.Diagnosis, bool)
	settleErr error
}

func (s *scriptedDetector) Seed(*mat.Dense) error { return nil }

func (s *scriptedDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	bins, _ := y.Dims()
	var alarms []core.Alarm
	for b := 0; b < bins; b++ {
		seq := s.processed + b
		if diag, ok := s.alarmAt(seq); ok {
			diag.Bin = seq
			alarms = append(alarms, core.Alarm{Seq: seq, Diagnosis: diag})
		}
	}
	s.processed += bins
	return alarms, nil
}

func (s *scriptedDetector) Refit() error             { return nil }
func (s *scriptedDetector) Settle() error            { return s.settleErr }
func (s *scriptedDetector) Snapshot(io.Writer) error { return nil }
func (s *scriptedDetector) Restore(io.Reader) error  { return nil }
func (s *scriptedDetector) Stats() core.ViewStats {
	return core.ViewStats{Backend: "scripted", Links: s.links, Processed: s.processed}
}

func never(int) (core.Diagnosis, bool) { return core.Diagnosis{}, false }

// TestEvaluateStreamingZeroAlarmStream pins the all-quiet case: a
// detector that never alarms scores zero detections and zero false
// alarms, with the denominators still accounted, on labeled and
// unlabeled streams alike.
func TestEvaluateStreamingZeroAlarmStream(t *testing.T) {
	const bins, links = 100, 3
	stream := mat.Zeros(bins, links)
	det := &scriptedDetector{links: links, alarmAt: never}
	r, err := EvaluateStreamingFlows(det, stream, 7, binLabels(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != 0 || r.FalseAlarms != 0 || r.TrueAnomalies != 2 || r.NormalBins != 98 {
		t.Fatalf("zero-alarm result %+v", r)
	}
	if r.DetectionRate() != 0 || r.FalseAlarmRate() != 0 || r.IdentificationRate() != 0 {
		t.Fatalf("zero-alarm rates %+v", r)
	}
	// A zero-alarm stream with no labels at all: every denominator on
	// the truth side is zero and the rates must stay defined.
	r, err = EvaluateStreamingFlows(det, stream, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.TrueAnomalies != 0 || r.NormalBins != bins || r.DetectionRate() != 0 {
		t.Fatalf("unlabeled result %+v", r)
	}
}

// TestEvaluateStreamingAllAlarmStream pins the fire-hose case: a
// detector alarming on every bin detects every truth and charges every
// unlabeled bin as a false alarm — rates land exactly on 1.
func TestEvaluateStreamingAllAlarmStream(t *testing.T) {
	const bins, links = 64, 2
	stream := mat.Zeros(bins, links)
	always := func(int) (core.Diagnosis, bool) {
		return core.Diagnosis{SPE: 1, Threshold: 0.5, Flow: -1}, true
	}
	det := &scriptedDetector{links: links, alarmAt: always}
	r, err := EvaluateStreamingFlows(det, stream, 10, binLabels(0, 31, 63))
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != 3 || r.TrueAnomalies != 3 || r.FalseAlarms != 61 || r.NormalBins != 61 {
		t.Fatalf("all-alarm result %+v", r)
	}
	if r.DetectionRate() != 1 || r.FalseAlarmRate() != 1 {
		t.Fatalf("all-alarm rates %+v", r)
	}
	// Flow-labeled truths against a backend that never attributes
	// (every alarm is a region alarm, Flow -1): both truths are
	// detected, but neither opens an identification trial — a region
	// alarm is a detection, not a wrong identification.
	det = &scriptedDetector{links: links, alarmAt: always}
	r, err = EvaluateStreamingFlows(det, stream, 10, []LabeledBin{{Bin: 5, Flow: 17}, {Bin: 6, Flow: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != 2 || r.IdentTrials != 0 || r.Identified != 0 {
		t.Fatalf("flow-labeled result %+v", r)
	}
}

// TestEvaluateStreamingFlowAttribution scores a detector that
// attributes flows: correct attributions count, wrong ones are trials
// without credit, and flowless truths never enter the trial count.
func TestEvaluateStreamingFlowAttribution(t *testing.T) {
	const bins, links = 50, 2
	stream := mat.Zeros(bins, links)
	flows := map[int]int{5: 17, 9: 3, 20: 8}
	det := &scriptedDetector{links: links, alarmAt: func(seq int) (core.Diagnosis, bool) {
		f, ok := flows[seq]
		return core.Diagnosis{SPE: 1, Threshold: 0.5, Flow: f}, ok
	}}
	truth := []LabeledBin{
		{Bin: 5, Flow: 17},  // detected, correctly identified
		{Bin: 9, Flow: 4},   // detected, misidentified (alarm says 3)
		{Bin: 20, Flow: -1}, // detected, no flow label: no trial
		{Bin: 40, Flow: 9},  // missed: no trial
	}
	r, err := EvaluateStreamingFlows(det, stream, 16, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != 3 || r.TrueAnomalies != 4 {
		t.Fatalf("detection accounting %+v", r)
	}
	if r.IdentTrials != 2 || r.Identified != 1 {
		t.Fatalf("identification accounting %+v", r)
	}
	if r.IdentificationRate() != 0.5 {
		t.Fatalf("identification rate %v", r.IdentificationRate())
	}
	if !strings.Contains(r.String(), "identified 1/2") {
		t.Fatalf("String() lacks identification column: %q", r.String())
	}
}

// TestScoreAlarmFlowsRegionAlarms pins the region-alarm rule directly
// on the scorer: an alarm that attributes no flow (Flow == -1) on a
// flow-labeled truth counts as a detection but opens no identification
// trial, while an attributing alarm on the same truth does.
func TestScoreAlarmFlowsRegionAlarms(t *testing.T) {
	truth := []LabeledBin{{Bin: 3, Flow: 7}, {Bin: 8, Flow: 9}}
	r := ScoreAlarmFlows("x", map[int]int{3: -1, 8: 9}, truth, 20)
	if r.Detected != 2 || r.TrueAnomalies != 2 {
		t.Fatalf("detection accounting %+v", r)
	}
	if r.IdentTrials != 1 || r.Identified != 1 {
		t.Fatalf("region alarm must not open an identification trial: %+v", r)
	}
	if r.FalseAlarms != 0 || r.NormalBins != 18 {
		t.Fatalf("normal-bin accounting %+v", r)
	}
}

// TestScoreAlarmFlowsDuplicateAlarms pins per-bin collapsing: a
// detector re-alarming the same bin (e.g. once per batch overlap, or
// from two metrics) scores one detection or one false alarm, never
// two — EvaluateStreamingFlows keeps the last attribution per bin.
func TestScoreAlarmFlowsDuplicateAlarms(t *testing.T) {
	const bins, links = 30, 2
	stream := mat.Zeros(bins, links)
	// Alarm bin 5 on every call within its batch — ProcessBatch emits
	// one alarm per bin, so duplicates arise from the alarm list
	// carrying the same Seq twice.
	det := &scriptedDetector{links: links, alarmAt: func(seq int) (core.Diagnosis, bool) {
		if seq == 5 || seq == 12 {
			return core.Diagnosis{SPE: 1, Threshold: 0.5, Flow: 4}, true
		}
		return core.Diagnosis{}, false
	}}
	// Feed the stream twice in overlapping halves via two detectors is
	// out of contract; instead exercise the scorer directly with the
	// collapsed map plus a sanity pass through the evaluator.
	r := ScoreAlarmFlows("x", map[int]int{5: 4, 12: 4}, []LabeledBin{{Bin: 5, Flow: 4}}, bins)
	if r.Detected != 1 || r.FalseAlarms != 1 || r.IdentTrials != 1 || r.Identified != 1 {
		t.Fatalf("collapsed duplicate accounting %+v", r)
	}
	// Duplicate truth labels for one bin also collapse: a single truth
	// event double-labeled must not inflate TrueAnomalies' denominator
	// beyond distinct bins or shrink NormalBins twice.
	r = ScoreAlarmFlows("x", map[int]int{5: 4}, []LabeledBin{{Bin: 5, Flow: 4}, {Bin: 5, Flow: 4}}, bins)
	if r.TrueAnomalies != 1 || r.NormalBins != bins-1 {
		t.Fatalf("duplicate truth accounting %+v", r)
	}
	rr, err := EvaluateStreamingFlows(det, stream, 10, []LabeledBin{{Bin: 5, Flow: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Detected != 1 || rr.FalseAlarms != 1 {
		t.Fatalf("evaluator duplicate accounting %+v", rr)
	}
}

// TestScoreAlarmFlowsTruthPastStreamEnd pins out-of-stream truth: a
// labeled bin beyond the replayed stream still counts as a (missed)
// true anomaly, but must not shrink the normal-bin denominator — the
// stream's unlabeled bins are all still normal.
func TestScoreAlarmFlowsTruthPastStreamEnd(t *testing.T) {
	const bins = 10
	truth := []LabeledBin{{Bin: 2, Flow: 1}, {Bin: 25, Flow: 3}, {Bin: -4, Flow: 2}}
	r := ScoreAlarmFlows("x", map[int]int{2: 1}, truth, bins)
	if r.TrueAnomalies != 3 || r.Detected != 1 {
		t.Fatalf("out-of-stream truth accounting %+v", r)
	}
	if r.NormalBins != bins-1 {
		t.Fatalf("NormalBins = %d, out-of-stream truths must not shrink it", r.NormalBins)
	}
	if r.FalseAlarms != 0 {
		t.Fatalf("false-alarm accounting %+v", r)
	}
}

// TestEvaluateStreamingSurfacesDeferredRefitError pins the final
// Settle: a refit the last batch made due (which no later ProcessBatch
// would run) that fails must fail the evaluation rather than silently
// score.
func TestEvaluateStreamingSurfacesDeferredRefitError(t *testing.T) {
	const bins, links = 8, 2
	det := &scriptedDetector{links: links, alarmAt: never, settleErr: errors.New("stale-window")}
	_, err := EvaluateStreamingFlows(det, mat.Zeros(bins, links), 4, nil)
	if err == nil || !strings.Contains(err.Error(), "stale-window") {
		t.Fatalf("deferred refit error not surfaced: %v", err)
	}
}
