package eval

import (
	"fmt"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/traffic"
)

// StreamResult scores one streaming backend's alarms against labeled
// anomaly bins — the online analogue of ActualResult, for the paper's
// Section 7.3 comparison of the subspace method with temporal
// forecasting baselines. Detection is scored per bin: a true anomaly is
// detected when an alarm carries its exact stream sequence number, and
// an alarm at an unlabeled bin is a false alarm.
type StreamResult struct {
	// Backend names the scored detector ("subspace", "ewma", ...).
	Backend string
	// Detected of TrueAnomalies labeled bins raised an alarm. A labeled
	// bin with no alarm is the detector's miss — for a hybrid backend,
	// the triage stage's miss, since nothing unalarmed ever reaches its
	// identification stage.
	Detected, TrueAnomalies int
	// FalseAlarms of NormalBins unlabeled bins raised an alarm.
	FalseAlarms, NormalBins int
	// Identified of IdentTrials detected labeled bins carried the true
	// OD flow. IdentTrials counts the detected labeled bins whose truth
	// names a flow AND whose alarm attributed one: a region alarm
	// (alarm Flow == -1, the multiscale and forecast backends) counts
	// as a detection but not an identification trial, so both stay zero
	// when the truth carries no flows or the backend never attributes.
	Identified, IdentTrials int
}

// DetectionRate returns Detected/TrueAnomalies (0 when no anomalies).
func (r StreamResult) DetectionRate() float64 {
	if r.TrueAnomalies == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.TrueAnomalies)
}

// FalseAlarmRate returns FalseAlarms/NormalBins (0 when no normal bins).
func (r StreamResult) FalseAlarmRate() float64 {
	if r.NormalBins == 0 {
		return 0
	}
	return float64(r.FalseAlarms) / float64(r.NormalBins)
}

// IdentificationRate returns Identified/IdentTrials (0 when no trials).
func (r StreamResult) IdentificationRate() float64 {
	if r.IdentTrials == 0 {
		return 0
	}
	return float64(r.Identified) / float64(r.IdentTrials)
}

// String renders the result in the paper's Table 2 style, with a flow
// identification column when the evaluation scored any.
func (r StreamResult) String() string {
	s := fmt.Sprintf("%-12s detection %d/%d (%.0f%%)  false alarms %d/%d (%.2f%%)",
		r.Backend, r.Detected, r.TrueAnomalies, 100*r.DetectionRate(),
		r.FalseAlarms, r.NormalBins, 100*r.FalseAlarmRate())
	if r.IdentTrials > 0 {
		s += fmt.Sprintf("  identified %d/%d", r.Identified, r.IdentTrials)
	}
	return s
}

// ScoreAlarmFlows scores alarmed stream bins (mapped to the flow each
// alarm attributed, -1 for none) against labeled truths over a stream of
// streamBins total bins: detection and false alarms per bin, plus flow
// identification for the detected truths that name a flow. Truth bins
// past the stream end are counted as (undetectable) true anomalies and
// never shrink the normal-bin population; an identification trial needs
// both sides to name a flow — a region alarm (flow -1) on a flow-labeled
// truth is a detection, not a wrong identification.
func ScoreAlarmFlows(backend string, alarmFlows map[int]int, truth []LabeledBin, streamBins int) StreamResult {
	truthFlows := make(map[int]int, len(truth))
	inStream := 0
	for _, tb := range truth {
		if _, dup := truthFlows[tb.Bin]; !dup && tb.Bin >= 0 && tb.Bin < streamBins {
			inStream++
		}
		truthFlows[tb.Bin] = tb.Flow
	}
	r := StreamResult{
		Backend:       backend,
		TrueAnomalies: len(truthFlows),
		NormalBins:    streamBins - inStream,
	}
	for b, flow := range alarmFlows {
		want, ok := truthFlows[b]
		if !ok {
			r.FalseAlarms++
			continue
		}
		r.Detected++
		if want >= 0 && flow >= 0 {
			r.IdentTrials++
			if flow == want {
				r.Identified++
			}
		}
	}
	return r
}

// LabeledBin is one ground-truth anomaly for streaming evaluation: the
// stream bin it lands in and, when known, the responsible OD flow
// (Flow < 0 scores detection only). It is an alias for the traffic
// package's type so the attack-scenario library's ground truth feeds
// EvaluateStreamingFlows directly.
type LabeledBin = traffic.LabeledBin

// EvaluateStreamingFlows replays the measurement stream (bins x links)
// through any streaming backend in batchSize chunks — the engine's
// ingest pattern, without the worker pool — settles the detector once,
// and scores the raised alarms against the labeled truth (bins index
// into the stream). The detector may have processed bins before; alarm
// sequence numbers are rebased to the stream. This is how the paper's
// Section 7.3 online comparison runs: every backend sees the identical
// bins and is scored on the identical labels. Truth entries that name an
// OD flow are additionally scored on whether the detected bin's alarm
// identified that flow — the paper's identification step, measured
// online. The hybrid backend's two claims separate here:
// Detected/TrueAnomalies scores its triage stage's misses,
// Identified/IdentTrials the identification accuracy on the bins that
// escalated. Backends that never attribute flows (forecast, multiscale)
// score 0/n identified on flow-labeled truths.
func EvaluateStreamingFlows(det core.ViewDetector, stream *mat.Dense, batchSize int, truth []LabeledBin) (StreamResult, error) {
	r, _, err := EvaluateStreamingAlarms(det, stream, batchSize, truth)
	return r, err
}

// EvaluateStreamingAlarms is EvaluateStreamingFlows returning the raw
// alarm stream alongside the per-bin score, with every alarm's Seq
// rebased to the stream (bin 0 = first streamed row) and in stream
// order. The alarms feed incident-level scoring: the per-bin result
// cannot distinguish one sustained anomaly from n fragments, but the
// correlation layer consuming these alarms can.
func EvaluateStreamingAlarms(det core.ViewDetector, stream *mat.Dense, batchSize int, truth []LabeledBin) (StreamResult, []core.Alarm, error) {
	bins, cols := stream.Dims()
	if batchSize <= 0 {
		batchSize = 64
	}
	base := det.Stats().Processed
	// flagged maps an alarmed stream bin to the flow its alarm
	// attributed (-1 when the backend does not identify).
	flagged := make(map[int]int)
	var raised []core.Alarm
	data := stream.RawData()
	for r0 := 0; r0 < bins; r0 += batchSize {
		r1 := r0 + batchSize
		if r1 > bins {
			r1 = bins
		}
		chunk := mat.NewDense(r1-r0, cols, data[r0*cols:r1*cols])
		alarms, err := det.ProcessBatch(chunk)
		if err != nil {
			return StreamResult{}, nil, fmt.Errorf("eval: streaming %s: %w", det.Stats().Backend, err)
		}
		for _, a := range alarms {
			flagged[a.Seq-base] = a.Flow
			a.Seq -= base
			raised = append(raised, a)
		}
	}
	if err := det.Settle(); err != nil {
		return StreamResult{}, nil, fmt.Errorf("eval: streaming %s refit: %w", det.Stats().Backend, err)
	}
	return ScoreAlarmFlows(det.Stats().Backend, flagged, truth, bins), raised, nil
}
