// Package backend is the one place a detector kind becomes a seeded
// streaming detector. Every caller that turns a kind name into a
// core.ViewDetector — the public AddView and Restore, the scorecard,
// the benchmark harness and the examples — fills a Spec and calls
// Build, so a kind means the same construction everywhere: a restored
// view is rebuilt with exactly the parameters a fresh one gets, and the
// scorecard measures the detectors the daemon runs.
package backend

import (
	"fmt"

	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/wavelet"
)

// Kinds lists every buildable backend, in scorecard table order: the
// five subspace-family members, the three forecast baselines, and the
// hybrid composition.
var Kinds = []string{
	"subspace", "incremental", "sketch", "multiscale", "multiflow",
	"ewma", "holtwinters", "fourier", "hybrid",
}

// Spec selects and parameterizes one backend. The zero value of every
// field except Kind takes the underlying constructor's default, and a
// kind ignores the fields it does not read.
type Spec struct {
	// Kind is one of Kinds.
	Kind string
	// Window is the sliding-window (or hybrid clean-bin) capacity in
	// bins; 0 uses the seed history length.
	Window int
	// RefitEvery is the automatic-refit cadence in bins (0 = never).
	RefitEvery int
	// Options configure the subspace method; multiscale reads only
	// Confidence, the forecast kinds neither.
	Options core.Options

	// Lambda is incremental's forgetting factor (0 = 1); DriftTol is the
	// incremental and sketch rebuild gate.
	Lambda, DriftTol float64
	// SketchSize is sketch's Frequent-Directions row count (0 = 4x rank).
	SketchSize int
	// Levels is multiscale's wavelet depth (0 = 3).
	Levels int
	// Metrics names multiflow's stacked column blocks (nil = bytes,
	// flows, pktsize); Quorum is its vote (0 = 1).
	Metrics []string
	Quorum  int
	// Alpha, Beta and K tune the forecast kinds and the hybrid's triage
	// stage (0 = each forecaster's default).
	Alpha, Beta, K float64
	// Triage is the hybrid's forecast kind ("" = ewma), Escalation its
	// policy ("" = immediate), Hysteresis its hold in bins.
	Triage, Escalation string
	Hysteresis         int
}

// Build constructs the backend s selects and seeds it on history:
// bins x links for every kind but multiflow, which wants bins x
// (metrics x links) column-stacked. routing (links x flows) fixes the
// link count and drives flow identification. Errors name the kind.
func Build(s Spec, history, routing *mat.Dense) (core.ViewDetector, error) {
	links := routing.Rows()
	want := links
	if s.Kind == "multiflow" {
		if len(s.Metrics) == 0 {
			s.Metrics = netmeas.DefaultMetricNames
		}
		want = len(s.Metrics) * links
	}
	if cols := history.Cols(); cols != want {
		return nil, fmt.Errorf("history has %d columns, %s backend on %d links wants %d", cols, s.Kind, links, want)
	}
	if s.Window <= 0 {
		s.Window = history.Rows()
	}
	online := core.OnlineConfig{Window: s.Window, RefitEvery: s.RefitEvery, Options: s.Options}

	switch s.Kind {
	case "subspace":
		return core.NewOnlineDetector(history, routing, online)
	case "incremental":
		return core.NewIncrementalDetector(history, routing, core.IncrementalConfig{
			Lambda:     s.Lambda,
			RefitEvery: s.RefitEvery,
			DriftTol:   s.DriftTol,
			Options:    s.Options,
		})
	case "sketch":
		return core.NewSketchDetector(history, routing, core.SketchConfig{
			SketchSize: s.SketchSize,
			RefitEvery: s.RefitEvery,
			DriftTol:   s.DriftTol,
			Options:    s.Options,
		})
	case "multiscale":
		return wavelet.NewStreamDetector(history, wavelet.StreamConfig{
			Levels:     s.Levels,
			Confidence: s.Options.Confidence,
			Window:     s.Window,
			RefitEvery: s.RefitEvery,
		})
	case "multiflow":
		return netmeas.NewMultiMetricDetector(history, routing, netmeas.MultiMetricConfig{
			Metrics: s.Metrics,
			Quorum:  s.Quorum,
			Online:  online,
		})
	case "ewma", "holtwinters", "fourier":
		return newForecast(s.Kind, s, history)
	case "hybrid":
		return buildHybrid(s, history, routing)
	}
	return nil, fmt.Errorf("unknown detector kind %q", s.Kind)
}

// newForecast builds a per-link forecasting detector of the given kind
// with s's forecast parameters.
func newForecast(kind string, s Spec, history *mat.Dense) (*forecast.Detector, error) {
	return forecast.NewDetector(history, forecast.Config{
		Kind:       forecast.Kind(kind),
		Alpha:      s.Alpha,
		Beta:       s.Beta,
		K:          s.K,
		Window:     s.Window,
		RefitEvery: s.RefitEvery,
	})
}

// buildHybrid assembles the triage→identification backend: a forecast
// detector as the always-on triage stage and a windowed subspace
// detector as the identification stage, composed under the escalation
// policy. The subspace stage's automatic refits are disabled — the
// hybrid re-seeds it from its clean-bin window on the refit cadence
// instead, so the model stays fresh without a per-bin subspace pass.
func buildHybrid(s Spec, history, routing *mat.Dense) (core.ViewDetector, error) {
	triage := s.Triage
	switch triage {
	case "":
		triage = "ewma"
	case "ewma", "holtwinters", "fourier":
	default:
		return nil, fmt.Errorf("hybrid triage stage must be a forecast kind, got %q", triage)
	}
	policy, confirm, err := core.ParseEscalation(s.Escalation)
	if err != nil {
		return nil, err
	}
	tdet, err := newForecast(triage, s, history)
	if err != nil {
		return nil, fmt.Errorf("hybrid triage stage: %w", err)
	}
	identify, err := core.NewOnlineDetector(history, routing, core.OnlineConfig{Window: s.Window, Options: s.Options})
	if err != nil {
		return nil, fmt.Errorf("hybrid identification stage: %w", err)
	}
	return core.NewHybridDetector(tdet, identify, history, core.HybridConfig{
		Escalation: policy,
		Confirm:    confirm,
		Window:     s.Window,
		RefitEvery: s.RefitEvery,
		Hysteresis: s.Hysteresis,
	})
}
