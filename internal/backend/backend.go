// Package backend is the one place a detector kind becomes a streaming
// detector. Every caller that turns a kind name into a
// core.ViewDetector — the public AddView and Restore, the scorecard,
// the benchmark harness and the examples — fills a Spec and calls New
// (a warm start, which restores a checkpoint into it) or Build (a cold
// start, New followed by Seed), so a kind means the same construction
// everywhere: a restored view is built with exactly the parameters a
// fresh one gets, and the scorecard measures the detectors the daemon
// runs.
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
	// bins; 0 uses the seed history length, and a restore takes the
	// checkpoint's.
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
	// flows, pktsize).
	Metrics []string
}

// New constructs the backend s selects for the links of routing
// (links x flows), unseeded: shape and configuration only, no fit. The
// detector is valid only as the receiver of Seed or Restore until one of
// them succeeds; Stats reports its kind and width. An unknown kind is an
// error naming it.
func New(s Spec, routing *mat.Dense) (core.ViewDetector, error) {
	links := routing.Rows()
	s.Window = max(s.Window, 0)
	online := core.OnlineConfig{Window: s.Window, RefitEvery: s.RefitEvery, Options: s.Options}
	switch s.Kind {
	case "subspace":
		return core.NewOnlineDetector(routing, online)
	case "incremental":
		return core.NewIncrementalDetector(routing, core.IncrementalConfig{
			Lambda:     s.Lambda,
			RefitEvery: s.RefitEvery,
			DriftTol:   s.DriftTol,
			Options:    s.Options,
		})
	case "sketch":
		return core.NewSketchDetector(routing, core.SketchConfig{
			SketchSize: s.SketchSize,
			RefitEvery: s.RefitEvery,
			DriftTol:   s.DriftTol,
			Options:    s.Options,
		})
	case "multiscale":
		return wavelet.NewStreamDetector(links, wavelet.StreamConfig{
			Levels:     s.Levels,
			Confidence: s.Options.Confidence,
			Window:     s.Window,
			RefitEvery: s.RefitEvery,
		})
	case "multiflow":
		return netmeas.NewMultiMetricDetector(routing, netmeas.MultiMetricConfig{
			Metrics: s.Metrics,
			Online:  online,
		})
	case "ewma", "holtwinters", "fourier":
		return newForecast(forecast.Kind(s.Kind), s, links)
	case "hybrid":
		return newHybrid(s, routing)
	}
	return nil, fmt.Errorf("unknown detector kind %q", s.Kind)
}

// Build constructs the backend s selects and seeds it on history:
// bins x links for every kind but multiflow, which wants bins x
// (metrics x links) column-stacked. routing (links x flows) fixes the
// link count and drives flow identification. Errors name the kind.
func Build(s Spec, history, routing *mat.Dense) (core.ViewDetector, error) {
	det, err := New(s, routing)
	if err != nil {
		return nil, err
	}
	if cols, want := history.Cols(), det.Stats().Links; cols != want {
		return nil, fmt.Errorf("history has %d columns, %s backend on %d links wants %d", cols, s.Kind, routing.Rows(), want)
	}
	if err := det.Seed(history); err != nil {
		return nil, err
	}
	return det, nil
}

// newForecast builds an unseeded per-link forecasting detector of the
// given kind with s's window and refit cadence and the forecaster's
// defaults.
func newForecast(kind forecast.Kind, s Spec, links int) (*forecast.Detector, error) {
	return forecast.New(links, forecast.Config{
		Kind:       kind,
		Window:     s.Window,
		RefitEvery: s.RefitEvery,
	})
}

// newHybrid assembles the triage→identification backend: an ewma
// forecast detector as the always-on triage stage and a windowed
// subspace detector as the identification stage that every triage alarm
// escalates to. The subspace stage's automatic refits are disabled — the
// hybrid re-seeds it from its clean-bin window on the refit cadence
// instead, so the model stays fresh without a per-bin subspace pass.
func newHybrid(s Spec, routing *mat.Dense) (core.ViewDetector, error) {
	tdet, err := newForecast(forecast.EWMA, s, routing.Rows())
	if err != nil {
		return nil, fmt.Errorf("hybrid triage stage: %w", err)
	}
	identify, err := core.NewOnlineDetector(routing, core.OnlineConfig{Window: s.Window, Options: s.Options})
	if err != nil {
		return nil, fmt.Errorf("hybrid identification stage: %w", err)
	}
	return core.NewHybridDetector(tdet, identify, core.HybridConfig{
		Window:     s.Window,
		RefitEvery: s.RefitEvery,
	})
}
