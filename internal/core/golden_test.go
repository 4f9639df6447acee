package core_test

import (
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/forecast"
	"netanomaly/internal/mat"
	"netanomaly/internal/snaptest"
)

// TestSnapshotGoldenEnvelopes loads checkpoints written by the commit
// before the subspace family collapsed into one detector type (see
// package snaptest): each must restore into a freshly built detector,
// re-encode byte-for-byte, and raise the recorded alarms on the next
// batch.
func TestSnapshotGoldenEnvelopes(t *testing.T) {
	const links = 6
	history := snaptest.Traffic(snaptest.HistoryBins, links, 0)
	routing := mat.Identity(links)
	subspace := func() (core.ViewDetector, error) {
		return core.NewOnlineDetector(history, routing, core.OnlineConfig{Window: 64})
	}
	cases := map[string]func() (core.ViewDetector, error){
		"subspace": subspace,
		"incremental": func() (core.ViewDetector, error) {
			return core.NewIncrementalDetector(history, routing, core.IncrementalConfig{Lambda: 0.995})
		},
		"sketch": func() (core.ViewDetector, error) {
			return core.NewSketchDetector(history, routing, core.SketchConfig{})
		},
		"hybrid": func() (core.ViewDetector, error) {
			triage, err := forecast.NewDetector(history, forecast.Config{Kind: forecast.EWMA})
			if err != nil {
				return nil, err
			}
			identify, err := subspace()
			if err != nil {
				return nil, err
			}
			return core.NewHybridDetector(triage, identify, history, core.HybridConfig{Hysteresis: 2})
		},
	}
	for name, fresh := range cases {
		t.Run(name, func(t *testing.T) { snaptest.Golden(t, name, fresh, links) })
	}
}
