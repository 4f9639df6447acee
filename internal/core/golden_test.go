package core_test

import (
	"testing"

	"netanomaly/internal/backend"
	"netanomaly/internal/core"
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
	// The detectors come from the one kind→detector builder, so the
	// envelopes pin what a monitor view of each kind restores into.
	cases := map[string]backend.Spec{
		"subspace":    {Kind: "subspace", Window: 64},
		"incremental": {Kind: "incremental", Lambda: 0.995},
		"sketch":      {Kind: "sketch"},
		"hybrid":      {Kind: "hybrid", Window: 64, Hysteresis: 2},
	}
	for name, spec := range cases {
		fresh := func() (core.ViewDetector, error) { return backend.Build(spec, history, routing) }
		t.Run(name, func(t *testing.T) { snaptest.Golden(t, name, fresh, links) })
	}
}
