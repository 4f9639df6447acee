package netmeas_test

import (
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/snaptest"
)

// TestSnapshotGoldenEnvelopes is the multiflow leg of the core test of
// the same name: a checkpoint written before the subspace detectors
// became one type (three nested subspace envelopes) must still restore,
// re-encode byte-for-byte and raise the recorded alarms.
func TestSnapshotGoldenEnvelopes(t *testing.T) {
	const links = 6
	history := snaptest.Traffic(snaptest.HistoryBins, 3*links, 0)
	t.Run("multiflow", func(t *testing.T) {
		snaptest.Golden(t, "multiflow", func() (core.ViewDetector, error) {
			return netmeas.NewMultiMetricDetector(history, mat.Identity(links), netmeas.MultiMetricConfig{
				Online: core.OnlineConfig{Window: 64},
			})
		}, 3*links)
	})
}
