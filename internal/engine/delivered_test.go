package engine

import (
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/incident"
	"netanomaly/internal/mat"
)

// spikeDetector counts bins like countDetector and raises an alarm on
// flow 3 at each listed stream bin.
type spikeDetector struct {
	countDetector
	at map[int]bool
}

func (d *spikeDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []core.Alarm
	for i := 0; i < y.Rows(); i++ {
		if seq := d.n + i; d.at[seq] {
			out = append(out, core.Alarm{Seq: seq, Diagnosis: core.Diagnosis{Bin: seq, Flow: 3, SPE: 2, Threshold: 1}})
		}
	}
	d.n += y.Rows()
	return out, nil
}

// TestDeliveredBinsKeepsIncidentWhole replays the incident-clock race a
// ticking daemon runs into: one batch raises alarms at bins 10 and 15 —
// within the quiet period of each other, so one incident — and the
// clock ticks while the batch's first alarm is still being handled. By
// then the detector has counted the whole batch, so a clock driven by
// the processed count jumps to bin 63, closes the incident, and the
// bin-15 alarm opens a second one. DeliveredBins has not moved past the
// batch yet, so a clock driven by it leaves the incident open.
func TestDeliveredBinsKeepsIncidentWhole(t *testing.T) {
	const links, bins, view = 2, 64, "v"
	for _, tc := range []struct {
		name      string
		watermark func(*Monitor) int // bins whose alarms the clock may pass
		incidents int
	}{
		{"processed", func(m *Monitor) int { vs, _ := m.ViewStats(view); return vs.Processed }, 2},
		{"delivered", func(m *Monitor) int { qs, _ := m.QueueStats(view); return int(qs.DeliveredBins) }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corr := incident.New(incident.Config{})
			tick := func(m *Monitor) {
				if w := tc.watermark(m); w > 0 {
					corr.Advance(w - 1)
				}
			}
			blocked, release := make(chan struct{}), make(chan struct{})
			mon := NewMonitor(Config{Workers: 1, BatchSize: bins, OnAlarm: func(a Alarm) {
				corr.Observe(a.View, a.Alarm)
				if a.Seq == 10 {
					close(blocked)
					<-release
				}
			}})
			defer mon.Close()
			det := &spikeDetector{countDetector: countDetector{links: links}, at: map[int]bool{10: true, 15: true}}
			if err := mon.AddDetectorView(view, det); err != nil {
				t.Fatal(err)
			}
			if err := mon.Ingest(view, mat.Zeros(bins, links)); err != nil {
				t.Fatal(err)
			}
			<-blocked
			tick(mon)
			close(release)
			mon.Flush()
			if qs, _ := mon.QueueStats(view); qs.DeliveredBins != bins {
				t.Fatalf("DeliveredBins = %d after the batch, want %d", qs.DeliveredBins, bins)
			}
			tick(mon)
			corr.Flush()
			if got := corr.Stats().Opened; got != tc.incidents {
				t.Fatalf("%d incidents opened, want %d", got, tc.incidents)
			}
		})
	}
}
