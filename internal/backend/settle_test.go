package backend_test

import (
	"bytes"
	"reflect"
	"testing"

	"netanomaly/internal/backend"
	"netanomaly/internal/core"
)

// TestSettleDoesNotChangeResults: whether its caller settles after
// every batch or never, a detector tests each batch against the same
// model — a refit left due runs at the start of the next batch, on the
// state Settle would have fitted — so the two raise identical alarms
// and end in identical snapshots. The cadence is exact: one refit per
// RefitEvery bins, none dropped.
func TestSettleDoesNotChangeResults(t *testing.T) {
	const every, batchBins = 64, 16
	y, history, routing := stormStream(t)
	for _, kind := range []string{"subspace", "sketch", "ewma", "hybrid", "multiscale"} {
		t.Run(kind, func(t *testing.T) {
			var alarms [2][]core.Alarm
			var snaps [2]bytes.Buffer
			for i, settle := range []bool{true, false} {
				det, err := backend.Build(backend.Spec{Kind: kind, RefitEvery: every}, history, routing)
				if err != nil {
					t.Fatal(err)
				}
				for from := seedBins; from < y.Rows(); from += batchBins {
					a, err := det.ProcessBatch(rowsOf(y, from, from+batchBins))
					if err != nil {
						t.Fatal(err)
					}
					alarms[i] = append(alarms[i], a...)
					if settle {
						if err := det.Settle(); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Snapshot settles what the unsettled copy left due.
				if err := det.Snapshot(&snaps[i]); err != nil {
					t.Fatal(err)
				}
				if got := det.Stats(); got.Refits != got.Processed/every {
					t.Fatalf("settle=%v: %d refits over %d bins, want one per %d", settle, got.Refits, got.Processed, every)
				}
			}
			if len(alarms[0]) == 0 || !reflect.DeepEqual(alarms[0], alarms[1]) {
				t.Fatalf("settled copy raised %d alarms, unsettled copy %d, want the same non-empty stream", len(alarms[0]), len(alarms[1]))
			}
			if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
				t.Fatal("settled and unsettled copies end in different snapshots")
			}
		})
	}
}
