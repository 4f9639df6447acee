package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// eagerFeed returns the function that folds one clean row straight into
// est's covariance, the way absorb did before it could defer the fold.
func eagerFeed(t *testing.T, est estimator) func(row []float64) {
	t.Helper()
	switch e := est.(type) {
	case *sketchEstimator:
		return func(row []float64) {
			if err := e.sk.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	case *covEstimator:
		return e.tr.Update
	}
	t.Fatalf("no eager oracle for %T", est)
	return nil
}

// TestSettleMatchesEagerFold: however the deferred fold is scheduled —
// Settle after every batch, never (so the next absorb, Refit or Snapshot
// folds), or at random points — the sketch and tracker estimators end up
// byte-for-byte where a twin fed the same clean rows eagerly ends up, and
// raise the same alarms after an explicit Refit. One row overwrites each
// batch with NaN as soon as ProcessBatch returns, as the engine's pooled
// buffers do: the later fold must not see it.
func TestSettleMatchesEagerFold(t *testing.T) {
	modes := []struct {
		name    string
		settle  func(rng *rand.Rand) bool
		clobber bool
	}{
		{"every", func(*rand.Rand) bool { return true }, false},
		{"never", func(*rand.Rand) bool { return false }, false},
		{"random", func(rng *rand.Rand) bool { return rng.Intn(2) == 0 }, false},
		{"never-reused-batch", func(*rand.Rand) bool { return false }, true},
	}
	topo, history, stream, _ := streamDataset(t, 75, 504, 96, []int{12, 40})
	routing := topo.RoutingMatrix()
	const streamed = 80 // the rest is the probe batch after the refit
	for _, c := range estimatorCases {
		if c.name == "subspace" {
			continue // the window has no deferred fold
		}
		for _, mode := range modes {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				d, err := c.build(history, routing, 0)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := c.build(history, routing, 0)
				if err != nil {
					t.Fatal(err)
				}
				feed := eagerFeed(t, twin.est)
				sameState := func(when string) {
					t.Helper()
					twin.processed = d.Processed()
					var got, want bytes.Buffer
					if err := d.Snapshot(&got); err != nil {
						t.Fatal(err)
					}
					if err := twin.Snapshot(&want); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("%s: snapshot differs from the eager fold's", when)
					}
				}

				rng := rand.New(rand.NewSource(5))
				sizes := []int{1, 7, 16, 33, 3, 20}
				alarmed := 0
				for from, k := 0, 0; from < streamed; k++ {
					to := min(from+sizes[k%len(sizes)], streamed)
					batch := rowsOf(stream, from, to).Clone()
					alarms, err := d.ProcessBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					if mode.clobber {
						for i := range batch.RawData() {
							batch.RawData()[i] = math.NaN()
						}
					}
					flagged := alarmSeqs(alarms)
					alarmed += len(flagged)
					for b := from; b < to; b++ {
						if !flagged[b] {
							feed(stream.RowView(b))
						}
					}
					if mode.settle(rng) {
						if err := d.Settle(); err != nil {
							t.Fatal(err)
						}
					}
					if from < streamed/2 && to >= streamed/2 {
						sameState("mid-stream")
					}
					from = to
				}
				if alarmed == 0 {
					t.Fatal("no bin alarmed: the withheld-row path went untested")
				}

				if err := d.Refit(); err != nil {
					t.Fatal(err)
				}
				if err := twin.Refit(); err != nil {
					t.Fatal(err)
				}
				sameState("after Refit")
				probe := rowsOf(stream, streamed, stream.Rows()).Clone()
				probe.Set(3, 5, 40*probe.At(3, 5))
				got, err := d.ProcessBatch(probe)
				if err != nil {
					t.Fatal(err)
				}
				want, err := twin.ProcessBatch(probe)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("alarms after Refit: got %+v, eager fold %+v", got, want)
				}
			})
		}
	}
}

// TestRefitCadenceKeepsPhase: a batch size that does not divide the
// refit interval must not stretch it. The bins a batch carries past the
// interval count towards the next one, so exactly processed/interval
// refits run; resetting the count to zero at each due refit ran one per
// two 48-bin batches under a 64-bin interval (42 over 4000 bins, not 62)
// and one per 1024 bins under a 1008-bin interval at 64-bin batches.
func TestRefitCadenceKeepsPhase(t *testing.T) {
	for _, tc := range []struct{ every, batch, bins int }{
		{64, 48, 4000},
		{1008, 64, 10080},
		{144, 64, 768},
		{64, 64, 640},
	} {
		var mu sync.Mutex
		g := NewRefitGate(&mu, tc.every)
		for done := 0; done < tc.bins; done += tc.batch {
			n := min(tc.batch, tc.bins-done)
			mu.Lock()
			g.DueLocked(n, true)
			mu.Unlock()
			if err := g.Settle(func() Refit { return noopFit }); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		got := g.RefitsLocked()
		mu.Unlock()
		if want := tc.bins / tc.every; got != want {
			t.Errorf("interval %d, %d-bin batches, %d bins: %d refits, want %d", tc.every, tc.batch, tc.bins, got, want)
		}
	}

	// The same through a detector: 48-bin batches under a 64-bin interval.
	topo, history, stream, _ := streamDataset(t, 67, 504, 480, nil)
	for _, c := range estimatorCases {
		t.Run(c.name, func(t *testing.T) {
			d, err := c.build(history, topo.RoutingMatrix(), 64)
			if err != nil {
				t.Fatal(err)
			}
			for from := 0; from < stream.Rows(); from += 48 {
				if _, err := d.ProcessBatch(rowsOf(stream, from, from+48)); err != nil {
					t.Fatal(err)
				}
				if err := d.Settle(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := d.Stats().Refits, stream.Rows()/64; got != want {
				t.Fatalf("%d refits over %d bins in 48-bin batches, want %d", got, stream.Rows(), want)
			}
		})
	}
}

// noopFit is a Refit that fits nothing and commits.
func noopFit() (func() bool, error) { return func() bool { return true }, nil }
