package engine

// Deterministic load/stress harness for the engine's fixed worker pool.
// Arrivals are scripted per-view bursts of marker-tagged bins, and
// service time is controlled by a token gate (a batch proceeds only when
// the test releases it), so queue depths and drop counts are exact, not
// timing-dependent. Run under -race in CI.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
)

// loadDetector is a scripted ViewDetector: it records the column-0
// marker of every bin it processes (in processing order, so FIFO
// violations are directly visible), optionally blocks each batch on a
// token gate, and can raise one alarm per bin carrying the bin's marker
// in SPE so alarm delivery is checkable bin-for-bin.
type loadDetector struct {
	links    int
	gate     chan struct{} // non-nil: consume one token per batch before processing
	alarmAll bool          // raise an alarm for every bin (SPE = marker)

	mu        sync.Mutex
	processed int
	markers   []float64
}

func (d *loadDetector) Seed(*mat.Dense) error { return nil }

func (d *loadDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	if d.gate != nil {
		<-d.gate
	}
	rows, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("load: batch has %d links, want %d", cols, d.links)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var alarms []core.Alarm
	for r := 0; r < rows; r++ {
		marker := y.At(r, 0)
		d.markers = append(d.markers, marker)
		if d.alarmAll {
			alarms = append(alarms, core.Alarm{
				Seq:       d.processed,
				Diagnosis: core.Diagnosis{SPE: marker, Flow: -1},
			})
		}
		d.processed++
	}
	return alarms, nil
}

func (d *loadDetector) Refit() error             { return nil }
func (d *loadDetector) Settle() error            { return nil }
func (d *loadDetector) Snapshot(io.Writer) error { return nil }
func (d *loadDetector) Restore(io.Reader) error  { return nil }

func (d *loadDetector) Stats() core.ViewStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return core.ViewStats{Backend: "load", Links: d.links, Processed: d.processed}
}

// seenMarkers snapshots the processing-order marker log.
func (d *loadDetector) seenMarkers() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.markers...)
}

// markerBatch builds an n x links batch whose column 0 carries
// consecutive markers start, start+1, ...
func markerBatch(start, n, links int) *mat.Dense {
	b := mat.Zeros(n, links)
	for r := 0; r < n; r++ {
		b.Set(r, 0, float64(start+r))
	}
	return b
}

// requireIncreasingByOne fails unless markers are exactly 0,1,2,...,n-1:
// any drop, duplicate or reorder shows up here.
func requireIncreasingByOne(t *testing.T, view string, markers []float64, n int) {
	t.Helper()
	if len(markers) != n {
		t.Fatalf("view %s processed %d bins, want %d", view, len(markers), n)
	}
	for i, mk := range markers {
		if mk != float64(i) {
			t.Fatalf("view %s FIFO broken: position %d holds marker %v", view, i, mk)
		}
	}
}

// waitUntil polls cond (a pure read) until it holds or the deadline
// passes. It is used only to wait for concurrent goroutines to reach a
// scripted state, never to assert a quantity — the quantities asserted
// by the harness are invariants that hold at every instant.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestLoadFIFOPreservedAtFixedPoolSizes runs four views ingesting
// waves of marker-tagged bursts on pools of one, two and eight workers,
// and requires every view to have processed exactly its arrival order
// afterwards: shard affinity, not pool size, is what serializes a view.
func TestLoadFIFOPreservedAtFixedPoolSizes(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := NewMonitor(Config{Workers: workers, BatchSize: 8})
			defer m.Close()

			const views, waves, binsPerWave = 4, 6, 40
			dets := make([]*loadDetector, views)
			for v := range dets {
				dets[v] = &loadDetector{links: 3}
				if err := m.AddDetectorView(fmt.Sprintf("v%d", v), dets[v]); err != nil {
					t.Fatal(err)
				}
			}
			for wave := 0; wave < waves; wave++ {
				for v := 0; v < views; v++ {
					if err := m.Ingest(fmt.Sprintf("v%d", v), markerBatch(wave*binsPerWave, binsPerWave, 3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			m.Flush()
			for v, det := range dets {
				requireIncreasingByOne(t, fmt.Sprintf("v%d", v), det.seenMarkers(), waves*binsPerWave)
			}
			st := m.Stats()
			if st.Workers != workers || st.WorkersHighWater != workers {
				t.Fatalf("pool %d live, high-water %d; want both %d", st.Workers, st.WorkersHighWater, workers)
			}
			if st.QueuedBins != 0 || st.DroppedBins != 0 {
				t.Fatalf("post-flush stats not clean: %+v", st)
			}
			m.Close()
			if st := m.Stats(); st.Workers != 0 || st.WorkersHighWater != workers {
				t.Fatalf("after Close: %d live workers, high-water %d; want 0 and %d", st.Workers, st.WorkersHighWater, workers)
			}
		})
	}
}

// TestLoadBoundedQueueUnderSustainedOverload holds the single worker on
// a token gate and floods one view far past MaxPending, then checks
// each policy's contract: queued bins never exceed the bound (memory
// stays bounded no matter how long the overload lasts), Block loses
// nothing, DropOldest loses oldest-first and counts every loss,
// OverloadError rejects without corrupting the queue — and in every
// case the engine's counters reconcile exactly with the bins the
// detector actually saw.
func TestLoadBoundedQueueUnderSustainedOverload(t *testing.T) {
	const (
		links      = 3
		batchSize  = 4
		maxPending = 12
		chunks     = 50
		totalBins  = chunks * batchSize
	)
	for _, tc := range []struct {
		name   string
		policy OverloadPolicy
	}{
		{"block", OverloadBlock},
		{"dropoldest", OverloadDropOldest},
		{"error", OverloadError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			det := &loadDetector{links: links, gate: gate}
			m := NewMonitor(Config{
				Workers:    1,
				BatchSize:  batchSize,
				MaxPending: maxPending,
				Overload:   tc.policy,
			})
			defer m.Close()
			if err := m.AddDetectorView("v", det); err != nil {
				t.Fatal(err)
			}

			var ingestErrs []error
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < chunks; i++ {
					if err := m.Ingest("v", markerBatch(i*batchSize, batchSize, links)); err != nil {
						ingestErrs = append(ingestErrs, err)
					}
				}
			}()

			checkBound := func() {
				if q := m.Stats().QueuedBins; q > maxPending {
					t.Fatalf("queue grew to %d bins, bound is %d", q, maxPending)
				}
			}
			switch tc.policy {
			case OverloadBlock:
				// The producer must wedge against the full queue; feed
				// batches through one token at a time, checking the
				// bound at every step.
				waitUntil(t, "queue to fill", func() bool {
					return m.Stats().QueuedBins == maxPending
				})
				for i := 0; i < chunks; i++ {
					checkBound()
					gate <- struct{}{}
				}
				<-done
			default:
				// Non-blocking policies: the producer finishes against
				// a held worker, then the backlog drains.
				<-done
				checkBound()
				close(gate)
			}
			if tc.policy == OverloadBlock {
				close(gate) // tokens delivered above; open for stragglers
			}
			m.Flush()
			checkBound()

			qs, err := m.QueueStats("v")
			if err != nil {
				t.Fatal(err)
			}
			stats := det.Stats()
			if qs.QueuedBins != 0 || qs.QueuedBatches != 0 {
				t.Fatalf("queue not drained: %+v", qs)
			}
			// The universal reconciliation: what went in minus what was
			// shed is exactly what the detector processed.
			if got := qs.EnqueuedBins - qs.DroppedBins; got != int64(stats.Processed) {
				t.Fatalf("counters do not reconcile: enqueued %d - dropped %d != processed %d",
					qs.EnqueuedBins, qs.DroppedBins, stats.Processed)
			}
			if qs.EnqueuedBins+qs.RejectedBins != totalBins {
				t.Fatalf("accepted %d + rejected %d != sent %d", qs.EnqueuedBins, qs.RejectedBins, totalBins)
			}
			// Survivors must still be in arrival order.
			markers := det.seenMarkers()
			for i := 1; i < len(markers); i++ {
				if markers[i] <= markers[i-1] {
					t.Fatalf("FIFO broken on survivors: %v then %v", markers[i-1], markers[i])
				}
			}
			switch tc.policy {
			case OverloadBlock:
				if len(ingestErrs) != 0 {
					t.Fatalf("block policy returned errors: %v", ingestErrs)
				}
				if qs.DroppedBins != 0 || qs.RejectedBins != 0 {
					t.Fatalf("block policy lost bins: %+v", qs)
				}
				if stats.Processed != totalBins {
					t.Fatalf("processed %d want %d", stats.Processed, totalBins)
				}
			case OverloadDropOldest:
				if len(ingestErrs) != 0 {
					t.Fatalf("dropoldest returned errors: %v", ingestErrs)
				}
				if qs.DroppedBins == 0 {
					t.Fatal("sustained overload dropped nothing")
				}
				if qs.EnqueuedBins != totalBins {
					t.Fatalf("dropoldest must accept everything: enqueued %d of %d", qs.EnqueuedBins, totalBins)
				}
				// Newest data survives: the final chunk is never dropped.
				last := markers[len(markers)-1]
				if last != totalBins-1 {
					t.Fatalf("newest bin lost: last processed marker %v, want %d", last, totalBins-1)
				}
			case OverloadError:
				if len(ingestErrs) == 0 {
					t.Fatal("error policy returned no error under overload")
				}
				for _, err := range ingestErrs {
					if !errors.Is(err, ErrOverloaded) {
						t.Fatalf("unexpected ingest error: %v", err)
					}
				}
				if qs.RejectedBins == 0 {
					t.Fatal("error policy rejected nothing")
				}
				if qs.DroppedBins != 0 {
					t.Fatalf("error policy dropped queued work: %+v", qs)
				}
			}
		})
	}
}

// TestLoadNoLostAlarmsOnCloseMidBurst races three bursting producers
// against Close under the Block policy and requires exact alarm
// accounting afterwards: every bin of every Ingest call that was
// accepted has its alarm in TakeAlarms, every call rejected by the
// closed monitor contributed nothing, and nothing deadlocks.
func TestLoadNoLostAlarmsOnCloseMidBurst(t *testing.T) {
	const (
		producers = 3
		calls     = 30
		binsPer   = 8
		links     = 3
	)
	det := &loadDetector{links: links, alarmAll: true}
	m := NewMonitor(Config{
		Workers:    2,
		BatchSize:  4,
		MaxPending: 16,
		Overload:   OverloadBlock,
	})
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}

	type result struct {
		start, n int
		accepted bool
	}
	results := make([][]result, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				start := (p*calls + c) * binsPer
				err := m.Ingest("v", markerBatch(start, binsPer, links))
				results[p] = append(results[p], result{start, binsPer, err == nil})
			}
		}(p)
	}
	// Close mid-burst: wait for some real work to be in, then pull the
	// plug while producers are still pushing.
	waitUntil(t, "burst to be underway", func() bool {
		return m.Stats().EnqueuedBins >= 100
	})
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked against bursting producers")
	}
	wg.Wait()

	alarmed := make(map[float64]bool)
	for _, a := range m.TakeAlarms() {
		alarmed[a.SPE] = true
	}
	var accepted int64
	for p := range results {
		for _, r := range results[p] {
			for i := 0; i < r.n; i++ {
				marker := float64(r.start + i)
				if r.accepted && !alarmed[marker] {
					t.Fatalf("bin %v was accepted but its alarm is missing", marker)
				}
				if !r.accepted && alarmed[marker] {
					t.Fatalf("bin %v of a rejected Ingest call was processed", marker)
				}
			}
			if r.accepted {
				accepted += int64(r.n)
			}
		}
	}
	qs, err := m.QueueStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if qs.EnqueuedBins != accepted || qs.DroppedBins != 0 || qs.QueuedBins != 0 {
		t.Fatalf("accounting after Close: %+v, accepted %d", qs, accepted)
	}
	if got := det.Stats().Processed; int64(got) != accepted {
		t.Fatalf("detector processed %d of %d accepted bins", got, accepted)
	}
	if got := m.TakeAlarms(); len(got) != 0 {
		t.Fatalf("second TakeAlarms returned %d alarms", len(got))
	}
}

// TestLoadCloseDuringRefitUnderOverload composes the worst case: a
// bounded queue under Block backpressure, a refit falling due on every
// chunk and failing on the worker, and Close racing a still-bursting
// producer. Nothing may deadlock, Close must drain every accepted bin
// and settle it, and every refit failure must reach Errs after Close:
// the refits that ran and the failures recorded add up to one per
// RefitEvery accepted bins. Run under -race in CI.
func TestLoadCloseDuringRefitUnderOverload(t *testing.T) {
	const bins, links, every = 48, 4, 16
	history := smallPatternHistory(bins, links)
	// A constant continuation drives the window degenerate, so once it
	// fills the window every refit fails.
	constant := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		constant.SetRow(i, history.ColMeans())
	}
	det, err := seeded(core.NewOnlineDetector(mat.Identity(links), core.OnlineConfig{Window: bins, RefitEvery: every}))(history)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(Config{
		Workers:    1,
		BatchSize:  every,
		MaxPending: 2 * every,
		Overload:   OverloadBlock,
	})
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for i := 0; i < 12; i++ {
			if err := m.Ingest("v", constant); err != nil {
				return // monitor closed mid-burst: expected
			}
		}
	}()
	for det.Stats().Processed < 4*bins {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked with refits falling due under overload")
	}
	select {
	case <-prodDone:
	case <-time.After(30 * time.Second):
		t.Fatal("producer deadlocked against the closed monitor")
	}
	qs, err := m.QueueStats("v")
	if err != nil {
		t.Fatal(err)
	}
	stats := det.Stats()
	if int64(stats.Processed) != qs.EnqueuedBins || qs.QueuedBins != 0 {
		t.Fatalf("after Close: processed %d, queue %+v", stats.Processed, qs)
	}
	errs := m.Errs()
	for _, err := range errs {
		if !strings.Contains(err.Error(), " refit: ") {
			t.Fatalf("non-refit error recorded: %v", err)
		}
	}
	if len(errs) == 0 || stats.Refits+len(errs) != stats.Processed/every {
		t.Fatalf("%d refits and %d recorded failures over %d bins, want one of either per %d", stats.Refits, len(errs), stats.Processed, every)
	}
}

// TestLoadOversizedChunkAdmittedAlone pins the wedge-avoidance rule: a
// chunk larger than MaxPending is admitted into an empty queue instead
// of blocking (or erroring) forever.
func TestLoadOversizedChunkAdmittedAlone(t *testing.T) {
	for _, policy := range []OverloadPolicy{OverloadBlock, OverloadDropOldest, OverloadError} {
		t.Run(policy.String(), func(t *testing.T) {
			det := &loadDetector{links: 3}
			m := NewMonitor(Config{
				Workers:    1,
				BatchSize:  16,
				MaxPending: 4, // smaller than one chunk
				Overload:   policy,
			})
			defer m.Close()
			if err := m.AddDetectorView("v", det); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := m.Ingest("v", markerBatch(i*16, 16, 3)); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Fatal(err)
				}
			}
			m.Flush()
			if got := det.Stats().Processed; got == 0 {
				t.Fatal("oversized chunks never processed")
			}
		})
	}
}

// TestLoadUnknownOverloadPolicyRejected pins registration-time
// validation of the policy: enqueue has no case for an unknown policy
// and would admit every chunk, so a bounded queue would silently become
// unbounded. The view must be refused with an error naming it and the
// value, and must not be registered.
func TestLoadUnknownOverloadPolicyRejected(t *testing.T) {
	t.Run("config", func(t *testing.T) {
		m := NewMonitor(Config{Workers: 1, MaxPending: 8, Overload: OverloadPolicy(9)})
		defer m.Close()
		err := m.AddDetectorView("v", &loadDetector{links: 3})
		if err == nil || !strings.Contains(err.Error(), `"v"`) || !strings.Contains(err.Error(), "9") {
			t.Fatalf("unknown policy accepted or error unspecific: %v", err)
		}
		if views := m.Views(); len(views) != 0 {
			t.Fatalf("rejected view registered: %v", views)
		}
	})
}

// TestLoadDropAwareSeq pins the drop-aware Seq contract: under
// OverloadDropOldest an alarm's Seq must be the bin's true offset in
// the ingest stream, not the detector's post-drop processing count.
// Column-0 markers carry each bin's stream offset, and the alarmAll
// detector echoes the marker in SPE, so Seq == SPE is checkable
// alarm-for-alarm.
func TestLoadDropAwareSeq(t *testing.T) {
	const links = 4
	det := &loadDetector{links: links, gate: make(chan struct{}), alarmAll: true}
	m := NewMonitor(Config{
		Workers:    1,
		BatchSize:  4,
		MaxPending: 8,
		Overload:   OverloadDropOldest,
	})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}

	// First batch: the worker dequeues it and parks on the gate, so the
	// queue is empty but the shard is busy for the rest of the script.
	if err := m.Ingest("v", markerBatch(0, 4, links)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "worker to take the first batch", func() bool {
		qs, err := m.QueueStats("v")
		return err == nil && qs.QueuedBins == 0
	})

	// Fill the queue (8 bins), then push two more batches: each evicts
	// the oldest queued batch. Bins 4..11 are dropped, 12..19 survive.
	for _, start := range []int{4, 8, 12, 16} {
		if err := m.Ingest("v", markerBatch(start, 4, links)); err != nil {
			t.Fatal(err)
		}
	}
	qs, err := m.QueueStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if qs.DroppedBins != 8 {
		t.Fatalf("dropped %d bins, want 8", qs.DroppedBins)
	}

	close(det.gate)
	m.Flush()

	want := []float64{0, 1, 2, 3, 12, 13, 14, 15, 16, 17, 18, 19}
	got := det.seenMarkers()
	if len(got) != len(want) {
		t.Fatalf("processed markers %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("processed markers %v, want %v", got, want)
		}
	}

	alarms := m.TakeAlarms()
	if len(alarms) != len(want) {
		t.Fatalf("got %d alarms, want %d", len(alarms), len(want))
	}
	seen := make(map[int]bool)
	for _, a := range alarms {
		if a.Seq != int(a.SPE) {
			t.Fatalf("alarm for stream bin %v reports Seq %d (post-drop queue position?)", a.SPE, a.Seq)
		}
		seen[a.Seq] = true
	}
	for _, w := range want {
		if !seen[int(w)] {
			t.Fatalf("no alarm with stream offset %v; alarms: %+v", w, alarms)
		}
	}
}
