package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// seeded returns a function that seeds the detector a constructor just
// returned on history — the construction backend.Build runs — passing a
// constructor error through.
func seeded[D interface{ Seed(*mat.Dense) error }](det D, err error) func(history *mat.Dense) (D, error) {
	return func(history *mat.Dense) (D, error) {
		if err == nil {
			err = det.Seed(history)
		}
		return det, err
	}
}

// estimatorCases is the one table the shared streaming contract runs
// over: the three covariance estimators behind the one OnlineDetector.
// Every TestOnlineDetector* lifecycle test below is a row of contract
// checked against each entry, so a behaviour the harness owns is pinned
// for the window, the tracker and the sketch alike.
var estimatorCases = []struct {
	name  string
	build func(history, routing *mat.Dense, refitEvery int) (*OnlineDetector, error)
}{
	{"subspace", func(h, a *mat.Dense, every int) (*OnlineDetector, error) {
		return seeded(NewOnlineDetector(a, OnlineConfig{Window: h.Rows(), RefitEvery: every}))(h)
	}},
	{"incremental", func(h, a *mat.Dense, every int) (*OnlineDetector, error) {
		return seeded(NewIncrementalDetector(a, IncrementalConfig{RefitEvery: every}))(h)
	}},
	{"sketch", func(h, a *mat.Dense, every int) (*OnlineDetector, error) {
		return seeded(NewSketchDetector(a, SketchConfig{RefitEvery: every}))(h)
	}},
}

// forEachEstimator runs check as one subtest per estimator. fresh builds
// a detector seeded with history (504 Abilene bins); stream is the 96
// bins after it.
func forEachEstimator(t *testing.T, refitEvery int, check func(t *testing.T, fresh func() *OnlineDetector, history, stream *mat.Dense)) {
	t.Helper()
	topo, history, stream, _ := streamDataset(t, 67, 504, 96, nil)
	for _, c := range estimatorCases {
		t.Run(c.name, func(t *testing.T) {
			check(t, func() *OnlineDetector {
				d, err := c.build(history, topo.RoutingMatrix(), refitEvery)
				if err != nil {
					t.Fatal(err)
				}
				if got := d.Stats().Backend; got != c.name {
					t.Fatalf("Stats().Backend = %q", got)
				}
				return d
			}, history, stream)
		})
	}
}

// rowsOf returns rows [from, to) of m as a view.
func rowsOf(m *mat.Dense, from, to int) *mat.Dense {
	return mat.NewDense(to-from, m.Cols(), m.RawData()[from*m.Cols():to*m.Cols()])
}

// absorbPoisoned hands a copy of y with one NaN cell straight to the
// detector's absorb, as ProcessBatch would with no bin alarmed: numbered,
// folded into the estimate and counted towards the next refit. It skips
// the detection pass, which withholds a non-finite bin, so the NaN
// reaches the estimate and makes every estimator's next solve fail — the
// portable way to break a refit.
func absorbPoisoned(d *OnlineDetector, y *mat.Dense) error {
	p := y.Clone()
	p.Set(p.Rows()/2, 1, math.NaN())
	_, err := d.absorb(p, make([]bool, p.Rows()))
	return err
}

func isRefitError(err error) bool { return err != nil && strings.Contains(err.Error(), " refit: ") }

func TestOnlineDetectorRefitDoesNotBlockProcess(t *testing.T) {
	forEachEstimator(t, 10, func(t *testing.T, fresh func() *OnlineDetector, _, stream *mat.Dense) {
		d := fresh()
		hold := make(chan struct{})
		entered := make(chan struct{})
		var once sync.Once
		d.SetRefitHook(func() {
			once.Do(func() { close(entered) })
			<-hold
		})
		// Cross the refit interval so a background refit starts and parks
		// in the hook.
		for b := 0; b < 10; b++ {
			if _, _, err := d.Process(stream.RowView(b)); err != nil {
				t.Fatal(err)
			}
		}
		<-entered
		// With the refit held open, the stream must keep flowing. If
		// ProcessBatch blocked behind the refit, this goroutine would never
		// finish and the watchdog below would fire.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for b := 10; b < 90; b += 8 {
				if _, err := d.ProcessBatch(rowsOf(stream, b, b+8)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ProcessBatch blocked while a refit was in flight")
		}
		if got := d.Stats(); got.Processed != 90 || got.Refits != 0 {
			t.Fatalf("while the refit is held: %+v, want 90 processed and no refit yet", got)
		}
		close(hold)
		d.WaitRefits()
		if got := d.Stats().Refits; got != 1 {
			t.Fatalf("Refits = %d after the held refit completed (intervals that elapsed meanwhile are skipped, not queued)", got)
		}
	})
}

func TestOnlineDetectorFailedBackgroundRefitKeepsModel(t *testing.T) {
	forEachEstimator(t, 8, func(t *testing.T, fresh func() *OnlineDetector, _, stream *mat.Dense) {
		d := fresh()
		before := d.Diagnoser()
		// The eighth bin launches a background refit on the poisoned
		// estimate; seven more bins do not reach the next interval.
		errs := []error{absorbPoisoned(d, rowsOf(stream, 0, 8))}
		d.WaitRefits()
		for _, y := range []*mat.Dense{rowsOf(stream, 8, 12), rowsOf(stream, 12, 15)} {
			_, err := d.ProcessBatch(y)
			errs = append(errs, err)
			d.WaitRefits()
		}
		surfaced := 0
		for _, err := range errs {
			if isRefitError(err) {
				surfaced++
			}
		}
		if surfaced != 1 {
			t.Fatalf("failed background refit surfaced on %d calls, want exactly 1", surfaced)
		}
		if err := d.TakeRefitError(); err != nil {
			t.Fatalf("refit error not cleared after it surfaced: %v", err)
		}
		if d.Diagnoser() != before {
			t.Fatal("failed background refit replaced the model")
		}
		if got := d.Stats().Refits; got != 0 {
			t.Fatalf("failed refit counted: Refits = %d", got)
		}
	})
}

// TestOnlineDetectorJoinsAbsorbAndRefitErrors: a batch whose absorb
// fails — settling the rows the previous batch left pending — while a
// failed refit's error is parked must report both. The parked error is
// cleared by the call that takes it, so dropping it here loses it for
// good.
func TestOnlineDetectorJoinsAbsorbAndRefitErrors(t *testing.T) {
	forEachEstimator(t, 8, func(t *testing.T, fresh func() *OnlineDetector, _, stream *mat.Dense) {
		d := fresh()
		release := make(chan struct{})
		d.SetRefitHook(func() { <-release })
		if err := absorbPoisoned(d, rowsOf(stream, 0, 8)); isRefitError(err) {
			t.Fatalf("refit error before the held refit ran: %v", err)
		}
		close(release)
		d.WaitRefits()
		errAbsorb := errors.New("absorb failed")
		d.est = failingSettle{d.est, errAbsorb}
		_, err := d.ProcessBatch(rowsOf(stream, 8, 12))
		if !errors.Is(err, errAbsorb) || !isRefitError(err) {
			t.Fatalf("want the absorb error and the parked refit error joined, got: %v", err)
		}
	})
}

type failingSettle struct {
	estimator
	err error
}

func (f failingSettle) settle() error { return f.err }

// TestOnlineDetectorWithholdsNonFiniteBins: one NaN or ±Inf load mid
// stream used to be tested (SPE NaN, no alarm), folded into the
// estimate and then fail every later refit — for good in the running-
// mean estimators. The bad batch must report ErrNonFinite naming the
// bin, still deliver its clean bins' alarms, and leave an estimate that
// every later batch, Settle and Refit uses without error and whose
// snapshot carries only finite floats.
func TestOnlineDetectorWithholdsNonFiniteBins(t *testing.T) {
	const badBin, spikeBin = 21, 19
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			forEachEstimator(t, 16, func(t *testing.T, fresh func() *OnlineDetector, _, stream *mat.Dense) {
				d := fresh()
				y := stream.Clone()
				y.Set(badBin, 4, bad)
				y.Set(spikeBin, 5, 40*y.At(spikeBin, 5))
				for from := 0; from < y.Rows(); from += 8 {
					alarms, err := d.ProcessBatch(rowsOf(y, from, from+8))
					if from <= badBin && badBin < from+8 {
						if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("bin %d ", badBin)) {
							t.Fatalf("batch with a %v load: got %v, want ErrNonFinite naming bin %d", bad, err, badBin)
						}
						seqs := alarmSeqs(alarms)
						if !seqs[spikeBin] || seqs[badBin] {
							t.Fatalf("batch with a %v load alarmed on %v, want bin %d and not bin %d", bad, seqs, spikeBin, badBin)
						}
					} else if err != nil {
						t.Fatalf("batch at bin %d: %v", from, err)
					}
					if err := d.Settle(); err != nil {
						t.Fatalf("Settle after bin %d: %v", from, err)
					}
					d.WaitRefits()
				}
				row := y.Row(badBin)
				if _, anomalous, err := d.Process(row); !errors.Is(err, ErrNonFinite) || anomalous {
					t.Fatalf("Process of a %v load: anomalous %v, err %v; want ErrNonFinite and no alarm", bad, anomalous, err)
				}
				if err := d.Refit(); err != nil {
					t.Fatal(err)
				}
				if err := d.TakeRefitError(); err != nil {
					t.Fatal(err)
				}
				if got := d.Stats().Refits; got < 5 {
					t.Fatalf("%d refits swapped in, want one per 16 bins", got)
				}
				var snap bytes.Buffer
				if err := d.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				fw := &finiteWriter{}
				sw := NewSnapshotWriter(fw)
				d.est.encode(sw)
				EncodeDetector(sw, d.Diagnoser().det)
				if fw.bad > 0 {
					t.Fatalf("snapshot state holds %d non-finite floats", fw.bad)
				}
			})
		})
	}
}

// finiteWriter counts the 8-byte writes whose bits are not a finite
// float64. A SnapshotWriter writes each field with its own Write, so an
// 8-byte write is an F64 or a count; the estimators and the model encode
// no negative count, and a non-negative one reads as a finite float.
type finiteWriter struct{ bad int }

func (w *finiteWriter) Write(p []byte) (int, error) {
	if len(p) == 8 && !(math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(p))) <= math.MaxFloat64) {
		w.bad++
	}
	return len(p), nil
}

func TestOnlineSeedFailureKeepsWindowAndModel(t *testing.T) {
	forEachEstimator(t, 0, func(t *testing.T, fresh func() *OnlineDetector, history, stream *mat.Dense) {
		d := fresh()
		if _, err := d.ProcessBatch(stream); err != nil {
			t.Fatal(err)
		}
		model, est, stats := d.Diagnoser(), d.est, d.Stats()
		// Identical rows have no variance to fit a residual subspace on:
		// the fit fails after the replacement estimate has been built, and
		// neither may be committed.
		flat := mat.Zeros(history.Rows(), history.Cols())
		for b := 0; b < flat.Rows(); b++ {
			flat.SetRow(b, history.RowView(0))
		}
		if err := d.Seed(flat); err == nil {
			t.Fatal("unfittable seed accepted")
		}
		if d.Diagnoser() != model || d.est != est || d.Stats() != stats {
			t.Fatal("failed Seed changed the model, the estimate or the counters")
		}
		if err := d.Refit(); err != nil {
			t.Fatalf("estimate destroyed by failed Seed: refit errors with %v", err)
		}
		// A good Seed commits both, counts as a refit, and keeps numbering.
		if err := d.Seed(history); err != nil {
			t.Fatal(err)
		}
		if d.Diagnoser() == model || d.est == est {
			t.Fatal("Seed did not replace both the model and the estimate")
		}
		if got := d.Stats(); got.Processed != stats.Processed || got.Refits != stats.Refits+2 {
			t.Fatalf("after Refit and Seed: %+v, before: %+v", got, stats)
		}
	})
}

func TestOnlineDetectorRejectsBadLength(t *testing.T) {
	forEachEstimator(t, 0, func(t *testing.T, fresh func() *OnlineDetector, _, _ *mat.Dense) {
		d := fresh()
		if _, _, err := d.Process([]float64{1, 2, 3}); err == nil {
			t.Fatal("expected error for mismatched measurement length")
		}
		if _, err := d.ProcessBatch(mat.Zeros(4, 3)); err == nil {
			t.Fatal("expected error for mismatched batch width")
		}
		if err := d.Seed(mat.Zeros(10, 3)); err == nil {
			t.Fatal("expected error for mismatched seed width")
		}
		if got := d.Processed(); got != 0 {
			t.Fatalf("rejected measurements were counted: Processed = %d", got)
		}
		// The estimate must be intact: a refit on it still succeeds.
		if err := d.Refit(); err != nil {
			t.Fatalf("refit after rejected measurements: %v", err)
		}
	})
}

// TestOnlineDetectorExcludesAlarmedBins: a flagged bin must not reach the
// estimate. A twin that never saw the spiked bin at all must end up with
// the identical model after a refit.
func TestOnlineDetectorExcludesAlarmedBins(t *testing.T) {
	forEachEstimator(t, 0, func(t *testing.T, fresh func() *OnlineDetector, _, stream *mat.Dense) {
		d, twin := fresh(), fresh()
		const spike = 5
		spiked := rowsOf(stream, 0, 16).Clone()
		spiked.Set(spike, 3, 50*spiked.At(spike, 3))
		alarms, err := d.ProcessBatch(spiked)
		if err != nil {
			t.Fatal(err)
		}
		if !alarmSeqs(alarms)[spike] || len(alarms) != 1 {
			t.Fatalf("want exactly the spiked bin %d flagged, got %+v", spike, alarms)
		}
		for _, span := range [][2]int{{0, spike}, {spike + 1, 16}} {
			if _, err := twin.ProcessBatch(rowsOf(stream, span[0], span[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := errors.Join(d.Refit(), twin.Refit()); err != nil {
			t.Fatal(err)
		}
		got, want := d.Diagnoser().Detector(), twin.Diagnoser().Detector()
		if got.Limit() != want.Limit() || !mat.EqualApprox(got.Model().p, want.Model().p, 0) {
			t.Fatalf("the flagged bin leaked into the estimate: threshold %v, twin that never saw it %v", got.Limit(), want.Limit())
		}
	})
}

// streamDataset splits a generated trace into a seed history and a
// continuation stream with spikes injected at the given stream offsets
// (flow 9, 9e7 bytes — comfortably detectable on Abilene).
func streamDataset(t *testing.T, seed int64, historyBins, streamBins int, spikes []int) (*topology.Topology, *mat.Dense, *mat.Dense, int) {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(seed)
	cfg.Bins = historyBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := gen.Generate()
	const flow = 9
	for _, s := range spikes {
		x.Set(historyBins+s, flow, x.At(historyBins+s, flow)+9e7)
	}
	y := traffic.LinkLoads(topo, x)
	links := topo.NumLinks()
	history := mat.Zeros(historyBins, links)
	for b := 0; b < historyBins; b++ {
		history.SetRow(b, y.RowView(b))
	}
	stream := mat.Zeros(streamBins, links)
	for b := 0; b < streamBins; b++ {
		stream.SetRow(b, y.RowView(historyBins+b))
	}
	return topo, history, stream, flow
}

func alarmSeqs(alarms []Alarm) map[int]bool {
	out := make(map[int]bool, len(alarms))
	for _, a := range alarms {
		out[a.Seq] = true
	}
	return out
}

// TestIncrementalAgreesWithOnline is the cross-backend agreement check:
// with lambda = 1, the same seed history, a full-history window on the
// subspace backend, and synchronized explicit refits, the incremental
// detector must flag exactly the bins the windowed OnlineDetector flags
// on the same trace — the tracked-covariance eigensolve and the window's
// Gram eigensolve are the same model up to round-off.
func TestIncrementalAgreesWithOnline(t *testing.T) {
	const historyBins, streamBins = 1008, 288
	topo, history, stream, flow := streamDataset(t, 60, historyBins, streamBins, []int{40, 150, 260})
	routing := topo.RoutingMatrix()

	online, err := seeded(NewOnlineDetector(routing, OnlineConfig{Window: historyBins + streamBins}))(history)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := seeded(NewIncrementalDetector(routing, IncrementalConfig{Lambda: 1}))(history)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inc.Stats().Rank, online.Stats().Rank; got != want {
		t.Fatalf("seed ranks differ: incremental %d, online %d", got, want)
	}

	var onlineAlarms, incAlarms []Alarm
	half := streamBins / 2
	for _, span := range [][2]int{{0, half}, {half, streamBins}} {
		chunk := mat.NewDense(span[1]-span[0], stream.Cols(), stream.RawData()[span[0]*stream.Cols():span[1]*stream.Cols()])
		oa, err := online.ProcessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		ia, err := inc.ProcessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		onlineAlarms = append(onlineAlarms, oa...)
		incAlarms = append(incAlarms, ia...)
		// Refit both synchronously at the same point so the models stay
		// in lockstep (background refits would swap at racy times).
		if err := online.Refit(); err != nil {
			t.Fatal(err)
		}
		if err := inc.Refit(); err != nil {
			t.Fatal(err)
		}
	}

	got, want := alarmSeqs(incAlarms), alarmSeqs(onlineAlarms)
	if len(got) != len(want) {
		t.Fatalf("flagged bins differ: incremental %v, online %v", got, want)
	}
	for seq := range want {
		if !got[seq] {
			t.Fatalf("incremental missed bin %d flagged by online; incremental %v, online %v", seq, got, want)
		}
	}
	for _, spike := range []int{40, 150, 260} {
		if !got[spike] {
			t.Fatalf("injected spike at %d not flagged; flagged %v", spike, got)
		}
	}
	for _, a := range incAlarms {
		if a.Seq == 40 && a.Flow != flow {
			t.Fatalf("spike identified flow %d want %d", a.Flow, flow)
		}
	}
}

func TestIncrementalBackgroundRebuildAndDriftGate(t *testing.T) {
	const historyBins, streamBins = 504, 240
	topo, history, stream, _ := streamDataset(t, 61, historyBins, streamBins, nil)
	routing := topo.RoutingMatrix()

	// DriftTol 0: every interval swaps a rebuilt model in.
	always, err := seeded(NewIncrementalDetector(routing, IncrementalConfig{Lambda: 1, RefitEvery: 60}))(history)
	if err != nil {
		t.Fatal(err)
	}
	// A huge DriftTol: candidates are solved but never swapped — the
	// traffic is stationary, so the subspace barely moves.
	gated, err := seeded(NewIncrementalDetector(routing, IncrementalConfig{Lambda: 1, RefitEvery: 60, DriftTol: 1e9}))(history)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*OnlineDetector{always, gated} {
		for b := 0; b < streamBins; b += 60 {
			chunk := mat.NewDense(60, stream.Cols(), stream.RawData()[b*stream.Cols():(b+60)*stream.Cols()])
			if _, err := d.ProcessBatch(chunk); err != nil {
				t.Fatal(err)
			}
			d.WaitRefits()
		}
		if err := d.TakeRefitError(); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().Processed; got != streamBins {
			t.Fatalf("processed %d want %d", got, streamBins)
		}
	}
	if always.Stats().Refits == 0 {
		t.Fatal("DriftTol=0 detector never swapped a rebuilt model")
	}
	if always.SkippedRebuilds() != 0 {
		t.Fatalf("DriftTol=0 detector skipped %d rebuilds", always.SkippedRebuilds())
	}
	if gated.Stats().Refits != 0 {
		t.Fatalf("gated detector swapped %d models despite stationary traffic", gated.Stats().Refits)
	}
	if gated.SkippedRebuilds() == 0 {
		t.Fatal("gated detector never exercised the drift gate")
	}
}

// TestCovTrackerUpdateMasked: the tracker estimator's masked absorb
// folds nothing until settle, which then makes exactly the rank-1
// updates of row-by-row exclusion.
func TestCovTrackerUpdateMasked(t *testing.T) {
	_, _, y := testDataset(t, 63, 64)
	_, dim := y.Dims()
	skip := make([]bool, 64)
	for b := 0; b < 64; b += 5 {
		skip[b] = true
	}
	masked, _ := NewCovTracker(dim, 1)
	est := &covEstimator{lambda: 1, tr: masked}
	est.absorb(y, skip)
	if masked.n != 0 {
		t.Fatalf("absorb folded %d rows before settle", masked.n)
	}
	if err := est.settle(); err != nil {
		t.Fatal(err)
	}
	manual, _ := NewCovTracker(dim, 1)
	for b := 0; b < 64; b++ {
		if !skip[b] {
			manual.Update(y.RowView(b))
		}
	}
	if masked.n != manual.n {
		t.Fatalf("masked count %d want %d", masked.n, manual.n)
	}
	if !mat.EqualApprox(masked.cov, manual.cov, 0) {
		t.Fatal("masked covariance diverges from row-by-row exclusion")
	}
}

// TestCovTrackerUpdateAllAllocFree pins the satellite requirement: a
// whole-batch absorb must not allocate per bin (all scratch lives on
// the tracker).
func TestCovTrackerUpdateAllAllocFree(t *testing.T) {
	_, _, y := testDataset(t, 64, 128)
	_, dim := y.Dims()
	tr, _ := NewCovTracker(dim, 0.999)
	tr.UpdateAll(y) // warm up
	allocs := testing.AllocsPerRun(5, func() {
		tr.UpdateAll(y)
	})
	if allocs > 0 {
		t.Fatalf("UpdateAll allocates %.1f times per batch", allocs)
	}
}
