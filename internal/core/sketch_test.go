package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// TestFDSketchApproximatesPCA checks the Frequent-Directions guarantee
// on generated traffic: with a sketch a fraction of the stream length,
// the sketch's leading variances and normal subspace land close to the
// exact batch fit's. The tail is allowed to differ — that is the whole
// bargain — but the top of the spectrum, which detection runs on, must
// survive sketching.
func TestFDSketchApproximatesPCA(t *testing.T) {
	_, _, y := testDataset(t, 70, 1008)
	bins, links := y.Dims()

	exact, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	rank := SeparateAxes(exact, DefaultSigma)

	sk, err := NewFDSketch(links, 4*rank)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.InsertAll(y); err != nil {
		t.Fatal(err)
	}
	if sk.n != bins {
		t.Fatalf("sketch counted %d rows, want %d", sk.n, bins)
	}
	p, span, err := sk.PCA()
	if err != nil {
		t.Fatal(err)
	}
	if span < rank {
		t.Fatalf("sketch spans %d directions, need at least rank %d", span, rank)
	}
	for i := 0; i < rank; i++ {
		rel := math.Abs(p.Variances[i]-exact.Variances[i]) / exact.Variances[i]
		if rel > 0.15 {
			t.Fatalf("leading variance %d off by %.1f%% (sketch %g, exact %g)",
				i, 100*rel, p.Variances[i], exact.Variances[i])
		}
	}
	// Subspace agreement: the projector onto the sketch's top-rank
	// directions must be close to the exact one (principal angles small).
	proj := func(p *PCA) *mat.Dense {
		pm := mat.Zeros(links, rank)
		for j := 0; j < rank; j++ {
			pm.SetCol(j, p.Components.Col(j))
		}
		return mat.Mul(pm, pm.T())
	}
	diff := mat.Sub(proj(p), proj(exact)).Frobenius()
	if diff > 0.2*math.Sqrt(float64(rank)) {
		t.Fatalf("normal-subspace projectors differ by %g in Frobenius norm", diff)
	}
	// Residual variances stay positive (the alpha*I correction), so the
	// Q-statistic threshold is computable from the sketched model.
	if _, err := Build(p, rank); err != nil {
		t.Fatal(err)
	}
}

// TestSketchAgreesWithIncremental is the acceptance check: on the
// trafficgen spike scenario, with the sketch at exactly 2*rank, the
// sketch backend must flag the same bins as the exact-covariance
// incremental backend across synchronized refits — in particular every
// injected spike, identified to the right flow.
func TestSketchAgreesWithIncremental(t *testing.T) {
	const historyBins, streamBins = 1008, 288
	spikes := []int{40, 150, 260}
	topo, history, stream, flow := streamDataset(t, 71, historyBins, streamBins, spikes)
	routing := topo.RoutingMatrix()

	inc, err := seeded(NewIncrementalDetector(routing, IncrementalConfig{Lambda: 1}))(history)
	if err != nil {
		t.Fatal(err)
	}
	rank := inc.Stats().Rank
	sd, err := seeded(NewSketchDetector(routing, SketchConfig{SketchSize: 2 * rank}))(history)
	if err != nil {
		t.Fatal(err)
	}
	if got := sd.Stats().Rank; got != rank {
		t.Fatalf("seed ranks differ: sketch %d, incremental %d", got, rank)
	}

	var incAlarms, skAlarms []Alarm
	half := streamBins / 2
	for _, span := range [][2]int{{0, half}, {half, streamBins}} {
		chunk := mat.NewDense(span[1]-span[0], stream.Cols(), stream.RawData()[span[0]*stream.Cols():span[1]*stream.Cols()])
		ia, err := inc.ProcessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := sd.ProcessBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		incAlarms = append(incAlarms, ia...)
		skAlarms = append(skAlarms, sa...)
		if err := inc.Refit(); err != nil {
			t.Fatal(err)
		}
		if err := sd.Refit(); err != nil {
			t.Fatal(err)
		}
	}

	got, want := alarmSeqs(skAlarms), alarmSeqs(incAlarms)
	for _, spike := range spikes {
		if !want[spike] {
			t.Fatalf("incremental baseline missed spike %d; flagged %v", spike, want)
		}
		if !got[spike] {
			t.Fatalf("sketch missed spike %d flagged by incremental; sketch %v, incremental %v", spike, got, want)
		}
	}
	// Full agreement on flagged bins, not just spikes: at ell = 2*rank
	// the sketch preserves the normal subspace well enough that the two
	// backends reach the same verdict bin for bin on this trace.
	if len(got) != len(want) {
		t.Fatalf("flagged bins differ: sketch %v, incremental %v", got, want)
	}
	for seq := range want {
		if !got[seq] {
			t.Fatalf("sketch missed bin %d flagged by incremental", seq)
		}
	}
	for _, a := range skAlarms {
		if a.Seq == spikes[0] && a.Flow != flow {
			t.Fatalf("spike identified flow %d want %d", a.Flow, flow)
		}
	}
}

func TestSketchBackgroundRebuildAndDriftGate(t *testing.T) {
	const historyBins, streamBins = 504, 240
	topo, history, stream, _ := streamDataset(t, 72, historyBins, streamBins, nil)
	routing := topo.RoutingMatrix()

	always, err := seeded(NewSketchDetector(routing, SketchConfig{RefitEvery: 60}))(history)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := seeded(NewSketchDetector(routing, SketchConfig{RefitEvery: 60, DriftTol: 1e9}))(history)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*OnlineDetector{always, gated} {
		for b := 0; b < streamBins; b += 60 {
			chunk := mat.NewDense(60, stream.Cols(), stream.RawData()[b*stream.Cols():(b+60)*stream.Cols()])
			if _, err := d.ProcessBatch(chunk); err != nil {
				t.Fatal(err)
			}
			if err := d.Settle(); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.Stats().Processed; got != streamBins {
			t.Fatalf("processed %d want %d", got, streamBins)
		}
	}
	if always.Stats().Refits == 0 {
		t.Fatal("DriftTol=0 detector never swapped a rebuilt model")
	}
	if gated.Stats().Refits != 0 {
		t.Fatalf("gated detector swapped %d models despite stationary traffic", gated.Stats().Refits)
	}
	if gated.SkippedRebuilds() == 0 {
		t.Fatal("gated detector never exercised the drift gate")
	}
}

func TestSketchSizeValidation(t *testing.T) {
	_, history, _, _ := streamDataset(t, 74, 504, 2, nil)
	routing := topology.Abilene().RoutingMatrix()
	if _, err := seeded(NewSketchDetector(routing, SketchConfig{SketchSize: 3}))(history); err == nil {
		t.Fatal("sketch size 3 accepted")
	}
	d, err := seeded(NewSketchDetector(routing, SketchConfig{}))(history)
	if err != nil {
		t.Fatal(err)
	}
	rank := d.Stats().Rank
	if rank > 1 {
		if _, err := seeded(NewSketchDetector(routing, SketchConfig{SketchSize: 2*rank - 1}))(history); err == nil {
			t.Fatalf("sketch size %d < 2*rank accepted", 2*rank-1)
		}
	}
	if d.est.(*sketchEstimator).ell < 2*rank {
		t.Fatalf("defaulted sketch size %d below 2*rank (%d)", d.est.(*sketchEstimator).ell, 2*rank)
	}
	// Both drift-gated constructors refuse a tolerance the gate cannot
	// honour instead of silently running ungated.
	for _, tol := range []float64{math.NaN(), -1, math.Inf(1)} {
		if _, err := seeded(NewSketchDetector(routing, SketchConfig{DriftTol: tol}))(history); err == nil {
			t.Fatalf("sketch drift tolerance %v accepted", tol)
		}
		if _, err := seeded(NewIncrementalDetector(routing, IncrementalConfig{DriftTol: tol}))(history); err == nil {
			t.Fatalf("incremental drift tolerance %v accepted", tol)
		}
	}
}

// TestFDSketchShrinkProductsMatchReference pins the shrink's two
// rectangular products to the reference kernels bit for bit, at every
// occupancy u of an ell = 28 buffer: gramInto to mat.Dot of each row
// pair, rebuildInto to mat.MulInto over all u rows. Entries span many
// magnitudes so that any change to a summation order shows in the bits.
func TestFDSketchShrinkProductsMatchReference(t *testing.T) {
	const ell = 28
	rng := rand.New(rand.NewSource(39))
	spread := func(rows, cols int) *mat.Dense {
		m := randMatrix(rng, rows, cols)
		for i, v := range m.RawData() {
			m.RawData()[i] = v * math.Pow(10, float64(rng.Intn(9)-4))
		}
		return m
	}
	for _, m := range []int{5, 41, 120} {
		for u := 1; u <= ell; u++ {
			b := spread(u, m)
			g := make([]float64, u*u)
			gramInto(g, b.RawData(), u, m)
			for i := 0; i < u; i++ {
				for j := 0; j < u; j++ {
					if want := mat.Dot(b.RowView(min(i, j)), b.RowView(max(i, j))); math.Float64bits(g[i*u+j]) != math.Float64bits(want) {
						t.Fatalf("m=%d u=%d: Gram[%d,%d] = %v, mat.Dot gives %v", m, u, i, j, g[i*u+j], want)
					}
				}
			}

			// Coefficients as a shrink leaves them: k kept rows, zero
			// rows after, and one all-zero four-term group in a kept row,
			// which mat.MulInto skips and rebuildInto adds.
			k := (u + 1) / 2
			c := spread(u, u)
			clear(c.RawData()[k*u:])
			if u >= 8 {
				clear(c.RowView(0)[4:8])
			}
			want := mat.Zeros(u, m)
			mat.MulInto(want, c, b)
			got := make([]float64, u*m)
			for i := range got {
				got[i] = math.NaN() // rebuildInto must overwrite every entry
			}
			rebuildInto(got, c.RawData(), b.RawData(), k, u, m)
			for i, v := range want.RawData() {
				if math.Float64bits(got[i]) != math.Float64bits(v) {
					t.Fatalf("m=%d u=%d k=%d: rebuilt entry (%d,%d) = %v, mat.MulInto gives %v", m, u, k, i/m, i%m, got[i], v)
				}
			}
		}
	}
}

// TestSketchStateGolden pins the sketch backend's whole state after a
// long stream to a hash: a 120-link network, a 1008-bin seed and 4032
// streamed bins in 64-bin batches, settled and with every refit awaited
// after each batch, so shrinks, refits and alarm exclusions all
// feed the snapshot. A change to any summation order in the shrink or
// the eigensolver changes the hash, and so does a change to when the
// refits run (1008 is not a multiple of 64). The hash was recorded on amd64;
// architectures that fuse multiply-adds round differently.
func TestSketchStateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	const want = "83e3c1da9ea8a68d2ad70d3a88a36c99dbe8b61aa92ddd6dae4d37cd761370c1"
	topo := topology.Synthetic(30, 45, 7)
	cfg := traffic.DefaultConfig(1)
	cfg.Bins = 5040
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	y := traffic.LinkLoads(topo, gen.Generate())
	d, err := seeded(NewSketchDetector(topo.RoutingMatrix(), SketchConfig{RefitEvery: 1008}))(rowsOf(y, 0, 1008))
	if err != nil {
		t.Fatal(err)
	}
	alarms := 0
	for from := 1008; from < y.Rows(); from += 64 {
		a, err := d.ProcessBatch(rowsOf(y, from, from+64))
		if err != nil {
			t.Fatal(err)
		}
		alarms += len(a)
		if err := d.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := d.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("sketch state hash %s, want %s (%d alarms, %d refits, %d-byte snapshot)",
			got, want, alarms, d.Stats().Refits, snap.Len())
	}
}

// TestFDSketchInsertAllAllocFree is the sketch's counterpart of
// TestCovTrackerUpdateAllAllocFree: at 120 links and ell = 28 a 64-bin
// batch runs four or five shrinks, and once the first shrink has built
// the workspace none of them may allocate — the Gram, the eigensolve and
// the rebuild all run in place and the two row buffers trade places.
func TestFDSketchInsertAllAllocFree(t *testing.T) {
	const links, ell = 120, 28
	rng := rand.New(rand.NewSource(12))
	y := randMatrix(rng, 64, links)
	sk, err := NewFDSketch(links, ell)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.InsertAll(y); err != nil { // warm up: builds the workspace
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := sk.InsertAll(y); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("InsertAll allocates %.1f times per 64-bin batch", allocs)
	}
}

// TestFDSketchInsertAfterFailedShrink: rows of finite 1e160-scale values
// overflow the Gram matrix, the eigensolver rejects it and the shrink
// fails with the buffer still full. The next Insert must retry the
// shrink and report its error; it used to index one row past the buffer
// and panic.
func TestFDSketchInsertAfterFailedShrink(t *testing.T) {
	const links, ell = 6, 8
	sk, err := NewFDSketch(links, ell)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, links)
	for i := 0; i < ell; i++ {
		for j := range row {
			row[j] = 1e160 * float64(1+(i+j)%3)
		}
		err = sk.Insert(row)
	}
	if err == nil {
		t.Fatal("filling the buffer with overflowing rows did not fail the shrink")
	}
	if err := sk.Insert(row); err == nil {
		t.Fatal("Insert into the still-full buffer reported no error")
	}
	if sk.n != ell {
		t.Fatalf("the refused row was counted: Count = %d, want %d", sk.n, ell)
	}
}

// TestSketchRefitErrorSurvivesFailingInsert drives Settle's two failures
// through real faults: one NaN cell poisons the sketch, so the rows a
// later batch leaves pending fail in the sketch's own shrink, and the
// refit that batch made due fails to solve. Settle must report both,
// joined. A Snapshot whose fold fails returns the error and writes
// nothing.
func TestSketchRefitErrorSurvivesFailingInsert(t *testing.T) {
	topo, history, stream, _ := streamDataset(t, 73, 504, 96, nil)
	d, err := seeded(NewSketchDetector(topo.RoutingMatrix(), SketchConfig{RefitEvery: 72}))(history)
	if err != nil {
		t.Fatal(err)
	}
	absorbPoisoned(d, rowsOf(stream, 0, 8))
	if err := d.Settle(); err != nil {
		t.Fatalf("folding the poisoned rows: %v", err)
	}
	// 64 rows overrun any sketch size here: their fold must shrink, and
	// the NaN running mean makes every shrink fail.
	if _, err := d.ProcessBatch(rowsOf(stream, 8, 72)); err != nil {
		t.Fatalf("a batch whose fold is still pending reported: %v", err)
	}
	err = d.Settle()
	var fold, refit bool
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			refit = refit || isRefitError(e)
			fold = fold || !isRefitError(e) && strings.Contains(e.Error(), "sketch shrink")
		}
	}
	if !fold || !refit {
		t.Fatalf("want the pending rows' shrink failure joined with the due refit's error, got: %v", err)
	}

	if _, err := d.ProcessBatch(rowsOf(stream, 72, 73)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err == nil || !strings.Contains(err.Error(), "sketch shrink") || buf.Len() != 0 {
		t.Fatalf("Snapshot over a failing fold: err %v, %d bytes written", err, buf.Len())
	}
}
