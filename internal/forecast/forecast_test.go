package forecast

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// Alphas returns the per-link level smoothing gains in force (the grid
// search result when Config.Alpha was 0 for the EWMA kind).
func (d *Detector) Alphas() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.alpha...)
}

// synthSeries builds a bins x links matrix of diurnal sinusoids with
// per-link mean/phase and Gaussian noise — enough temporal structure for
// the forecasters to model and enough noise for thresholds to be
// meaningful.
func synthSeries(bins, links int, seed int64, noise float64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	phase := make([]float64, links)
	mean := make([]float64, links)
	for l := 0; l < links; l++ {
		phase[l] = rng.Float64() * 2 * math.Pi
		mean[l] = 5e7 * (1 + rng.Float64())
	}
	y := mat.Zeros(bins, links)
	for b := 0; b < bins; b++ {
		hours := float64(b) / 6.0
		for l := 0; l < links; l++ {
			diurnal := 1 + 0.4*math.Sin(2*math.Pi*hours/24+phase[l])
			y.Set(b, l, mean[l]*diurnal*(1+noise*rng.NormFloat64()))
		}
	}
	return y
}

func splitRows(y *mat.Dense, at int) (*mat.Dense, *mat.Dense) {
	_, cols := y.Dims()
	head := mat.NewDense(at, cols, y.RawData()[:at*cols])
	tail := mat.NewDense(y.Rows()-at, cols, y.RawData()[at*cols:])
	return head, tail
}

func kinds() []Kind { return []Kind{EWMA, HoltWinters, Fourier} }

func TestDetectorFlagsSpikeEveryKind(t *testing.T) {
	const historyBins, streamBins, spikeBin, spikeLink = 1008, 144, 60, 3
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			y := synthSeries(historyBins+streamBins, 8, 7, 0.02)
			y.Set(historyBins+spikeBin, spikeLink, y.At(historyBins+spikeBin, spikeLink)+4e7)
			history, stream := splitRows(y, historyBins)
			det, err := NewDetector(history, Config{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			alarms, err := det.ProcessBatch(stream)
			if err != nil {
				t.Fatal(err)
			}
			spiked := false
			for _, a := range alarms {
				if a.Seq == spikeBin {
					spiked = true
					if a.Flow != -1 {
						t.Fatalf("forecast alarm identified flow %d; temporal methods cannot", a.Flow)
					}
					if a.Bytes < 2e7 {
						t.Fatalf("worst-link residual %v far below the injected 4e7", a.Bytes)
					}
					if a.SPE <= a.Threshold {
						t.Fatalf("alarm with SPE %v <= threshold %v", a.SPE, a.Threshold)
					}
				}
			}
			if !spiked {
				t.Fatalf("spike at stream bin %d not flagged; alarms %+v", spikeBin, alarms)
			}
			if len(alarms) > 8 {
				t.Fatalf("too many false alarms: %d over %d bins", len(alarms), streamBins)
			}
		})
	}
}

func TestEWMASpikeEchoSuppressed(t *testing.T) {
	// A forward EWMA that absorbed the spike would alarm again on the
	// bin after it (the footnote-4 echo); withholding alarmed bins from
	// the forecaster state must suppress it.
	const historyBins, spikeBin = 1008, 40
	y := synthSeries(historyBins+100, 4, 11, 0.015)
	for l := 0; l < 4; l++ {
		y.Set(historyBins+spikeBin, l, y.At(historyBins+spikeBin, l)+5e7)
	}
	history, stream := splitRows(y, historyBins)
	det, err := NewDetector(history, Config{Kind: EWMA, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := det.ProcessBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	spiked, echoed := false, false
	for _, a := range alarms {
		if a.Seq == spikeBin {
			spiked = true
		}
		if a.Seq == spikeBin+1 {
			echoed = true
		}
	}
	if !spiked {
		t.Fatalf("spike not flagged; alarms %+v", alarms)
	}
	if echoed {
		t.Fatalf("echo at bin %d not suppressed; alarms %+v", spikeBin+1, alarms)
	}
}

func TestSeedSelectsAlphaPerLink(t *testing.T) {
	history := synthSeries(1008, 5, 3, 0.05)
	det, err := NewDetector(history, Config{Kind: EWMA})
	if err != nil {
		t.Fatal(err)
	}
	for l, a := range det.Alphas() {
		if a < 0.05 || a > 1 {
			t.Fatalf("link %d grid-selected alpha %v outside the grid", l, a)
		}
	}
	// An explicit alpha bypasses the search.
	det, err = NewDetector(history, Config{Kind: EWMA, Alpha: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for l, a := range det.Alphas() {
		if a != 0.25 {
			t.Fatalf("link %d alpha %v, want the configured 0.25", l, a)
		}
	}
}

func TestAdaptiveThresholdTracksTrafficLevel(t *testing.T) {
	// Double the traffic (and with it the absolute residual scale) and
	// stream enough bins for the rolling statistics to adapt: thresholds
	// must rise with the level instead of staying frozen at seed values.
	const links = 4
	history := synthSeries(1008, links, 19, 0.03)
	det, err := NewDetector(history, Config{Kind: EWMA, Alpha: 0.3, K: 1e9, Adapt: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// K is huge so nothing alarms and every bin feeds the statistics.
	before := det.Thresholds()
	scaled := synthSeries(1008, links, 19, 0.03)
	data := scaled.RawData()
	for i := range data {
		data[i] *= 2
	}
	if _, err := det.ProcessBatch(scaled); err != nil {
		t.Fatal(err)
	}
	after := det.Thresholds()
	for l := 0; l < links; l++ {
		if after[l] < 1.5*before[l] {
			t.Fatalf("link %d threshold did not track the doubled level: %v -> %v", l, before[l], after[l])
		}
	}
}

func TestRefitReestimatesThresholds(t *testing.T) {
	// After streaming quieter traffic, an explicit Refit (which fits on
	// the retained window, now full of quiet bins) must lower thresholds.
	const links = 3
	history := synthSeries(1008, links, 23, 0.08)
	// Adapt is tiny, so the rolling statistics stay pinned at the noisy
	// seed level; only a refit can re-base them on the quiet window.
	det, err := NewDetector(history, Config{Kind: EWMA, Alpha: 0.3, Window: 256, Adapt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed as the history, so per-link means and phases line up (1008
	// bins is a whole number of diurnal cycles) — only the noise drops.
	quiet := synthSeries(512, links, 23, 0.005)
	if _, err := det.ProcessBatch(quiet); err != nil {
		t.Fatal(err)
	}
	before := det.Thresholds()
	if err := det.Refit(); err != nil {
		t.Fatal(err)
	}
	after := det.Thresholds()
	for l := 0; l < links; l++ {
		if after[l] > before[l]/2 {
			t.Fatalf("link %d refit did not re-base the threshold on the quiet window: %v -> %v", l, before[l], after[l])
		}
	}
	if got := det.Stats().Refits; got != 1 {
		t.Fatalf("refits = %d want 1", got)
	}
}

func TestFourierPhaseSurvivesRefit(t *testing.T) {
	// The basis is fitted on absolute bin indices, so predictions after a
	// refit must stay phase-aligned: a clean diurnal stream keeps fitting
	// well (no alarm burst after the refit swap).
	y := synthSeries(1008+576, 4, 31, 0.01)
	history, stream := splitRows(y, 1008)
	det, err := NewDetector(history, Config{Kind: Fourier, RefitEvery: 144})
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := det.ProcessBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Settle(); err != nil {
		t.Fatal(err)
	}
	if det.Stats().Refits == 0 {
		t.Fatal("automatic refit did not run")
	}
	if len(alarms) > 12 {
		t.Fatalf("alarm burst across refits: %d alarms on clean traffic", len(alarms))
	}
}

func TestDetectorRejectsMisSizedBatch(t *testing.T) {
	history := synthSeries(1008, 4, 37, 0.02)
	det, err := NewDetector(history, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.ProcessBatch(mat.Zeros(4, 5)); err == nil {
		t.Fatal("mis-sized batch accepted")
	}
	if got := det.Stats().Processed; got != 0 {
		t.Fatalf("rejected batch advanced the counter to %d", got)
	}
}

func TestConfigValidation(t *testing.T) {
	history := synthSeries(1008, 3, 41, 0.02)
	cases := []Config{
		{Kind: "arima"},
		{Alpha: 1.5},
		{K: -1},
		{Adapt: 2},
	}
	for _, cfg := range cases {
		if _, err := NewDetector(history, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	// Too-short histories are rejected per kind.
	short := synthSeries(4, 3, 43, 0.02)
	for _, kind := range kinds() {
		if _, err := NewDetector(short, Config{Kind: kind}); err == nil || !strings.Contains(err.Error(), "seed needs") {
			t.Fatalf("%s accepted a 4-bin seed: %v", kind, err)
		}
	}
}

func TestSeedKeepsProcessedAndAlignsPhase(t *testing.T) {
	y := synthSeries(1008+288, 4, 47, 0.02)
	history, stream := splitRows(y, 1008)
	for _, kind := range kinds() {
		det, err := NewDetector(history, Config{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		firstHalf, secondHalf := splitRows(stream, 144)
		if _, err := det.ProcessBatch(firstHalf); err != nil {
			t.Fatal(err)
		}
		// Re-seed on the most recent week (history tail + streamed half).
		recent := mat.Zeros(1008, 4)
		for b := 0; b < 864; b++ {
			recent.SetRow(b, y.RowView(144+b))
		}
		for b := 0; b < 144; b++ {
			recent.SetRow(864+b, firstHalf.RowView(b))
		}
		if err := det.Seed(recent); err != nil {
			t.Fatal(err)
		}
		if got := det.Stats().Processed; got != 144 {
			t.Fatalf("%s: Seed reset the processed counter to %d", kind, got)
		}
		alarms, err := det.ProcessBatch(secondHalf)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alarms {
			if a.Seq < 144 {
				t.Fatalf("%s: alarm seq %d before the re-seed point", kind, a.Seq)
			}
		}
		if len(alarms) > 10 {
			t.Fatalf("%s: alarm burst after re-seed: %d alarms on clean traffic", kind, len(alarms))
		}
	}
}

func TestPersistentLevelShiftReconverges(t *testing.T) {
	// A legitimate permanent traffic step (a reroute doubling one link's
	// load) must not alarm forever: after reabsorbAfter consecutive
	// alarmed bins the link's forecaster resumes absorbing observations
	// and re-converges on the new level.
	const links, shiftLink = 4, 1
	y := synthSeries(1008+288, links, 61, 0.02)
	data := y.RawData()
	for b := 1008 + 20; b < 1008+288; b++ {
		data[b*links+shiftLink] *= 2
	}
	history, stream := splitRows(y, 1008)
	for _, kind := range kinds() {
		// The small window lets refits adopt the shifted regime quickly —
		// the Fourier kind's recovery path runs through the refit, so the
		// stream goes in chunks, each due refit settled before the next.
		det, err := NewDetector(history, Config{Kind: kind, Alpha: alphaFor(kind), RefitEvery: 32, Window: 128})
		if err != nil {
			t.Fatal(err)
		}
		var alarms []core.Alarm
		cols := stream.Cols()
		for b := 0; b < stream.Rows(); b += 32 {
			chunk := mat.NewDense(32, cols, stream.RawData()[b*cols:(b+32)*cols])
			got, err := det.ProcessBatch(chunk)
			if err != nil {
				t.Fatal(err)
			}
			alarms = append(alarms, got...)
			if err := det.Settle(); err != nil {
				t.Fatal(err)
			}
		}
		last := -1
		for _, a := range alarms {
			if a.Seq > last {
				last = a.Seq
			}
		}
		if last < 20 {
			t.Fatalf("%s: level shift never alarmed", kind)
		}
		// The smoothing kinds re-converge within the reabsorb horizon
		// plus smoothing settle time; the Fourier kind needs the next
		// refit to adopt the shifted window. Well before the stream ends,
		// the alarms must have stopped.
		if last > 220 {
			t.Fatalf("%s: still alarming at stream bin %d — no level-shift recovery (alarms %d)", kind, last, len(alarms))
		}
	}
}

// alphaFor pins deterministic smoothing gains per kind for tests that
// stream regime changes (grid-searched alphas vary with the series).
func alphaFor(kind Kind) float64 {
	if kind == Fourier {
		return 0
	}
	return 0.3
}

func TestSeedPreservesPinnedAlpha(t *testing.T) {
	history := synthSeries(1008, 3, 67, 0.03)
	det, err := NewDetector(history, Config{Kind: EWMA, Alpha: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Seed(history); err != nil {
		t.Fatal(err)
	}
	for l, a := range det.Alphas() {
		if a != 0.25 {
			t.Fatalf("link %d alpha %v after re-seed, want the pinned 0.25", l, a)
		}
	}
}

func TestConstantLinkDoesNotAlarmOnFloatNoise(t *testing.T) {
	// A perfectly constant link has zero residual history; the threshold
	// floor (relative to the forecast level) must keep double-precision
	// noise from alarming while a real deviation still does.
	const bins, links = 1008, 3
	y := mat.Zeros(bins+100, links)
	for b := 0; b < bins+100; b++ {
		for l := 0; l < links; l++ {
			y.Set(b, l, 1e8) // constant traffic
		}
	}
	history, stream := splitRows(y, bins)
	det, err := NewDetector(history, Config{Kind: EWMA, Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := det.ProcessBatch(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 0 {
		t.Fatalf("constant stream raised %d alarms", len(alarms))
	}
	// A one-byte jitter is below the relative floor (1e-9 * 1e8 = 0.1 is
	// the floor; 1 byte exceeds it and is a genuine deviation from a
	// perfectly constant series, so it may alarm); a sub-floor change
	// must not.
	jitter := mat.Zeros(1, links)
	jitter.SetRow(0, []float64{1e8 + 0.01, 1e8, 1e8})
	alarms, err = det.ProcessBatch(jitter)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 0 {
		t.Fatalf("sub-floor 0.01-byte jitter on a 1e8 constant link alarmed: %+v", alarms)
	}
}

func TestRefitConcurrentWithProcessing(t *testing.T) {
	// Refit and Stats from other goroutines while one caller streams:
	// the ViewDetector contract, exercised under -race.
	y := synthSeries(1008+640, 6, 53, 0.03)
	history, stream := splitRows(y, 1008)
	det, err := NewDetector(history, Config{Kind: EWMA, Alpha: 0.3, RefitEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = det.Refit()
				_ = det.Stats()
			}
		}
	}()
	cols := stream.Cols()
	for b := 0; b+32 <= stream.Rows(); b += 32 {
		chunk := mat.NewDense(32, cols, stream.RawData()[b*cols:(b+32)*cols])
		if _, err := det.ProcessBatch(chunk); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := det.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := det.Stats().Processed; got != 640 {
		t.Fatalf("processed %d want 640", got)
	}
}

// dropRows returns a copy of y without the given rows.
func dropRows(y *mat.Dense, drop ...int) *mat.Dense {
	out := mat.Zeros(y.Rows()-len(drop), y.Cols())
	i := 0
	for b := 0; b < y.Rows(); b++ {
		skip := false
		for _, d := range drop {
			skip = skip || b == d
		}
		if !skip {
			out.SetRow(i, y.RowView(b))
			i++
		}
	}
	return out
}

func TestNonFiniteBinWithheldEveryKind(t *testing.T) {
	// A NaN or ±Inf load must neither alarm nor reach the forecasters,
	// the thresholds or the refit window — one NaN residual folded into
	// a link's statistics makes its threshold NaN, and |r| > NaN never
	// alarms again. The batch reports the first bad bin as
	// core.ErrNonFinite and tests its other bins as usual.
	const historyBins, links = 1008, 6
	bad := []int{10, 20, 21}
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			y := synthSeries(historyBins+128, links, 17, 0.02)
			history, stream := splitRows(y, historyBins)
			head, tail := splitRows(stream, 64)
			poisoned := mat.Zeros(64, links)
			copy(poisoned.RawData(), head.RawData())
			poisoned.Set(bad[0], 0, math.NaN())
			poisoned.Set(bad[1], 3, math.Inf(1))
			poisoned.Set(bad[2], 5, math.Inf(-1))
			det, err := NewDetector(history, Config{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			alarms, err := det.ProcessBatch(poisoned)
			if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), "bin 10 ") {
				t.Fatalf("poisoned batch: got error %v, want ErrNonFinite naming bin 10", err)
			}
			for _, a := range alarms {
				for _, b := range bad {
					if a.Seq == b {
						t.Fatalf("non-finite bin %d alarmed: %+v", b, a)
					}
				}
			}
			for l, thr := range det.Thresholds() {
				if !(thr > 0 && thr <= math.MaxFloat64) {
					t.Fatalf("link %d threshold %v after a non-finite bin", l, thr)
				}
			}
			det.mu.Lock()
			window, times := det.window.Matrix(), det.times.Slice()
			det.mu.Unlock()
			if !mat.AllFinite(window.RawData()) {
				t.Fatal("a non-finite bin reached the refit window")
			}
			for _, tm := range times {
				for _, b := range bad {
					if tm == historyBins+b {
						t.Fatalf("bin %d's time is in the refit window", b)
					}
				}
			}
			if err := det.Refit(); err != nil {
				t.Fatalf("refit after a non-finite bin: %v", err)
			}

			// The withheld bins leave the recursions exactly where a
			// stream without them would: the forecaster and threshold
			// state of a twin that never saw them is bit-identical. (The
			// Fourier kind's prediction depends on the bin's time, which
			// the withheld bins still advance, so it has no such twin.)
			if kind != Fourier {
				twin, err := NewDetector(history, Config{Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := twin.ProcessBatch(dropRows(head, bad...)); err != nil {
					t.Fatal(err)
				}
				if err := twin.Refit(); err != nil {
					t.Fatal(err)
				}
				for name, pair := range map[string][2][]float64{
					"level": {det.level, twin.level},
					"trend": {det.trend, twin.trend},
					"rmean": {det.rmean, twin.rmean},
					"rvar":  {det.rvar, twin.rvar},
				} {
					for l := range pair[0] {
						if math.Float64bits(pair[0][l]) != math.Float64bits(pair[1][l]) {
							t.Fatalf("%s[%d] = %v, twin without the bad bins has %v", name, l, pair[0][l], pair[1][l])
						}
					}
				}
			}

			// The poisoned link still sees: a spike on it alarms.
			tail.Set(30, 0, tail.At(30, 0)+4e7)
			alarms, err = det.ProcessBatch(tail)
			if err != nil {
				t.Fatal(err)
			}
			spiked := false
			for _, a := range alarms {
				spiked = spiked || a.Seq == 64+30
			}
			if !spiked {
				t.Fatalf("spike on link 0 after its NaN bin not flagged; alarms %+v", alarms)
			}
		})
	}
}

// TestSeedRefusesNonFiniteHistory: a NaN or ±Inf load in a seed history
// would leave that link's threshold NaN — a link that can never alarm.
// Every kind refuses it, naming the bin and the link, and a refused
// re-seed leaves the detector as it was.
func TestSeedRefusesNonFiniteHistory(t *testing.T) {
	for _, kind := range kinds() {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			t.Run(fmt.Sprintf("%s/%v", kind, bad), func(t *testing.T) {
				history := synthSeries(1008, 8, 7, 0.02)
				history.Set(100, 3, bad)
				_, err := NewDetector(history, Config{Kind: kind})
				if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), "bin 100, link 3") {
					t.Fatalf("seed on a history with a %v load: got %v, want ErrNonFinite naming bin 100, link 3", bad, err)
				}
				det, err := NewDetector(synthSeries(1008, 8, 7, 0.02), Config{Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				before := det.Thresholds()
				if err := det.Seed(history); !errors.Is(err, core.ErrNonFinite) {
					t.Fatalf("re-seed on a history with a %v load: got %v, want ErrNonFinite", bad, err)
				}
				for l, thr := range det.Thresholds() {
					if thr != before[l] {
						t.Fatalf("refused re-seed moved link %d's threshold from %v to %v", l, before[l], thr)
					}
				}
			})
		}
	}
}

func TestEWMAQuietBatchAllocFree(t *testing.T) {
	// The per-bin kernel works in place: a 64-bin batch that raises no
	// alarm (every load equals its link's forecast) allocates nothing.
	const links = 41
	history := synthSeries(1008, links, 29, 0.02)
	det, err := NewDetector(history, Config{Kind: EWMA})
	if err != nil {
		t.Fatal(err)
	}
	batch := mat.Zeros(64, links)
	for b := 0; b < batch.Rows(); b++ {
		batch.SetRow(b, det.level)
	}
	allocs := testing.AllocsPerRun(20, func() {
		alarms, err := det.ProcessBatch(batch)
		if err != nil || len(alarms) != 0 {
			t.Fatalf("quiet batch: %d alarms, error %v", len(alarms), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("quiet 64-bin ewma batch allocated %v times, want 0", allocs)
	}
}

// TestEWMASeedAllocatesWhatItKeeps: an ewma seed on an Abilene week
// (1008 bins, 41 links) with per-link grid search allocates the state it
// keeps — the refit window and its bin times — plus one column buffer
// and one residual buffer. Reading each link with Dense.Col, and scoring
// each grid alpha by building its forecast series, allocated another
// 41 and 328 week-long series (3 MB).
func TestEWMASeedAllocatesWhatItKeeps(t *testing.T) {
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(4)
	cfg.Bins = 1008
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	history := traffic.LinkLoads(topo, gen.Generate())
	bins, links := history.Dims()
	series := uint64(8 * bins)
	// The window and its times, then eight series of slack: the column
	// and residual buffers, the per-link state, the seed's closures.
	// One series per link more would overrun it five times over.
	budget := uint64(links)*series + series + 8*series
	least := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		det, err := New(links, Config{Kind: EWMA})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = det.Seed(history)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Fatalf("ewma seed on %d bins x %d links allocated %d bytes, budget %d", bins, links, least, budget)
	}
	t.Logf("ewma seed on %d bins x %d links allocated %d bytes", bins, links, least)
}
