// Package forecast implements the paper's temporal forecasting baselines
// — EWMA, Holt-Winters, and Fourier basis fitting (Sections 6.2 and 7.3)
// — as streaming detector backends behind core.ViewDetector, so they run
// in the concurrent engine side by side with the subspace method and the
// Section 7.3 comparison becomes reproducible online.
//
// Each backend forecasts every link's timeseries independently and
// alarms on forecast residuals, the design of Brutlag's Holt-Winters
// detector and the signal-analysis baselines of Barford et al.:
//
//   - ewma: the incremental one-step EWMA recursion. Alarmed bins are
//     withheld from the forecaster state, which suppresses the
//     bin-after-a-spike echo exactly as the paper's footnote-4
//     bidirectional minimum does offline.
//   - holtwinters: double exponential smoothing (level + trend), the
//     same recursion as timeseries.HoltWinters run incrementally.
//   - fourier: least-squares fit of the paper's eight-period sinusoid
//     basis on a window snapshot, refit in the background with the
//     shared refit policy (core.RefitGate); prediction extrapolates the
//     fitted basis to the current absolute bin, so phase is preserved
//     across refits.
//
// Thresholds are adaptive and per link: the detector tracks an
// exponentially weighted mean and variance of each link's absolute
// residual, alarms when a residual exceeds mean + K·sigma, and
// re-estimates the statistics from the retained window on every refit —
// thresholds track the traffic level instead of being frozen at seed
// time. Anomalous bins are withheld from both the forecaster state and
// the threshold statistics, mirroring the window exclusion of the
// subspace backends.
//
// Alarms localize in time and link, not OD flow (temporal methods see
// one series at a time; that inability to identify flows is the paper's
// core argument for the subspace method), so Diagnosis.Flow is -1,
// Diagnosis.SPE/Threshold carry the worst link's squared residual and
// squared threshold, and Diagnosis.Bytes the worst link's signed
// residual.
package forecast

import (
	"fmt"
	"io"
	"math"
	"sync"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/timeseries"
)

// Kind selects the forecasting model.
type Kind string

const (
	// EWMA is the exponentially weighted moving average forecaster.
	EWMA Kind = "ewma"
	// HoltWinters is the level+trend double exponential smoother.
	HoltWinters Kind = "holtwinters"
	// Fourier fits the paper's sinusoid basis on the retained window.
	Fourier Kind = "fourier"
)

// Config configures New and NewDetector. The zero value of every field
// has a usable default.
type Config struct {
	// Kind selects the model; default EWMA.
	Kind Kind
	// Alpha is the level smoothing gain in (0, 1]. For the EWMA kind, 0
	// selects it per link by grid search over
	// timeseries.DefaultAlphaGrid on the seed history (the paper's
	// multi-grid parameter search); for Holt-Winters, 0 uses 0.3.
	// Ignored by the Fourier kind.
	Alpha float64
	// K is the threshold multiplier: a link alarms when its absolute
	// residual exceeds mean + K*sigma of its tracked residuals. 0 uses 6.
	K float64
	// Adapt is the learning rate of the rolling residual statistics in
	// (0, 1); 0 uses 0.02 (a ~50-bin time constant: thresholds follow
	// the traffic level within hours at ten-minute bins).
	Adapt float64
	// Window is the number of recent non-anomalous bins retained for
	// refits; 0 retains as many as the seed history.
	Window int
	// RefitEvery schedules a background refit (threshold re-estimation,
	// plus a basis refit for the Fourier kind) after this many processed
	// bins; 0 disables automatic refits.
	RefitEvery int
}

const (
	// holtWintersBeta is the Holt-Winters trend smoothing gain.
	holtWintersBeta = 0.1
	// reabsorbAfter is the level-shift recovery horizon: after this
	// many consecutive alarmed bins on one link, the link's forecaster
	// resumes absorbing observed values (so a legitimate persistent
	// level change re-converges instead of alarming forever), and after
	// this many consecutive alarmed bins overall the window resumes
	// retaining rows (so refits see the new regime). Single-bin spikes
	// stay fully excluded — echo suppression is unaffected.
	reabsorbAfter = 5
	// binHours is the bin duration in hours for the Fourier basis: the
	// paper's ten-minute bins. The basis periods are the paper's eight,
	// timeseries.DefaultPeriodsHours.
	binHours = 1.0 / 6.0
)

func (c *Config) fillDefaults() {
	if c.Kind == "" {
		c.Kind = EWMA
	}
	if c.Alpha == 0 && c.Kind == HoltWinters {
		c.Alpha = 0.3
	}
	if c.K == 0 {
		c.K = 6
	}
	if c.Adapt == 0 {
		c.Adapt = 0.02
	}
}

// fourierCoef is an immutable fitted basis: the periods the fit could
// resolve and one coefficient vector per link. It is replaced wholesale
// on refit, never mutated. Periods travel with the coefficients because
// a fit on a short window drops the periods longer than the window can
// determine — a near-collinear long-period pair fits the window fine
// in-sample but extrapolates wildly one bin past it.
type fourierCoef struct {
	periods []float64
	coef    [][]float64 // links x (2*len(periods)+1)
}

// seedState is everything a seed or refit computes off to the side
// before committing, so a failed fit leaves the live state untouched.
type seedState struct {
	alpha        []float64
	level, trend []float64
	coef         *fourierCoef
	rmean, rvar  []float64
	window       *mat.RowRing
	times        *intRing
}

// Detector is a streaming per-link forecasting detector satisfying
// core.ViewDetector: one ProcessBatch caller at a time (the engine's
// per-shard FIFO guarantees it), with Refit/Seed/WaitRefits/
// TakeRefitError/Stats callable concurrently; fits run under
// core.RefitGate.
type Detector struct {
	kind     Kind
	k, adapt float64
	links    int
	// alphaCfg is the configured level gain (defaults applied): 0 for
	// the EWMA kind means per-link grid search, on the first Seed and
	// every re-Seed alike. A pinned alpha survives re-seeding.
	alphaCfg float64
	// capacity is the configured Window until the first Seed or Restore
	// builds the window; from then on the window's own capacity rules.
	capacity int

	mu    sync.Mutex // guards everything below
	alpha []float64  // per-link level gain (ewma, holtwinters)
	level []float64  // ewma: next-bin prediction; holtwinters: level
	trend []float64  // holtwinters trend
	coef  *fourierCoef
	// rmean/rvar are the exponentially weighted mean and variance of
	// each link's absolute residual; the alarm threshold is
	// rmean + K*sqrt(rvar).
	rmean, rvar []float64
	// alarmRun counts each link's consecutive alarmed bins and
	// binAlarmRun the detector's consecutive alarmed bins; both drive
	// the reabsorbAfter level-shift recovery.
	alarmRun    []int
	binAlarmRun int
	window      *mat.RowRing
	times       *intRing
	clock       int // absolute bin index, seed history included (Fourier phase)
	processed   int
	gate        *core.RefitGate
}

var _ core.ViewDetector = (*Detector)(nil)

// New returns a forecast detector of cfg.Kind over links links,
// unseeded: Seed warms it on a history and Restore installs a
// checkpointed state. Until one of them succeeds it is valid only as
// their receiver; Stats reports its shape.
func New(links int, cfg Config) (*Detector, error) {
	cfg.fillDefaults()
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	d := &Detector{
		kind:     cfg.Kind,
		k:        cfg.K,
		adapt:    cfg.Adapt,
		links:    links,
		alphaCfg: cfg.Alpha,
		capacity: cfg.Window,
	}
	d.gate = core.NewRefitGate(&d.mu, cfg.RefitEvery)
	return d, nil
}

// NewDetector returns a forecast detector of cfg.Kind seeded on history
// (bins x links): New followed by Seed.
func NewDetector(history *mat.Dense, cfg Config) (*Detector, error) {
	d, err := New(history.Cols(), cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Seed(history); err != nil {
		return nil, err
	}
	return d, nil
}

func validateConfig(cfg Config) error {
	switch cfg.Kind {
	case EWMA, HoltWinters, Fourier:
	default:
		return fmt.Errorf("forecast: unknown kind %q", cfg.Kind)
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return fmt.Errorf("forecast: alpha %v out of [0,1]", cfg.Alpha)
	}
	if cfg.K < 0 {
		return fmt.Errorf("forecast: threshold multiplier %v < 0", cfg.K)
	}
	if cfg.Adapt <= 0 || cfg.Adapt >= 1 {
		return fmt.Errorf("forecast: adapt rate %v out of (0,1)", cfg.Adapt)
	}
	return nil
}

// minSeedBins is the smallest history the kind can be seeded on: the
// Fourier fit needs more rows than basis columns to be determined, the
// recursive kinds just need a residual sample to estimate thresholds.
func (d *Detector) minSeedBins() int {
	if d.kind == Fourier {
		return 2 * (2*len(timeseries.DefaultPeriodsHours) + 1)
	}
	return 8
}

// SetRefitHook installs a function that runs inside every background
// refit goroutine before fitting begins; tests use it to hold a refit
// open. Call before streaming starts.
func (d *Detector) SetRefitHook(h func()) { d.gate.SetHook(h) }

// seedState builds the complete detector state from a history block off
// to the side: per-link smoothing gains (grid-searched when alphaCfg is
// 0 and the kind is EWMA), warmed forecaster state, residual statistics,
// and a filled window. start is the absolute bin index of the first
// history row; capacity sizes the refit window.
func (d *Detector) seedState(history *mat.Dense, start, capacity int, alphaCfg float64) (*seedState, error) {
	t, links := history.Dims()
	if links != d.links {
		return nil, fmt.Errorf("forecast: seed history has %d links, detector expects %d", links, d.links)
	}
	if min := d.minSeedBins(); t < min {
		return nil, fmt.Errorf("forecast: %s seed needs at least %d bins, have %d", d.kind, min, t)
	}
	st := &seedState{
		alpha:  make([]float64, links),
		level:  make([]float64, links),
		trend:  make([]float64, links),
		rmean:  make([]float64, links),
		rvar:   make([]float64, links),
		window: mat.NewRowRing(capacity, links),
		times:  newIntRing(capacity),
	}
	var design *mat.Dense
	if d.kind == Fourier {
		periods := d.resolvablePeriods(t)
		st.coef = &fourierCoef{periods: periods, coef: make([][]float64, links)}
		design = d.designMatrix(periods, start, t)
	}
	resid := make([]float64, t)
	for l := 0; l < links; l++ {
		col := history.Col(l)
		alpha := alphaCfg
		if d.kind == EWMA && alpha == 0 {
			var err error
			if alpha, err = timeseries.SelectAlpha(col, timeseries.DefaultAlphaGrid); err != nil {
				return nil, fmt.Errorf("forecast: link %d: %w", l, err)
			}
		}
		fit, err := d.fitLink(col, alpha, design, resid)
		if err != nil {
			return nil, fmt.Errorf("forecast: link %d: %w", l, err)
		}
		st.alpha[l] = alpha
		st.level[l], st.trend[l] = fit.level, fit.trend
		if st.coef != nil {
			st.coef.coef[l] = fit.coef
		}
		st.rmean[l], st.rvar[l] = fit.rmean, fit.rvar
	}
	for b := 0; b < t; b++ {
		st.window.Push(history.RowView(b))
		st.times.Push(start + b)
	}
	return st, nil
}

// linkFit is one link's replayed model fit: the forecaster end state,
// the fitted basis coefficients (Fourier only), and the threshold
// statistics of the post-warmup residuals.
type linkFit struct {
	level, trend float64
	coef         []float64
	rmean, rvar  float64
}

// fitLink replays (smoothing kinds) or fits (Fourier, against the
// provided design matrix) one link's column from a cold start, writing
// one-step residuals into the resid buffer (len(col)) and returning the
// end state plus residual statistics. It is the single shared fit used
// by seeding and threshold re-estimation alike, so the two can never
// diverge.
func (d *Detector) fitLink(col []float64, alpha float64, design *mat.Dense, resid []float64) (linkFit, error) {
	var fit linkFit
	switch d.kind {
	case EWMA:
		pred := col[0]
		for i, z := range col {
			resid[i] = z - pred
			pred = alpha*z + (1-alpha)*pred
		}
		fit.level = pred
	case HoltWinters:
		level, trend := col[0], 0.0
		resid[0] = 0
		for i := 1; i < len(col); i++ {
			pred := level + trend
			resid[i] = col[i] - pred
			newLevel := alpha*col[i] + (1-alpha)*pred
			trend = holtWintersBeta*(newLevel-level) + (1-holtWintersBeta)*trend
			level = newLevel
		}
		fit.level, fit.trend = level, trend
	case Fourier:
		coef, err := mat.SolveLS(design, col)
		if err != nil {
			return linkFit{}, fmt.Errorf("fourier fit: %w", err)
		}
		fit.coef = coef
		basis := mat.MulVec(design, coef)
		for i := range col {
			resid[i] = col[i] - basis[i]
		}
	}
	fit.rmean, fit.rvar = absStats(resid[warmup(len(col)):])
	return fit, nil
}

// warmup is the prefix of replayed residuals excluded from threshold
// estimation: the cold-started recursions have not converged there.
func warmup(n int) int {
	w := n / 8
	if w < 2 {
		w = 2
	}
	if w >= n {
		w = n - 1
	}
	return w
}

// absStats returns the mean and variance of |r| over the residuals.
func absStats(resid []float64) (mean, variance float64) {
	if len(resid) == 0 {
		return 0, 0
	}
	for _, r := range resid {
		mean += math.Abs(r)
	}
	mean /= float64(len(resid))
	for _, r := range resid {
		d := math.Abs(r) - mean
		variance += d * d
	}
	variance /= float64(len(resid))
	return mean, variance
}

// install commits a computed seed/refit state. Callers hold d.mu.
func (d *Detector) install(st *seedState) {
	d.alpha = st.alpha
	d.level, d.trend = st.level, st.trend
	d.coef = st.coef
	d.rmean, d.rvar = st.rmean, st.rvar
	d.alarmRun = make([]int, d.links)
	d.binAlarmRun = 0
	d.window, d.times = st.window, st.times
}

// resolvablePeriods returns the configured basis periods a fit over the
// given time span (in bins) can determine: a sinusoid pair whose period
// exceeds twice the span is near-collinear with the constant and the
// other long periods on that span, and its unconstrained coefficients
// extrapolate wildly right past the window.
func (d *Detector) resolvablePeriods(spanBins int) []float64 {
	spanHours := float64(spanBins) * binHours
	var out []float64
	for _, p := range timeseries.DefaultPeriodsHours {
		if p <= 2*spanHours {
			out = append(out, p)
		}
	}
	return out
}

// designMatrix builds the regression matrix of the sinusoid basis over
// the given periods for n consecutive bins starting at absolute bin
// index start.
func (d *Detector) designMatrix(periods []float64, start, n int) *mat.Dense {
	m := mat.Zeros(n, 2*len(periods)+1)
	for i := 0; i < n; i++ {
		d.basisRow(periods, start+i, m.RowView(i))
	}
	return m
}

// basisRow fills out with the basis values at absolute bin index b:
// a constant plus sin/cos pairs for each period.
func (d *Detector) basisRow(periods []float64, b int, out []float64) {
	out[0] = 1
	hours := float64(b) * binHours
	for k, period := range periods {
		w := 2 * math.Pi * hours / period
		out[1+2*k] = math.Sin(w)
		out[2+2*k] = math.Cos(w)
	}
}

// thresholdLocked returns link l's current alarm threshold:
// mean + K*sigma of its tracked absolute residuals, with two floors so
// a link whose residual history is (near-)zero — a perfectly predicted
// or constant link — does not alarm on floating-point noise: sigma
// never drops below a thousandth of the mean residual, and the whole
// threshold never drops below a billionth of the forecast magnitude
// (double-precision noise on a value of that scale sits ~1e-7 lower
// still). Callers hold d.mu.
func (d *Detector) thresholdLocked(l int, scale float64) float64 {
	sigma := math.Sqrt(d.rvar[l])
	if f := 1e-3 * d.rmean[l]; sigma < f {
		sigma = f
	}
	thr := d.rmean[l] + d.k*sigma
	if f := 1e-9 * math.Abs(scale); thr < f {
		thr = f
	}
	return thr
}

// ProcessBatch tests a block of measurements (bins x links) against the
// per-link forecasts, updates forecaster state and rolling thresholds
// with the non-anomalous bins, and schedules a background refit when the
// interval has elapsed. Alarms carry sequence numbers continuing the
// per-detector count; a deferred refit failure is reported alongside the
// batch's detections.
func (d *Detector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	bins, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("forecast: batch has %d links, detector expects %d", cols, d.links)
	}
	pred := make([]float64, d.links)
	exceeded := make([]bool, d.links)

	d.mu.Lock()
	// d.coef cannot change while mu is held (installs take mu), so the
	// basis buffer sized to its period set stays valid for the batch.
	var basis []float64
	if d.kind == Fourier {
		basis = make([]float64, 2*len(d.coef.periods)+1)
	}
	base := d.processed
	d.processed += bins
	var alarms []core.Alarm
	for b := 0; b < bins; b++ {
		row := y.RowView(b)
		if basis != nil {
			d.basisRow(d.coef.periods, d.clock, basis)
		}
		// Score every link against its forecast and adaptive threshold;
		// the bin alarms when any link exceeds, and the alarm reports the
		// link with the largest exceedance ratio.
		alarmed := false
		worstR, worstThr, worstRatio := 0.0, 0.0, 0.0
		for l := 0; l < d.links; l++ {
			switch d.kind {
			case EWMA:
				pred[l] = d.level[l]
			case HoltWinters:
				pred[l] = d.level[l] + d.trend[l]
			case Fourier:
				pred[l] = mat.Dot(basis, d.coef.coef[l])
			}
			r := row[l] - pred[l]
			thr := d.thresholdLocked(l, pred[l])
			exceeded[l] = math.Abs(r) > thr
			if exceeded[l] {
				alarmed = true
				ratio := math.Abs(r)
				if thr > 0 {
					ratio = math.Abs(r) / thr
				}
				if ratio > worstRatio {
					worstRatio, worstR, worstThr = ratio, r, thr
				}
			}
		}
		seq := base + b
		if alarmed {
			alarms = append(alarms, core.Alarm{Seq: seq, Diagnosis: core.Diagnosis{
				Bin:       seq,
				SPE:       worstR * worstR,
				Threshold: worstThr * worstThr,
				Flow:      -1,
				Bytes:     worstR,
			}})
		}
		// Per-link state update. Quiet links always advance their
		// forecaster and rolling threshold statistics; an exceeding link
		// is withheld (the forecaster keeps its pre-spike prediction —
		// the streaming equivalent of the footnote-4 echo suppression,
		// and the spike does not inflate its own threshold) until it has
		// alarmed reabsorbAfter bins in a row, at which point the
		// forecaster resumes absorbing observations so a legitimate persistent
		// level shift re-converges instead of alarming forever. The
		// threshold statistics stay withheld; they resume once the
		// re-converged forecaster stops exceeding.
		for l := 0; l < d.links; l++ {
			if exceeded[l] {
				d.alarmRun[l]++
				if d.alarmRun[l] < reabsorbAfter {
					continue
				}
			} else {
				d.alarmRun[l] = 0
			}
			z := row[l]
			var r float64
			switch d.kind {
			case EWMA:
				r = z - d.level[l]
				d.level[l] = d.alpha[l]*z + (1-d.alpha[l])*d.level[l]
			case HoltWinters:
				r = z - pred[l]
				newLevel := d.alpha[l]*z + (1-d.alpha[l])*pred[l]
				d.trend[l] = holtWintersBeta*(newLevel-d.level[l]) + (1-holtWintersBeta)*d.trend[l]
				d.level[l] = newLevel
			case Fourier:
				r = z - pred[l]
			}
			if exceeded[l] {
				continue // forecaster re-absorbs, thresholds stay withheld
			}
			delta := math.Abs(r) - d.rmean[l]
			d.rmean[l] += d.adapt * delta
			d.rvar[l] = (1 - d.adapt) * (d.rvar[l] + d.adapt*delta*delta)
		}
		// The refit window drops alarmed bins so spikes cannot
		// contaminate the next fit, but after reabsorbAfter consecutive
		// alarmed bins it resumes retaining rows so refits can see (and
		// adopt) a persistent new regime — without this, the Fourier
		// kind would never recover from a level shift.
		if alarmed {
			d.binAlarmRun++
		} else {
			d.binAlarmRun = 0
		}
		if !alarmed || d.binAlarmRun >= reabsorbAfter {
			d.window.Push(row)
			d.times.Push(d.clock)
		}
		d.clock++
	}
	err := d.gate.TakeErrorLocked()
	var refit core.Refit
	if d.gate.DueLocked(bins, true) {
		refit = d.refitLocked()
	}
	d.mu.Unlock()

	if refit != nil {
		d.gate.Go(refit)
	}
	return alarms, err
}

// refitLocked captures what a refit fits on — the window rows, their
// absolute bin indices, and the per-link gains in force — and returns the
// refit: thresholds are re-based on the window estimate and the Fourier
// basis (when present) is swapped; the live forecaster state stays, since
// it is more current than any replay of the snapshot. Callers hold d.mu.
func (d *Detector) refitLocked() core.Refit {
	rows, times, alpha := d.window.Matrix(), d.times.Slice(), append([]float64(nil), d.alpha...)
	return func() (func() bool, error) {
		st, err := d.refitState(rows, times, alpha)
		if err != nil {
			return nil, fmt.Errorf("forecast: %s refit: %w", d.kind, err)
		}
		return func() bool {
			d.rmean, d.rvar = st.rmean, st.rvar
			if st.coef != nil {
				d.coef = st.coef
			}
			return true
		}, nil
	}
}

// refitState re-estimates the per-link threshold statistics from the
// captured window — replaying the recursions for the smoothing kinds,
// refitting the basis for the Fourier kind — entirely outside the
// detector lock. The returned state carries only the fields a refit
// replaces: thresholds and, for Fourier, coefficients.
func (d *Detector) refitState(rows *mat.Dense, times []int, alpha []float64) (*seedState, error) {
	if rows == nil {
		return nil, fmt.Errorf("forecast: refit window is empty")
	}
	t, links := rows.Dims()
	st := &seedState{
		rmean: make([]float64, links),
		rvar:  make([]float64, links),
	}
	var design *mat.Dense
	if d.kind == Fourier {
		// The window may have gaps (withheld anomalous bins); its
		// resolvable periods come from the true time span it covers.
		span := times[len(times)-1] - times[0] + 1
		periods := d.resolvablePeriods(span)
		if t < 2*(2*len(periods)+1) {
			return nil, fmt.Errorf("forecast: refit window has %d bins, fourier basis needs %d", t, 2*(2*len(periods)+1))
		}
		st.coef = &fourierCoef{periods: periods, coef: make([][]float64, links)}
		design = d.designMatrixAt(periods, times)
	}
	resid := make([]float64, t)
	for l := 0; l < links; l++ {
		fit, err := d.fitLink(rows.Col(l), alpha[l], design, resid)
		if err != nil {
			return nil, fmt.Errorf("forecast: link %d: %w", l, err)
		}
		if st.coef != nil {
			st.coef.coef[l] = fit.coef
		}
		st.rmean[l], st.rvar[l] = fit.rmean, fit.rvar
	}
	return st, nil
}

// designMatrixAt builds the basis regression matrix for explicit
// absolute bin indices — the refit window may have gaps where anomalous
// bins were withheld, so row times are not consecutive.
func (d *Detector) designMatrixAt(periods []float64, times []int) *mat.Dense {
	m := mat.Zeros(len(times), 2*len(periods)+1)
	for i, b := range times {
		d.basisRow(periods, b, m.RowView(i))
	}
	return m
}

// Refit synchronously re-estimates the thresholds (and refits the
// Fourier basis) from the current window. A failed fit leaves the active
// state in force.
func (d *Detector) Refit() error { return d.gate.Run(d.refitLocked) }

// Seed rebuilds the full detector state from a history block: forecaster
// state is warmed by replaying the history, per-link thresholds are
// estimated from the replay residuals, the Fourier basis (for that kind)
// is fitted on it, and it fills the refit window. The first Seed takes
// the history as bins 0..t-1 and fixes the window's capacity (the
// configured Window, or the history's length); a re-seed treats it as
// the immediately preceding bins, so the Fourier phase stays aligned
// with the running clock, and counts in Refits. The processed-bin
// counter keeps running. A history that cannot be fitted leaves the
// active state untouched.
func (d *Detector) Seed(history *mat.Dense) error {
	return d.gate.Run(func() core.Refit {
		clock, capacity := d.clock, d.capacity
		if d.window != nil {
			capacity = d.window.Cap()
		} else {
			clock = history.Rows()
			if capacity <= 0 {
				capacity = history.Rows()
			}
		}
		return func() (func() bool, error) {
			// The configured alpha is re-applied on every seed: a pinned
			// gain survives re-seeding, and an unset EWMA gain re-runs the
			// per-link grid search on the new history.
			st, err := d.seedState(history, clock-history.Rows(), capacity, d.alphaCfg)
			if err != nil {
				return nil, fmt.Errorf("forecast: %s seed: %w", d.kind, err)
			}
			return func() bool {
				reseeded := d.window != nil
				if !reseeded {
					d.clock = clock
				}
				d.install(st)
				d.gate.RestartLocked()
				return reseeded
			}, nil
		}
	})
}

// WaitRefits blocks until no fit is in flight.
func (d *Detector) WaitRefits() { d.gate.Wait() }

// TakeRefitError returns and clears the deferred error from the last
// failed background refit, if any.
func (d *Detector) TakeRefitError() error { return d.gate.TakeError() }

// Stats reports the detector's current state. Rank is 0: forecast
// backends model links independently and have no subspace dimension.
func (d *Detector) Stats() core.ViewStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return core.ViewStats{
		Backend:   string(d.kind),
		Links:     d.links,
		Processed: d.processed,
		Refits:    d.gate.RefitsLocked(),
	}
}

// snapshotKind maps the forecast kind to its snapshot kind byte, so an
// EWMA snapshot can never restore into a Holt-Winters detector even
// though the two share most state.
func snapshotKind(k Kind) byte {
	switch k {
	case EWMA:
		return core.SnapKindEWMA
	case HoltWinters:
		return core.SnapKindHoltWinters
	default:
		return core.SnapKindFourier
	}
}

// Snapshot serializes the per-link forecaster recursions (gains, level,
// trend, fitted Fourier basis), the adaptive threshold statistics, the
// alarm-run counters, the refit window with its bin-time ring, and the
// absolute clock that keeps the Fourier phase aligned.
func (d *Detector) Snapshot(w io.Writer) error {
	return d.gate.Quiesced(func() error {
		return core.EncodeSnapshot(w, snapshotKind(d.kind), func(sw *core.SnapshotWriter) {
			sw.Int(d.links)
			sw.Floats(d.alpha)
			sw.Floats(d.level)
			sw.Floats(d.trend)
			sw.Bool(d.coef != nil)
			if d.coef != nil {
				sw.Floats(d.coef.periods)
				for _, c := range d.coef.coef {
					sw.Floats(c)
				}
			}
			sw.Floats(d.rmean)
			sw.Floats(d.rvar)
			sw.Ints(d.alarmRun)
			sw.Int(d.binAlarmRun)
			sw.RowRing(d.window)
			sw.Ints(d.times.Slice())
			sw.Int(d.clock)
			sw.Int(d.processed)
			d.gate.EncodeLocked(sw)
		})
	})
}

// Restore replaces the forecaster state, thresholds, window, and clock
// with a snapshot from an identically configured detector of the same
// kind, seeded or not. The state commits only after the whole payload
// validates; the receiver's configuration (K, adapt rate, refit cadence)
// stays in force.
func (d *Detector) Restore(r io.Reader) error {
	return d.gate.Quiesced(func() error { return core.DecodeSnapshot(r, snapshotKind(d.kind), d.decode) })
}

// decode is Restore's payload decoder. Callers hold d.mu and the gate.
func (d *Detector) decode(sr *core.SnapshotReader) error {
	if links := sr.Int(); sr.Err() == nil && links != d.links {
		return core.SnapshotMismatchf("snapshot has %d links, detector expects %d", links, d.links)
	}
	alpha := sr.Floats()
	level := sr.Floats()
	trend := sr.Floats()
	var coef *fourierCoef
	if sr.Bool() {
		coef = &fourierCoef{periods: sr.Floats(), coef: make([][]float64, d.links)}
		for l := range coef.coef {
			coef.coef[l] = sr.Floats()
		}
	}
	rmean := sr.Floats()
	rvar := sr.Floats()
	alarmRun := sr.Ints()
	binAlarmRun := sr.NonNegInt()
	window := sr.RowRing(d.links)
	times := sr.Ints()
	clock := sr.Int()
	processed := sr.NonNegInt()
	cadence := d.gate.DecodeLocked(sr)
	if err := sr.Err(); err != nil {
		return err
	}
	for _, s := range [][]float64{alpha, level, trend, rmean, rvar} {
		if len(s) != d.links {
			return core.SnapshotFormatf("per-link state has %d entries, want %d", len(s), d.links)
		}
	}
	if len(alarmRun) != d.links {
		return core.SnapshotFormatf("alarm runs have %d entries, want %d", len(alarmRun), d.links)
	}
	if (coef != nil) != (d.kind == Fourier) {
		return core.SnapshotFormatf("fourier basis presence disagrees with kind %q", d.kind)
	}
	if coef != nil {
		width := 2*len(coef.periods) + 1
		for l, c := range coef.coef {
			if len(c) != width {
				return core.SnapshotFormatf("link %d basis has %d coefficients, want %d", l, len(c), width)
			}
		}
	}
	if len(times) != window.Len() {
		return core.SnapshotFormatf("%d bin times for %d window rows", len(times), window.Len())
	}
	timeRing := newIntRing(window.Cap())
	for _, t := range times {
		timeRing.Push(t)
	}
	d.alpha = alpha
	d.level, d.trend = level, trend
	d.coef = coef
	d.rmean, d.rvar = rmean, rvar
	d.alarmRun, d.binAlarmRun = alarmRun, binAlarmRun
	d.window, d.times = window, timeRing
	d.clock, d.processed = clock, processed
	cadence()
	return nil
}

// Thresholds returns each link's current alarm threshold
// (mean + K*sigma of its tracked absolute residuals, floored against
// the magnitude of the next bin's forecast — the same floor scale
// ProcessBatch would apply), for inspection and tests.
func (d *Detector) Thresholds() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var basis []float64
	if d.kind == Fourier {
		basis = make([]float64, 2*len(d.coef.periods)+1)
		d.basisRow(d.coef.periods, d.clock, basis)
	}
	out := make([]float64, d.links)
	for l := range out {
		var pred float64
		switch d.kind {
		case EWMA:
			pred = d.level[l]
		case HoltWinters:
			pred = d.level[l] + d.trend[l]
		case Fourier:
			pred = mat.Dot(basis, d.coef.coef[l])
		}
		out[l] = d.thresholdLocked(l, pred)
	}
	return out
}

// intRing is a fixed-capacity ring of ints, pushed in lockstep with the
// window's RowRing to remember each retained row's absolute bin index
// (the window has gaps where anomalous bins were withheld, and the
// Fourier basis needs true times).
type intRing struct {
	data     []int
	capacity int
	next     int
	count    int
}

func newIntRing(capacity int) *intRing {
	return &intRing{data: make([]int, capacity), capacity: capacity}
}

func (r *intRing) Push(v int) {
	r.data[r.next] = v
	r.next = (r.next + 1) % r.capacity
	if r.count < r.capacity {
		r.count++
	}
}

// Slice returns the buffered values, oldest first.
func (r *intRing) Slice() []int {
	out := make([]int, r.count)
	start := 0
	if r.count == r.capacity {
		start = r.next
	}
	n := copy(out, r.data[start:r.count])
	copy(out[n:], r.data[:start])
	return out
}
