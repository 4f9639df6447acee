// Package timeseries implements the temporal methods the paper uses to
// extract "true" anomalies from OD flows (Section 6.2) and to contrast
// against the subspace method (Section 7.3): EWMA forecasting with the
// bidirectional minimum trick from footnote 4, Fourier basis-function
// fitting over the paper's eight periods, and Holt-Winters smoothing.
package timeseries

import (
	"fmt"
	"math"
)

// EWMA is an exponentially weighted moving average forecaster:
// zhat[t+1] = alpha*z[t] + (1-alpha)*zhat[t]. The paper selects
// 0.2 <= alpha <= 0.3 by multi-grid search on training data.
type EWMA struct {
	// Alpha controls the relative weight on recent values, 0 <= Alpha <= 1.
	Alpha float64
}

// Forecast returns the one-step-ahead predictions for z: out[t] is the
// prediction of z[t] made from z[0..t-1]. out[0] is seeded with z[0]
// (a zero-information prediction), so the first residual is zero.
func (e EWMA) Forecast(z []float64) []float64 {
	checkAlpha(e.Alpha)
	out := make([]float64, len(z))
	if len(z) == 0 {
		return out
	}
	pred := z[0]
	out[0] = pred
	for t := 1; t < len(z); t++ {
		pred = e.Alpha*z[t-1] + (1-e.Alpha)*pred
		out[t] = pred
	}
	return out
}

// checkAlpha panics on an EWMA gain outside [0,1].
func checkAlpha(a float64) {
	if a < 0 || a > 1 {
		panic(fmt.Sprintf("timeseries: EWMA alpha %v out of [0,1]", a))
	}
}

// Residuals returns |z[t] - zhat[t]| for the one-step EWMA forecast.
func (e EWMA) Residuals(z []float64) []float64 {
	pred := e.Forecast(z)
	out := make([]float64, len(z))
	for t := range z {
		out[t] = math.Abs(z[t] - pred[t])
	}
	return out
}

// BidirectionalResiduals runs EWMA in both time directions and reports the
// per-point minimum of the two residual estimates. This implements the
// paper's footnote 4: a plain forward EWMA mistakenly marks the bin after a
// spike as a second spike; taking the minimum of the forward and backward
// estimates suppresses that echo.
func BidirectionalResiduals(z []float64, alpha float64) []float64 {
	e := EWMA{Alpha: alpha}
	fwd := e.Residuals(z)
	rev := make([]float64, len(z))
	for i, v := range z {
		rev[len(z)-1-i] = v
	}
	bwdRev := e.Residuals(rev)
	out := make([]float64, len(z))
	for t := range z {
		b := bwdRev[len(z)-1-t]
		out[t] = math.Min(fwd[t], b)
	}
	return out
}

// SelectAlpha picks the alpha from grid minimizing the sum of squared
// one-step forecast errors on train, mirroring the paper's multi-grid
// parameter search. It scores each candidate in one pass over train and
// allocates nothing. It panics on an empty grid or an alpha outside
// [0,1]. Candidates whose SSE is
// not finite (a train series containing NaN or Inf, or one that
// overflows) are skipped; when every candidate's SSE is non-finite an
// error is returned, since no comparison is meaningful. Exact SSE ties
// — constant series tie every alpha — are broken toward the paper's
// 0.2–0.3 working range rather than whatever happens to come first in
// the grid.
func SelectAlpha(train []float64, grid []float64) (float64, error) {
	if len(grid) == 0 {
		panic("timeseries: SelectAlpha needs a non-empty grid")
	}
	best := math.NaN()
	bestErr := math.Inf(1)
	found := false
	for _, a := range grid {
		checkAlpha(a)
		// The Forecast recursion, scored as it runs: no series is built.
		var sse float64
		if len(train) > 0 {
			pred := train[0]
			for t := 1; t < len(train); t++ {
				pred = a*train[t-1] + (1-a)*pred
				d := train[t] - pred
				sse += d * d
			}
		}
		if !isFinite(sse) {
			continue
		}
		if !found || sse < bestErr || (sse == bestErr && alphaInWorkingRange(a) && !alphaInWorkingRange(best)) {
			bestErr = sse
			best = a
			found = true
		}
	}
	if !found {
		return 0, fmt.Errorf("timeseries: SelectAlpha: no grid alpha has a finite SSE on the training series")
	}
	return best, nil
}

// alphaInWorkingRange reports whether alpha falls in the paper's
// empirically chosen 0.2 <= alpha <= 0.3 band (Section 6.2).
func alphaInWorkingRange(a float64) bool { return a >= 0.2 && a <= 0.3 }

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// DefaultAlphaGrid spans the paper's working range with its neighbourhood.
var DefaultAlphaGrid = []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5}

// HoltWinters is a double exponential smoother (level + trend). The paper
// cites Holt-Winters as a forecasting-based detection alternative; it is
// provided for completeness and used in ablation benchmarks.
type HoltWinters struct {
	// Alpha smooths the level, Beta the trend; both in [0,1].
	Alpha, Beta float64
}

// Forecast returns one-step-ahead predictions: out[t] predicts z[t] from
// z[0..t-1]. The level is seeded with z[0] and the trend with zero.
func (h HoltWinters) Forecast(z []float64) []float64 {
	if h.Alpha < 0 || h.Alpha > 1 || h.Beta < 0 || h.Beta > 1 {
		panic(fmt.Sprintf("timeseries: HoltWinters parameters (%v,%v) out of [0,1]", h.Alpha, h.Beta))
	}
	out := make([]float64, len(z))
	if len(z) == 0 {
		return out
	}
	level := z[0]
	trend := 0.0
	out[0] = z[0]
	for t := 1; t < len(z); t++ {
		out[t] = level + trend
		newLevel := h.Alpha*z[t] + (1-h.Alpha)*(level+trend)
		trend = h.Beta*(newLevel-level) + (1-h.Beta)*trend
		level = newLevel
	}
	return out
}

// Residuals returns |z[t] - forecast[t]| for the Holt-Winters forecast.
func (h HoltWinters) Residuals(z []float64) []float64 {
	pred := h.Forecast(z)
	out := make([]float64, len(z))
	for t := range z {
		out[t] = math.Abs(z[t] - pred[t])
	}
	return out
}
