// Package core implements the paper's contribution: the subspace method
// for diagnosing network-wide traffic anomalies (Sections 4 and 5).
//
// The pipeline is:
//
//  1. Fit PCA to the t x m link measurement matrix Y (mean-centered).
//  2. Separate the principal axes into a normal subspace S (the first r
//     axes) and an anomalous subspace S~ using the 3-sigma rule on the
//     axis projections (Section 4.3).
//  3. Detect: flag timesteps whose squared prediction error SPE = ||y~||^2
//     exceeds the Q-statistic threshold delta^2_alpha of Jackson and
//     Mudholkar (Section 5.1).
//  4. Identify: choose the OD flow whose anomaly direction best explains
//     the residual (Section 5.2).
//  5. Quantify: estimate the number of anomalous bytes via the
//     column-normalized routing matrix (Section 5.3).
package core

import (
	"errors"
	"fmt"

	"netanomaly/internal/mat"
)

// PCA holds the principal component decomposition of a link measurement
// matrix Y (t bins x m links), computed on mean-centered data.
type PCA struct {
	// Components has the principal axes v_i as columns (m x m).
	Components *mat.Dense
	// Variances[i] is the sample variance captured by axis i,
	// ||Y v_i||^2 / (t-1), sorted descending.
	Variances []float64
	// Projections has the normalized projections u_i = Y v_i / ||Y v_i||
	// as columns (t x m). Columns for zero-variance axes are zero.
	Projections *mat.Dense
	// Means are the per-link means removed from Y before the analysis.
	Means []float64
	// SampleCount is t, the number of time bins.
	SampleCount int
}

// ErrTooFewSamples is returned when Y has fewer rows than needed for a
// meaningful covariance estimate.
var ErrTooFewSamples = errors.New("core: need at least 2 time bins")

// Fit computes the PCA of the measurement matrix y (t x m). The input is
// not modified; centering happens on a copy. Requires t >= 2 and t >= m.
func Fit(y *mat.Dense) (*PCA, error) {
	t, m := y.Dims()
	if t < 2 {
		return nil, ErrTooFewSamples
	}
	if t < m {
		return nil, fmt.Errorf("core: need at least as many bins (%d) as links (%d)", t, m)
	}
	work := y.Clone()
	means := work.CenterColumns()
	u, s, v, err := mat.SVD(work)
	if err != nil {
		return nil, fmt.Errorf("core: PCA decomposition failed: %w", err)
	}
	variances := make([]float64, m)
	for i, sv := range s {
		variances[i] = sv * sv / float64(t-1)
	}
	return &PCA{
		Components:  v,
		Variances:   variances,
		Projections: u,
		Means:       means,
		SampleCount: t,
	}, nil
}

// FitEig computes the same decomposition via the eigendecomposition of the
// covariance matrix Y^T Y instead of an SVD of Y. The paper notes the two
// are equivalent (Section 7.1); this variant exists for the ablation
// benchmark comparing cost and accuracy. Projections are reconstructed as
// u_i = Y v_i / ||Y v_i||.
func FitEig(y *mat.Dense) (*PCA, error) {
	t, m := y.Dims()
	if t < 2 {
		return nil, ErrTooFewSamples
	}
	if t < m {
		return nil, fmt.Errorf("core: need at least as many bins (%d) as links (%d)", t, m)
	}
	work := y.Clone()
	means := work.CenterColumns()
	vals, vecs, err := mat.SymEig(work.Gram())
	if err != nil {
		return nil, fmt.Errorf("core: covariance eigendecomposition failed: %w", err)
	}
	variances := make([]float64, m)
	for i, ev := range vals {
		if ev < 0 {
			ev = 0 // numerical noise on a PSD matrix
		}
		variances[i] = ev / float64(t-1)
	}
	// Row i of V^T Y^T is (Y v_i)^T: normalize the rows, transpose back.
	ut := mat.Mul(vecs.T(), work.T())
	for i := 0; i < m; i++ {
		mat.Normalize(ut.RowView(i))
	}
	proj := ut.T()
	return &PCA{
		Components:  vecs,
		Variances:   variances,
		Projections: proj,
		Means:       means,
		SampleCount: t,
	}, nil
}

// NumComponents returns the number of principal axes (m).
func (p *PCA) NumComponents() int { return len(p.Variances) }

// VarianceFractions returns each axis's share of total variance — the
// scree curve of Figure 3.
func (p *PCA) VarianceFractions() []float64 {
	var total float64
	for _, v := range p.Variances {
		total += v
	}
	out := make([]float64, len(p.Variances))
	if total == 0 {
		return out
	}
	for i, v := range p.Variances {
		out[i] = v / total
	}
	return out
}

// EffectiveDimension returns the smallest number of leading axes whose
// cumulative variance fraction reaches frac (e.g. 0.95). The paper
// observes 3-4 axes suffice for real backbone link traffic (Figure 3).
func (p *PCA) EffectiveDimension(frac float64) int {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("core: EffectiveDimension frac %v out of (0,1]", frac))
	}
	fracs := p.VarianceFractions()
	var cum float64
	for i, f := range fracs {
		cum += f
		if cum >= frac {
			return i + 1
		}
	}
	return len(fracs)
}
