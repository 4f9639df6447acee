package experiments

import (
	"fmt"

	"netanomaly/internal/core"
	"netanomaly/internal/eval"
)

// RankAblationRow records detection and false-alarm behaviour for one
// forced normal-subspace rank — the sensitivity study behind the paper's
// 3-sigma separation rule (DESIGN.md section 4).
type RankAblationRow struct {
	Rank        int
	ChosenBy3σ  bool
	FalseAlarms int
	NormalBins  int
	// Detection is the rate for cutoff-sized injections swept over a day.
	Detection float64
}

// AblationSubspaceRank sweeps the normal subspace rank. binStride
// subsamples the injection day as in NewInjectionStudy.
func AblationSubspaceRank(d *Dataset, ranks []int, binStride int) ([]RankAblationRow, error) {
	p, err := core.Fit(d.Links)
	if err != nil {
		return nil, err
	}
	auto := core.SeparateAxes(p, core.DefaultSigma)
	truthBins := map[int]bool{}
	for _, a := range d.TrueAnomalies {
		truthBins[a.Bin] = true
	}
	binsPerDay := int((24 * 60 * 60) / d.BinDuration.Seconds())
	var sweepBins []int
	for b := 0; b < binsPerDay && b < d.Bins(); b += binStride {
		sweepBins = append(sweepBins, b)
	}
	var out []RankAblationRow
	for _, r := range ranks {
		diag, err := core.NewDiagnoser(d.Links, d.Topo.RoutingMatrix(), core.Options{Rank: r})
		if err != nil {
			return nil, fmt.Errorf("experiments: rank ablation r=%d: %w", r, err)
		}
		row := RankAblationRow{Rank: r, ChosenBy3σ: r == auto}
		for b := 0; b < d.Bins(); b++ {
			if truthBins[b] {
				continue
			}
			row.NormalBins++
			if det := diag.Detector().Detect(d.Links.Row(b)); det.Alarm {
				row.FalseAlarms++
			}
		}
		sweep := eval.InjectionSweep(diag, d.Topo, d.Links, eval.SweepConfig{
			Size: d.Cutoff, Bins: sweepBins,
		})
		row.Detection = sweep.DetectionRate()
		out = append(out, row)
	}
	return out, nil
}

// ConfidenceAblationRow compares operating points of the Q-statistic.
type ConfidenceAblationRow struct {
	Confidence  float64
	Limit       float64
	FalseAlarms int
	NormalBins  int
	Detection   float64 // of the dataset's true anomalies
}

// AblationConfidence evaluates the paper's two confidence levels (99.5%
// and 99.9%) plus any extras given.
func AblationConfidence(d *Dataset, confidences []float64) ([]ConfidenceAblationRow, error) {
	if confidences == nil {
		confidences = []float64{0.995, 0.999}
	}
	p, err := core.Fit(d.Links)
	if err != nil {
		return nil, err
	}
	model, err := core.Build(p, core.SeparateAxes(p, core.DefaultSigma))
	if err != nil {
		return nil, err
	}
	truthBins := map[int]bool{}
	for _, a := range d.TrueAnomalies {
		truthBins[a.Bin] = true
	}
	var out []ConfidenceAblationRow
	for _, c := range confidences {
		det, err := core.NewDetector(model, c)
		if err != nil {
			return nil, err
		}
		row := ConfidenceAblationRow{Confidence: c, Limit: det.Limit()}
		var detected int
		for b := 0; b < d.Bins(); b++ {
			alarm := det.Detect(d.Links.Row(b)).Alarm
			if truthBins[b] {
				if alarm {
					detected++
				}
			} else {
				row.NormalBins++
				if alarm {
					row.FalseAlarms++
				}
			}
		}
		if len(truthBins) > 0 {
			row.Detection = float64(detected) / float64(len(truthBins))
		}
		out = append(out, row)
	}
	return out, nil
}

// SolverAblation compares the SVD-based PCA against the covariance
// eigendecomposition (Section 7.1 notes their equivalence): agreement of
// captured variances and of the projection operator for the chosen rank.
type SolverAblation struct {
	Dataset string
	Rank    int
	// MaxVarianceRelDiff is the largest relative difference between
	// per-axis variances of the two solvers.
	MaxVarianceRelDiff float64
	// ProjectorDiff is ||C_svd - C_eig||_F for the normal projector
	// (equal to the residual projectors' distance, Model.Distance).
	ProjectorDiff float64
}

// AblationEigVsSVD runs both solvers on a dataset.
func AblationEigVsSVD(d *Dataset) (SolverAblation, error) {
	pSVD, err := core.Fit(d.Links)
	if err != nil {
		return SolverAblation{}, err
	}
	pEig, err := core.FitEig(d.Links)
	if err != nil {
		return SolverAblation{}, err
	}
	r := core.SeparateAxes(pSVD, core.DefaultSigma)
	mSVD, err := core.Build(pSVD, r)
	if err != nil {
		return SolverAblation{}, err
	}
	mEig, err := core.Build(pEig, r)
	if err != nil {
		return SolverAblation{}, err
	}
	res := SolverAblation{Dataset: d.Name, Rank: r}
	for i, v := range pSVD.Variances {
		if v <= 0 {
			continue
		}
		rel := (v - pEig.Variances[i]) / v
		if rel < 0 {
			rel = -rel
		}
		if rel > res.MaxVarianceRelDiff {
			res.MaxVarianceRelDiff = rel
		}
	}
	res.ProjectorDiff = mSVD.Distance(mEig)
	return res, nil
}

// IdentAblation verifies the closed-form identification scan against the
// paper's literal Equation (1) recomputation on anomalous bins.
type IdentAblation struct {
	Dataset     string
	Trials      int
	Agreements  int
	MaxBytesRel float64
}

// AblationIdentification compares the two identification implementations
// on every true-anomaly bin of the dataset.
func AblationIdentification(d *Dataset) (IdentAblation, error) {
	diag, err := d.Diagnoser()
	if err != nil {
		return IdentAblation{}, err
	}
	id := diag.Identifier()
	res := IdentAblation{Dataset: d.Name}
	for _, a := range d.TrueAnomalies {
		y := d.Links.Row(a.Bin)
		fast := id.Identify(y)
		naive := id.IdentifyNaive(y)
		res.Trials++
		if fast.Flow == naive.Flow {
			res.Agreements++
			rel := 0.0
			if naive.Bytes != 0 {
				rel = (fast.Bytes - naive.Bytes) / naive.Bytes
				if rel < 0 {
					rel = -rel
				}
			}
			if rel > res.MaxBytesRel {
				res.MaxBytesRel = rel
			}
		}
	}
	return res, nil
}
