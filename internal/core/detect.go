package core

import (
	"fmt"

	"netanomaly/internal/mat"
)

// Detection is the outcome of the SPE test at one timestep.
type Detection struct {
	// Bin is the time index within the series (0 for single-shot tests).
	Bin int
	// SPE is the squared prediction error ||ytilde||^2.
	SPE float64
	// Threshold is the Q-statistic limit delta^2_alpha in force.
	Threshold float64
	// Alarm is true when SPE exceeds the threshold.
	Alarm bool
}

// Detector couples a subspace model with a fixed confidence level.
type Detector struct {
	model      *Model
	confidence float64
	limit      float64
}

// NewDetector returns a detector at the given confidence (e.g. 0.999).
func NewDetector(m *Model, confidence float64) (*Detector, error) {
	limit, err := m.QLimit(confidence)
	if err != nil {
		return nil, err
	}
	return &Detector{model: m, confidence: confidence, limit: limit}, nil
}

// Model returns the underlying subspace model.
func (d *Detector) Model() *Model { return d.model }

// Confidence returns the configured confidence level.
func (d *Detector) Confidence() float64 { return d.confidence }

// Limit returns the Q-statistic threshold delta^2_alpha.
func (d *Detector) Limit() float64 { return d.limit }

// Detect runs the SPE test on one measurement vector.
func (d *Detector) Detect(y []float64) Detection {
	spe := d.model.SPE(y)
	return Detection{SPE: spe, Threshold: d.limit, Alarm: spe > d.limit}
}

// DetectSeries runs the SPE test on every row of the measurement matrix
// (bins x links) and returns one Detection per bin.
func (d *Detector) DetectSeries(y *mat.Dense) []Detection {
	t, m := y.Dims()
	if m != d.model.NumLinks() {
		panic(fmt.Sprintf("core: series has %d links, model has %d", m, d.model.NumLinks()))
	}
	out := make([]Detection, t)
	for b := 0; b < t; b++ {
		det := d.Detect(y.Row(b))
		det.Bin = b
		out[b] = det
	}
	return out
}

// DetectBatch runs the SPE test on every row of the measurement matrix
// (bins x links) through the batched low-rank SPE kernel: one matrix pass
// for the whole block instead of a per-vector projection loop. It matches
// DetectSeries up to floating-point roundoff in SPE.
func (d *Detector) DetectBatch(y *mat.Dense) []Detection {
	spes := d.model.SPEBatch(y, nil)
	out := make([]Detection, len(spes))
	for b, spe := range spes {
		out[b] = Detection{Bin: b, SPE: spe, Threshold: d.limit, Alarm: spe > d.limit}
	}
	return out
}

// Diagnosis is a fully diagnosed volume anomaly: when it happened, how
// anomalous the traffic was, which OD flow caused it, and how many bytes
// were involved (the paper's three-step output).
type Diagnosis struct {
	Bin       int
	SPE       float64
	Threshold float64
	Flow      int
	Bytes     float64
}

// Diagnoser runs the complete detect-identify-quantify pipeline.
type Diagnoser struct {
	det *Detector
	id  *Identifier
}

// Options configures NewDiagnoser.
type Options struct {
	// Confidence is the detection confidence level; default 0.999.
	Confidence float64
	// Sigma is the subspace separation threshold; default 3.
	Sigma float64
	// Rank fixes the normal subspace dimension; 0 selects it with the
	// sigma rule (the paper's procedure).
	Rank int
}

func (o *Options) fillDefaults() {
	if o.Confidence == 0 {
		o.Confidence = 0.999
	}
	if o.Sigma == 0 {
		o.Sigma = DefaultSigma
	}
}

// NewDiagnoser fits the subspace model on the measurement matrix y
// (bins x links) and prepares identification against the routing matrix a
// (links x flows).
func NewDiagnoser(y, a *mat.Dense, opts Options) (*Diagnoser, error) {
	opts.fillDefaults()
	pca, rank, err := fitRank(y.Clone(), opts)
	if err != nil {
		return nil, err
	}
	return diagnoserFromPCA(pca, rank, newFlowPaths(a), opts.Confidence)
}

// fitRank is the batch fit behind NewDiagnoser and every streaming seed
// and window refit: the PCA of y through its centered m x m Gram
// (gramEig, Section 7.1's equivalent of the SVD) and the normal-subspace
// rank — opts.Rank when pinned, else the paper's separation procedure,
// projecting the centered rows onto one axis at a time and stopping at
// the first that deviates. It agrees with Fit followed by SeparateAxes to
// round-off at a fraction of the t x m SVD's cost; the returned PCA has
// no temporal view. Like gramEig it centers y in place: a caller that
// does not own y passes a copy.
func fitRank(y *mat.Dense, opts Options) (*PCA, int, error) {
	pca, vt, err := gramEig(y)
	if err != nil {
		return nil, 0, err
	}
	rank := opts.Rank
	if rank == 0 {
		rank = separate(pca.NumComponents(), opts.Sigma, func(i int) bool {
			return deviates(mat.MulVec(y, vt.RowView(i)), 1, opts.Sigma)
		})
	}
	return pca, rank, nil
}

// diagnoserFromPCA assembles the detect-identify pipeline at the given
// rank from any PCA (a batch fit, a tracked covariance, a sketch) and the
// routing matrix's flow paths.
func diagnoserFromPCA(pca *PCA, rank int, paths *flowPaths, confidence float64) (*Diagnoser, error) {
	model, err := Build(pca, rank)
	if err != nil {
		return nil, err
	}
	det, err := NewDetector(model, confidence)
	if err != nil {
		return nil, err
	}
	id, err := newIdentifier(model, paths)
	if err != nil {
		return nil, err
	}
	return &Diagnoser{det: det, id: id}, nil
}

// Detector exposes the detection stage.
func (d *Diagnoser) Detector() *Detector { return d.det }

// Identifier exposes the identification stage.
func (d *Diagnoser) Identifier() *Identifier { return d.id }

// DiagnoseAt runs the three steps on one measurement vector. ok is false
// when no anomaly is detected (identification is not attempted, matching
// the paper's evaluation protocol).
func (d *Diagnoser) DiagnoseAt(y []float64) (diag Diagnosis, ok bool) {
	det := d.det.Detect(y)
	if !det.Alarm {
		return Diagnosis{SPE: det.SPE, Threshold: det.Threshold, Flow: -1}, false
	}
	res := d.id.Identify(y)
	return Diagnosis{
		SPE:       det.SPE,
		Threshold: det.Threshold,
		Flow:      res.Flow,
		Bytes:     res.Bytes,
	}, true
}

// DiagnoseBatch runs the three-step pipeline over every row of the
// measurement matrix (bins x links) in one batched pass: SPE for the whole
// block comes from one batched projection (Model.SPEBatch), and only the
// rows that alarm pay for identification and quantification, all on one
// scratch allocated for the batch. It
// returns one Diagnosis per row (Flow is -1 for quiet rows) and a parallel
// slice marking which rows are anomalous. Bin is the row index within the
// batch; streaming callers re-number it with their own sequence.
func (d *Diagnoser) DiagnoseBatch(y *mat.Dense) ([]Diagnosis, []bool) {
	bins, m := y.Dims()
	if m != d.det.model.NumLinks() {
		panic(fmt.Sprintf("core: batch has %d links, model has %d", m, d.det.model.NumLinks()))
	}
	spes := d.det.model.SPEBatch(y, nil)
	diags := make([]Diagnosis, bins)
	flags := make([]bool, bins)
	// The first alarmed row allocates the identification scratch, and
	// every later one in the batch reuses it.
	var scratch identScratch
	for b, spe := range spes {
		diag := Diagnosis{Bin: b, SPE: spe, Threshold: d.det.limit, Flow: -1}
		if spe > d.det.limit {
			if scratch.resid == nil {
				scratch = d.id.newScratch()
			}
			res := d.id.identify(y.RowView(b), scratch)
			diag.Flow = res.Flow
			diag.Bytes = res.Bytes
			flags[b] = true
		}
		diags[b] = diag
	}
	return diags, flags
}

// DiagnoseSeries runs the pipeline over every bin of the measurement
// matrix and returns the diagnosed anomalies, in time order.
func (d *Diagnoser) DiagnoseSeries(y *mat.Dense) []Diagnosis {
	t, m := y.Dims()
	if m != d.det.model.NumLinks() {
		panic(fmt.Sprintf("core: series has %d links, model has %d", m, d.det.model.NumLinks()))
	}
	var out []Diagnosis
	for b := 0; b < t; b++ {
		if diag, ok := d.DiagnoseAt(y.Row(b)); ok {
			diag.Bin = b
			out = append(out, diag)
		}
	}
	return out
}
