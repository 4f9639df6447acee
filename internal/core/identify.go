package core

import (
	"fmt"
	"math"

	"netanomaly/internal/mat"
)

// tieTol is the identification tie rule. Hypotheses whose residuals lie
// within tieTol*||y~||^2 of the smallest explain y~ equally well, and the
// lowest flow index among them wins. Exact ties are real: a rank-(m-1)
// model leaves a one-dimensional anomalous subspace in which every
// flow's theta~ is collinear, and duplicate routes share one theta~.
// Without the rule such a tie would be decided by rounding noise.
const tieTol = 1e-9

// cancelFloor bounds the cancellation NewIdentifier accepts when it takes
// ||theta~_i||^2 as ||theta_i||^2 - ||P^T theta_i||^2: below this share of
// ||theta_i||^2 the difference is recomputed from the explicit vector.
const cancelFloor = 1e-3

// flowPaths is the routing matrix A (links x flows) in compressed sparse
// column form, each column scaled to its anomaly direction
// theta_i = A_i / ||A_i||: flow i's path is link[start[i]:start[i+1]]
// with weights theta[start[i]:start[i+1]], and an unroutable flow has an
// empty path. It depends on A alone, so a detector builds it once and
// every Identifier it fits shares it.
type flowPaths struct {
	links int
	start []int
	link  []int
	theta []float64
	// aNorm[i] = ||A_i|| = sqrt(path length); aSum[i] = sum(A_i) = path
	// length. Used by quantification via the column-normalized Abar.
	aNorm []float64
	aSum  []float64
}

func newFlowPaths(a *mat.Dense) *flowPaths {
	links, flows := a.Dims()
	fp := &flowPaths{
		links: links,
		start: make([]int, flows+1),
		aNorm: make([]float64, flows),
		aSum:  make([]float64, flows),
	}
	data := a.RawData()
	for i := 0; i < flows; i++ {
		first := len(fp.link)
		var sum, sq float64
		for k := 0; k < links; k++ {
			if v := data[k*flows+i]; v != 0 {
				fp.link = append(fp.link, k)
				fp.theta = append(fp.theta, v)
				sum += v
				sq += v * v
			}
		}
		if norm := math.Sqrt(sq); norm > 0 {
			inv := 1 / norm
			for e := first; e < len(fp.theta); e++ {
				fp.theta[e] *= inv
			}
			fp.aNorm[i], fp.aSum[i] = norm, sum
		} else { // unroutable flow, cannot hypothesize
			fp.link, fp.theta = fp.link[:first], fp.theta[:first]
		}
		fp.start[i+1] = len(fp.link)
	}
	return fp
}

// dot returns theta_i^T v over flow i's path.
func (fp *flowPaths) dot(i int, v []float64) float64 {
	return pathDot(fp.link[fp.start[i]:fp.start[i+1]], fp.theta[fp.start[i]:fp.start[i+1]], v)
}

// pathDot returns sum_e theta[e] * v[link[e]], summed in path order.
func pathDot(link []int, theta, v []float64) float64 {
	theta = theta[:len(link)]
	var s float64
	for e, k := range link {
		s += theta[e] * v[k]
	}
	return s
}

// dense returns theta_i as a length-links vector.
func (fp *flowPaths) dense(i int) []float64 {
	out := make([]float64, fp.links)
	for e := fp.start[i]; e < fp.start[i+1]; e++ {
		out[fp.link[e]] = fp.theta[e]
	}
	return out
}

// Identifier locates which hypothesized anomaly best explains a residual
// measurement vector, and quantifies it (Sections 5.2 and 5.3). The
// candidate anomaly set is the columns of the routing matrix A: each OD
// flow adds an equal amount of traffic to every link on its path, so the
// anomaly direction for flow i is theta_i = A_i / ||A_i||.
//
// Only flow i's path and ||theta~_i||^2 are kept, never theta~_i itself:
// the residual y~ already lies in the anomalous subspace, so
// theta~_i^T y~ = theta_i^T C~ y~ = theta_i^T y~, a dot product over the
// path. A scan costs O(nnz(A)) after the O(m*rank) residual, and building
// the Identifier for a new model costs O(nnz(A)*rank).
type Identifier struct {
	model *Model
	paths *flowPaths
	// thetaTildeSq[i] = ||C~ theta_i||^2, the squared length of flow i's
	// anomaly direction inside the anomalous subspace (0 for flows with an
	// empty route).
	thetaTildeSq []float64
}

// NewIdentifier precomputes the per-flow anomaly directions and their
// anomalous-subspace lengths for the model and routing matrix a
// (links x flows). Flows whose routing column is all-zero are excluded
// from identification.
func NewIdentifier(m *Model, a *mat.Dense) (*Identifier, error) {
	return newIdentifier(m, newFlowPaths(a))
}

func newIdentifier(m *Model, fp *flowPaths) (*Identifier, error) {
	if fp.links != m.NumLinks() {
		return nil, fmt.Errorf("core: routing matrix has %d links, model has %d", fp.links, m.NumLinks())
	}
	id := &Identifier{model: m, paths: fp, thetaTildeSq: make([]float64, len(fp.aNorm))}
	rank := m.rank
	pdata := m.p.RawData()
	u := make([]float64, rank)
	for i := range id.thetaTildeSq {
		if fp.start[i] == fp.start[i+1] {
			continue
		}
		// u = P^T theta_i over the path; ||C~ theta_i||^2 = ||theta_i||^2 -
		// ||u||^2 while that difference is well above round-off.
		clear(u)
		var sq float64
		for e := fp.start[i]; e < fp.start[i+1]; e++ {
			w := fp.theta[e]
			sq += w * w
			mat.AddScaled(u, w, pdata[fp.link[e]*rank:(fp.link[e]+1)*rank])
		}
		tsq := sq - mat.SqNorm(u)
		if tsq < cancelFloor*sq {
			// theta_i lies almost wholly in S; take the length of the
			// explicit theta_i - P u, O(m*rank), instead.
			tsq = mat.SqNorm(m.anomalous(fp.dense(i)))
		}
		id.thetaTildeSq[i] = tsq
	}
	return id, nil
}

// NumFlows returns the number of candidate anomalies (OD flows).
func (id *Identifier) NumFlows() int { return len(id.thetaTildeSq) }

// Result is an identified and quantified anomaly hypothesis.
type Result struct {
	// Flow is the index of the best anomaly hypothesis (OD flow).
	Flow int
	// Magnitude is fhat_i, the anomaly amplitude along theta_i.
	Magnitude float64
	// Bytes is the quantification estimate Abar_i^T y' of the anomalous
	// byte count in the flow (Section 5.3).
	Bytes float64
	// ResidualSq is ||C~ y*_i||^2, the residual left after removing the
	// hypothesized anomaly; the chosen flow minimizes it.
	ResidualSq float64
}

// Identify chooses the best single-flow hypothesis for the measurement y.
// It minimizes ||C~ y*_i||^2 over flows i, where y*_i = y - theta_i fhat_i
// and fhat_i = (theta~_i^T theta~_i)^-1 theta~_i^T y~ (Equation 1). By
// orthogonal projection the minimized residual equals
// ||y~||^2 - (theta~_i^T y~)^2 / ||theta~_i||^2, so after the O(m*rank)
// residual, projected through contiguous P^T rows, the scan is one
// sparse dot per flow, O(nnz(A)), without rebuilding y*_i per
// hypothesis. Ties are broken by tieTol. Results are bit-identical to
// the test reference (identifyRef), whose projections go through
// mat.MulTVec and whose tie rule is argminTie's two passes.
func (id *Identifier) Identify(y []float64) Result {
	return id.identify(y, id.newScratch())
}

// identScratch is the working memory of one identification: the
// residual y~, P^T y~ (one value per row of the model's pt) and one
// residual per flow. DiagnoseBatch reuses one for every alarmed row.
type identScratch struct {
	yt, u, resid []float64
}

// newScratch allocates an identScratch for id in one slab.
func (id *Identifier) newScratch() identScratch {
	links, axes, flows := id.model.NumLinks(), id.model.pt.Rows(), id.NumFlows()
	buf := make([]float64, links+axes+flows)
	return identScratch{yt: buf[:links:links], u: buf[links : links+axes : links+axes], resid: buf[links+axes:]}
}

// identify is Identify on caller-owned scratch.
func (id *Identifier) identify(y []float64, s identScratch) Result {
	// theta_i^T y~ stands in for theta~_i^T y~ only while y~ has no
	// component in S. One projection leaves round-off of order eps*||yc||
	// there, which a flow with a short theta~_i amplifies by
	// 1/||theta~_i||; projecting twice cuts it to eps*||y~||.
	yt := id.model.centerInto(s.yt, y)
	id.model.removeNormal(yt, s.u)
	id.model.removeNormal(yt, s.u)
	base := mat.SqNorm(yt)
	tts := id.thetaTildeSq
	resid := s.resid[:len(tts)]
	start, link, theta := id.paths.start[:len(tts)+1], id.paths.link, id.paths.theta
	// The scan keeps argminTie's first pass, the running minimum (which
	// NaN never lowers), so only the tie pass reads resid again.
	lo := math.Inf(1)
	for i, tsq := range tts {
		r := math.Inf(1)
		if tsq != 0 {
			dot := pathDot(link[start[i]:start[i+1]], theta[start[i]:start[i+1]], yt)
			r = base - dot*dot/tsq
			if r < lo {
				lo = r
			}
		}
		resid[i] = r
	}
	flow := firstWithinTie(resid, lo, base)
	if flow < 0 {
		return Result{Flow: -1, ResidualSq: base}
	}
	fhat := id.paths.dot(flow, yt) / id.thetaTildeSq[flow]
	return Result{Flow: flow, Magnitude: fhat, Bytes: id.quantify(flow, fhat), ResidualSq: resid[flow]}
}

// IdentifyNaive recomputes y*_i with Equation (1) and projects it for each
// hypothesis, exactly as written in the paper, building theta_i and
// theta~_i on the fly. It is O(flows x links x rank) and exists to
// validate the closed form used by Identify (the two must agree; see the
// ablation benchmark).
func (id *Identifier) IdentifyNaive(y []float64) Result {
	yc := id.model.center(y)
	yt := id.model.anomalous(yc)
	resid := make([]float64, len(id.thetaTildeSq))
	fhats := make([]float64, len(id.thetaTildeSq))
	for i := range id.thetaTildeSq {
		resid[i] = math.Inf(1)
		if id.thetaTildeSq[i] == 0 {
			continue
		}
		theta := id.paths.dense(i)
		tt := id.model.anomalous(theta)
		fhat := mat.Dot(tt, yt) / mat.SqNorm(tt)
		// y*_i = y - theta_i fhat
		ystar := mat.CloneVec(yc)
		mat.AddScaled(ystar, -fhat, theta)
		resid[i] = mat.SqNorm(id.model.anomalous(ystar))
		fhats[i] = fhat
	}
	flow := argminTie(resid, mat.SqNorm(yt))
	if flow < 0 {
		return Result{Flow: -1, ResidualSq: math.Inf(1)}
	}
	return Result{Flow: flow, Magnitude: fhats[flow], Bytes: id.quantify(flow, fhats[flow]), ResidualSq: resid[flow]}
}

// argminTie returns the lowest index whose value is within tieTol*scale
// of the smallest, or -1 when no value is below +Inf. NaN never wins.
func argminTie(vals []float64, scale float64) int {
	lo := math.Inf(1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
	}
	return firstWithinTie(vals, lo, scale)
}

// firstWithinTie is argminTie's second pass, given lo, the smallest of
// vals.
func firstWithinTie(vals []float64, lo, scale float64) int {
	if math.IsInf(lo, 1) {
		return -1
	}
	for i, v := range vals {
		if v <= lo+tieTol*scale {
			return i
		}
	}
	return -1
}

// quantify computes Abar_i^T y' for y' = theta_i * fhat (Section 5.3):
// the anomalous traffic on each affected link, averaged through the
// column-normalized routing matrix, which for a single flow reduces to
// fhat * (A_i^T A_i / (||A_i|| * sum(A_i))) = fhat / ||A_i|| for a 0/1
// column.
func (id *Identifier) quantify(flow int, fhat float64) float64 {
	fp := id.paths
	if fp.aSum[flow] == 0 {
		return 0
	}
	// Abar_i^T theta_i = (A_i^T A_i) / (sum(A_i) * ||A_i||)
	//                  = ||A_i||^2 / (sum * norm)
	return fhat * fp.aNorm[flow] * fp.aNorm[flow] / (fp.aSum[flow] * fp.aNorm[flow])
}

// DetectabilityThreshold returns the minimum number of anomalous bytes
// b_i in flow i that guarantees detection at the SPE threshold delta
// (Section 5.4): b_i > 2*delta / (||C~ theta_i|| * ||A_i||). delta is the
// square root of the Q-statistic limit (the limit applies to SPE, which
// is a squared norm). Flows aligned with the normal subspace have small
// ||C~ theta_i|| and thus a high threshold; an unroutable flow or one
// with a zero projection is undetectable and the threshold is +Inf.
func (id *Identifier) DetectabilityThreshold(flow int, delta float64) float64 {
	if flow < 0 || flow >= id.NumFlows() {
		panic(fmt.Sprintf("core: flow %d out of range %d", flow, id.NumFlows()))
	}
	if delta < 0 {
		panic(fmt.Sprintf("core: delta %v < 0", delta))
	}
	proj := math.Sqrt(id.thetaTildeSq[flow])
	if proj == 0 {
		return math.Inf(1)
	}
	return 2 * delta / (proj * id.paths.aNorm[flow])
}

// DetectabilityThresholds returns the sufficient detection threshold (in
// bytes) for every flow at the given SPE limit, with +Inf for flows the
// model cannot detect at all.
func (id *Identifier) DetectabilityThresholds(limit float64) []float64 {
	delta := math.Sqrt(limit)
	out := make([]float64, id.NumFlows())
	for f := range out {
		out[f] = id.DetectabilityThreshold(f, delta)
	}
	return out
}

// MultiResult is the outcome of multi-flow identification (Section 7.2).
type MultiResult struct {
	// Candidate is the index into the candidate set that best explains
	// the residual.
	Candidate int
	// Flows are the OD flows of that candidate.
	Flows []int
	// Magnitudes are the fitted per-flow intensities f (one per flow).
	Magnitudes []float64
	// Bytes are per-flow quantification estimates.
	Bytes []float64
	// ResidualSq is the remaining ||C~ y*||^2.
	ResidualSq float64
}

// IdentifyMulti generalizes identification to anomalies spanning several
// OD flows with different intensities: each candidate is a set of flows;
// theta_i becomes the matrix Theta_i with one normalized routing column
// per flow and f_i a vector fitted by least squares (Section 7.2,
// following Dunia & Qin). The theta~ columns are built on demand for the
// candidates' flows only. The candidate minimizing the remaining residual
// wins, with ties broken as in Identify. Candidates whose flows are all
// unroutable are skipped; if every candidate is skipped, Candidate is -1.
func (id *Identifier) IdentifyMulti(y []float64, candidates [][]int) MultiResult {
	yt := id.model.Residual(y)
	results := make([]MultiResult, len(candidates))
	resid := make([]float64, len(candidates))
	for ci, flows := range candidates {
		resid[ci] = math.Inf(1)
		var usable []int
		for _, f := range flows {
			if f < 0 || f >= id.NumFlows() {
				panic(fmt.Sprintf("core: candidate %d references flow %d out of range %d", ci, f, id.NumFlows()))
			}
			if id.paths.aNorm[f] != 0 {
				usable = append(usable, f)
			}
		}
		if len(usable) == 0 {
			continue
		}
		thetaT := mat.Zeros(len(yt), len(usable))
		for j, f := range usable {
			thetaT.SetCol(j, id.model.anomalous(id.paths.dense(f)))
		}
		fvec, err := mat.SolveLS(thetaT, yt)
		if err != nil {
			// Collinear candidate directions (e.g. identical routes);
			// skip rather than fabricate a solution.
			continue
		}
		r := mat.CloneVec(yt)
		for j := range usable {
			mat.AddScaled(r, -fvec[j], thetaT.Col(j))
		}
		resid[ci] = mat.SqNorm(r)
		results[ci] = MultiResult{Candidate: ci, Flows: usable, Magnitudes: fvec, ResidualSq: resid[ci]}
	}
	best := argminTie(resid, mat.SqNorm(yt))
	if best < 0 {
		return MultiResult{Candidate: -1, ResidualSq: math.Inf(1)}
	}
	res := results[best]
	res.Bytes = make([]float64, len(res.Flows))
	for j, f := range res.Flows {
		res.Bytes[j] = id.quantify(f, res.Magnitudes[j])
	}
	return res
}
