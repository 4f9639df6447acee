package core

import (
	"fmt"
	"math"

	"netanomaly/internal/mat"
)

// FDSketch maintains a Frequent-Directions sketch of the centered
// measurement stream: an ell x m row buffer B whose Gram matrix B^T B
// approximates the unnormalized covariance of everything inserted, with
// spectral error at most 2 * total energy / ell (Liberty 2013, Ghashami
// et al. 2016). Memory is O(ell * m) regardless of how many bins have
// streamed through — the property that lets a covariance-based detector
// run per view at a scale where even an m x m tracker's refit cost
// hurts, let alone a sliding window of raw bins.
//
// When the buffer fills, the sketch shrinks: it eigendecomposes the
// small ell x ell Gram B B^T, subtracts the median eigenvalue from
// every direction and rebuilds the buffer from the surviving ones — at
// least half the rows come back empty, so shrinks amortize to
// O(ell*m + ell^2) per inserted row. The energy removed by shrinking is
// tracked exactly (total inserted energy minus energy retained in B)
// and restored at model-build time as an isotropic correction
// alpha * I spread over all m directions — the "robust" FD covariance
// estimate — which keeps the residual spectrum positive so the
// Q-statistic threshold stays calibrated.
//
// Rows are centered against a running mean that evolves as bins are
// inserted; like every single-pass mean estimate this differs from
// retrospective centering by O(1/n) terms, which the seed history (n of
// at least m bins) makes negligible.
//
// The state is a fixed function of the rows inserted: every sum in a
// shrink runs in one order (see solve and mat.SymEigInPlace), so equal
// streams give byte-identical snapshots, models and alarms.
type FDSketch struct {
	m, ell int
	b      *mat.Dense // ell x m row buffer
	used   int        // occupied rows of b
	mean   []float64  // running per-link mean
	n      int        // total inserted rows
	energy float64    // exact sum of ||x - mean||^2 over inserted rows

	// Solve workspace, allocated by the first solve and reused by every
	// later one, so a steady-state Insert allocates nothing.
	gram       *mat.Dense // ell x ell: B B^T, then its eigenvectors, then the rebuild coefficients
	vals, work []float64  // eigenvalues and eigensolver scratch
	spare      *mat.Dense // ell x m: where a solve writes its rows; shrink swaps it with b
}

// NewFDSketch returns an empty sketch of ell rows over m links.
func NewFDSketch(m, ell int) (*FDSketch, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: sketch needs m > 0, got %d", m)
	}
	if ell < 4 {
		return nil, fmt.Errorf("core: sketch size %d too small (need >= 4)", ell)
	}
	return &FDSketch{
		m:    m,
		ell:  ell,
		b:    mat.Zeros(ell, m),
		mean: make([]float64, m),
	}, nil
}

// Size returns the sketch size ell.
func (s *FDSketch) Size() int { return s.ell }

// Occupancy returns how many of the ell rows hold data; it falls at
// every shrink.
func (s *FDSketch) Occupancy() int { return s.used }

// Insert absorbs one measurement vector: the running mean advances,
// the centered row lands in the buffer, and a full buffer triggers a
// shrink.
func (s *FDSketch) Insert(x []float64) error {
	if len(x) != s.m {
		return fmt.Errorf("core: sketch insert has %d links, want %d", len(x), s.m)
	}
	if s.used == s.ell {
		// The shrink that should have freed a row failed; try it again
		// rather than write past the buffer.
		if err := s.shrink(); err != nil {
			return err
		}
	}
	s.n++
	inv := 1 / float64(s.n)
	row := s.b.RowView(s.used)
	var norm2 float64
	for j, v := range x {
		s.mean[j] += (v - s.mean[j]) * inv
		c := v - s.mean[j]
		row[j] = c
		norm2 += c * c
	}
	s.energy += norm2
	s.used++
	if s.used == s.ell {
		return s.shrink()
	}
	return nil
}

// InsertAll absorbs every row of y.
func (s *FDSketch) InsertAll(y *mat.Dense) error {
	for i := 0; i < y.Rows(); i++ {
		if err := s.Insert(y.RowView(i)); err != nil {
			return err
		}
	}
	return nil
}

// leading returns the first rows*cols elements of d's storage as a rows x
// cols matrix — d itself when that is all of it, so solving a full buffer
// allocates no header.
func leading(d *mat.Dense, rows, cols int) *mat.Dense {
	if r, c := d.Dims(); r == rows && c == cols {
		return d
	}
	return mat.NewDense(rows, cols, d.RawData()[:rows*cols])
}

// solve eigendecomposes the Gram matrix G = B B^T of the occupied rows
// and returns its descending eigenvalues together with a matrix whose
// row i is weight(vals, i) * v_i^T B, the i-th right singular direction
// of B scaled by the caller's weight (||v_i^T B||^2 = vals[i]). The
// first zero weight ends the kept directions: k counts them and every
// later row is zero. All linear algebra is ell-sized; m enters only
// through the two rectangular products. The results alias the sketch's
// workspace and are valid until the next solve.
//
// Both products keep every floating-point sum in a fixed order, so the
// sketch state is a pure function of the inserted rows: each Gram entry
// is summed as mat.Dot sums it, and each rebuilt row as mat.MulInto's
// kernel sums it (gramInto, rebuildInto).
func (s *FDSketch) solve(weight func(vals []float64, i int) float64) (vals []float64, rows *mat.Dense, k int, err error) {
	if s.gram == nil {
		s.gram, s.spare = mat.Zeros(s.ell, s.ell), mat.Zeros(s.ell, s.m)
		s.vals, s.work = make([]float64, s.ell), make([]float64, s.ell)
	}
	u := s.used
	b := s.b.RawData()[:u*s.m]
	gram := leading(s.gram, u, u)
	g := gram.RawData()
	gramInto(g, b, u, s.m)
	vals = s.vals[:u]
	if err := mat.SymEigInPlace(gram, vals, s.work[:u]); err != nil {
		return nil, nil, 0, err
	}
	// Eigenvector rows become coefficient rows in place. B has rank at
	// most m, so directions past m are round-off whatever their value.
	for k < u && k < s.m {
		w := weight(vals, k)
		if w == 0 {
			break
		}
		mat.ScaleVec(gram.RowView(k), w)
		k++
	}
	rows = leading(s.spare, u, s.m)
	rebuildInto(rows.RawData(), g, b, k, u, s.m)
	return vals, rows, k, nil
}

// gramInto writes the u x u Gram matrix of the u rows of length m in b
// into g. Row i meets four rows per pass with four independent
// accumulators, and each accumulator sums in index order, so every entry
// is bit-identical to mat.Dot of its two rows. A row's last pass starts
// at u-4 and may rewrite entries already written, as row j's or an
// earlier pass's: products commute, so a dot product has the same bits
// whichever row leads.
func gramInto(g, b []float64, u, m int) {
	if u < 4 {
		for i := 0; i < u; i++ {
			for j := i; j < u; j++ {
				d := mat.Dot(b[i*m:(i+1)*m], b[j*m:(j+1)*m])
				g[i*u+j], g[j*u+i] = d, d
			}
		}
		return
	}
	for i := 0; i < u; i++ {
		ri := b[i*m : (i+1)*m]
		for j := i; j < u; j += 4 {
			j = min(j, u-4)
			s0, s1, s2, s3 := dot4(ri, b[j*m:(j+1)*m], b[(j+1)*m:(j+2)*m], b[(j+2)*m:(j+3)*m], b[(j+3)*m:(j+4)*m])
			g[i*u+j], g[j*u+i] = s0, s0
			g[i*u+j+1], g[(j+1)*u+i] = s1, s1
			g[i*u+j+2], g[(j+2)*u+i] = s2, s2
			g[i*u+j+3], g[(j+3)*u+i] = s3, s3
		}
	}
}

// dot4 returns the dot products of x with y0..y3, each summed in index
// order as mat.Dot sums it. It is a function of its own because written
// inline in gramInto the loop ran out of registers and spilled its
// counter to the stack.
func dot4(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	y0, y1, y2, y3 = y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)]
	for k, v := range x {
		s0 += v * y0[k]
		s1 += v * y1[k]
		s2 += v * y2[k]
		s3 += v * y3[k]
	}
	return s0, s1, s2, s3
}

// rebuildInto writes dst = C B for the u x u coefficient matrix c, whose
// rows from k on are zero, and the finite u x m matrix b: it clears dst
// and computes only its first k rows. Each row sums four-term groups in
// the order mat.MulInto's kernel does, so the result is bit-identical to
// mat.MulInto over all u rows. That kernel skips all-zero groups; here
// they are added, which leaves the bits alone because a sum started at
// +0 never becomes -0.
func rebuildInto(dst, c, b []float64, k, u, m int) {
	clear(dst[:u*m])
	for i := 0; i < k; i++ {
		ci := c[i*u : (i+1)*u]
		di := dst[i*m : (i+1)*m]
		l := 0
		for ; l+4 <= u; l += 4 {
			a0, a1, a2, a3 := ci[l], ci[l+1], ci[l+2], ci[l+3]
			b0 := b[l*m : (l+1)*m][:len(di)]
			b1 := b[(l+1)*m : (l+2)*m][:len(di)]
			b2 := b[(l+2)*m : (l+3)*m][:len(di)]
			b3 := b[(l+3)*m : (l+4)*m][:len(di)]
			for j := range di {
				di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; l < u; l++ {
			mat.AddScaled(di, ci[l], b[l*m:(l+1)*m])
		}
	}
}

// shedMedian is the Frequent-Directions shrink weight: subtract the
// median eigenvalue delta from every direction's energy, so direction i
// survives as sqrt(lambda_i - delta) * v_i and at least half are shed.
func shedMedian(vals []float64, i int) float64 {
	delta := math.Max(vals[len(vals)/2], 0)
	if vals[i] <= delta {
		return 0
	}
	return math.Sqrt((vals[i] - delta) / vals[i])
}

// unitDirection weights direction i to unit length, ending the spectrum
// where it falls to round-off of the leading eigenvalue.
func unitDirection(vals []float64, i int) float64 {
	if vals[i] <= 1e-12*vals[0] || vals[i] <= 0 {
		return 0
	}
	return 1 / math.Sqrt(vals[i])
}

// shrink runs when the buffer is full and at least halves its
// occupancy: the shed-corrected directions land in the spare buffer,
// which then trades places with the old one.
func (s *FDSketch) shrink() error {
	_, _, k, err := s.solve(shedMedian)
	if err != nil {
		return fmt.Errorf("core: sketch shrink: %w", err)
	}
	s.b, s.spare = s.spare, s.b
	s.used = k
	return nil
}

// Snapshot returns an independent copy for a model solve outside the
// detector's lock.
func (s *FDSketch) Snapshot() *FDSketch {
	return &FDSketch{
		m:      s.m,
		ell:    s.ell,
		b:      s.b.Clone(),
		used:   s.used,
		mean:   mat.CloneVec(s.mean),
		n:      s.n,
		energy: s.energy,
	}
}

// PCA solves the sketch's small eigenproblem and assembles a PCA over
// all m link directions: the sketch's surviving directions carry their
// (shed-corrected) variances, and the energy lost to shrinking returns
// as an isotropic alpha*I term so the tail of the spectrum — the
// residual subspace the Q-statistic integrates over — stays positive.
// The second result is how many leading directions the sketch actually
// spans; a model rank beyond it would project onto zero columns.
func (s *FDSketch) PCA() (*PCA, int, error) {
	if s.n < 2 {
		return nil, 0, ErrTooFewSamples
	}
	if s.used == 0 {
		return nil, 0, fmt.Errorf("core: sketch holds no directions")
	}
	vals, dirs, k, err := s.solve(unitDirection)
	if err != nil {
		return nil, 0, fmt.Errorf("core: sketch eigendecomposition: %w", err)
	}
	if k == 0 {
		return nil, 0, fmt.Errorf("core: sketch spectrum collapsed")
	}
	var retained float64
	for _, v := range vals {
		if v > 0 {
			retained += v
		}
	}
	alpha := (s.energy - retained) / float64(s.m)
	if alpha < 0 {
		alpha = 0 // exact-regime round-off: nothing was shed
	}
	denom := float64(s.n - 1)
	comps := mat.Zeros(s.m, s.m)
	cd := comps.RawData()
	variances := make([]float64, s.m)
	for i := range variances {
		variances[i] = alpha / denom
	}
	for i := 0; i < k; i++ {
		for r, v := range dirs.RowView(i) {
			cd[r*s.m+i] = v
		}
		variances[i] = (vals[i] + alpha) / denom
	}
	p := &PCA{
		Components:  comps,
		Variances:   variances,
		Projections: mat.Zeros(1, s.m), // no temporal view, like CovTracker
		Means:       mat.CloneVec(s.mean),
		SampleCount: s.n,
	}
	return p, k, nil
}

// SketchConfig configures NewSketchDetector.
type SketchConfig struct {
	// SketchSize is ell, the number of sketch rows. Memory is O(ell*m)
	// and a refit costs O(ell^2*m + ell^3) — both independent of how
	// long the stream runs. Detection agreement with the exact-
	// covariance backends needs ell >= 2*rank (the shrink step always
	// preserves the top ell/2 directions); 0 picks max(8, 4*rank) from
	// the seed fit's resolved rank, or restores a snapshot's size.
	SketchSize int
	// RefitEvery marks a model rebuild from the sketch due after this
	// many processed bins, which Settle (or else the next ProcessBatch)
	// runs; 0 disables automatic rebuilds.
	RefitEvery int
	// DriftTol gates automatic rebuilds exactly as in
	// IncrementalConfig: swap only when the residual projector moved at
	// least this far (Frobenius). 0 swaps every interval.
	DriftTol float64
	// Options configure the diagnoser (confidence, sigma, fixed rank).
	Options Options
}

// NewSketchDetector returns the "sketch" backend for the links of
// routing matrix a, unseeded (see NewOnlineDetector): an OnlineDetector
// whose estimate is an FDSketch instead of a window or an m x m tracker,
// so per-view memory is O(ell*m) and a rebuild solves an ell-sized
// eigenproblem instead of an m x m one — the cheapest refit in the
// family, bought with a bounded spectral error that detection absorbs
// (the normal subspace needs only the top-rank directions, which FD
// preserves best). Seed runs a full batch fit on history (bins x links)
// like the other two, so all three start from the same model, and
// retains the rank resolved there.
func NewSketchDetector(a *mat.Dense, cfg SketchConfig) (*OnlineDetector, error) {
	e := &sketchEstimator{size: cfg.SketchSize, ell: cfg.SketchSize}
	return newDetector(e, a, cfg.Options, cfg.RefitEvery, true, cfg.DriftTol)
}

// sketchEstimator is the Frequent-Directions estimate and the rank its
// models are built at. size is the configured sketch size (0: resolved
// from the seed's rank, or taken from a snapshot); ell starts as size
// until the first reseed or restore resolves it, and is fixed from then
// on. Absorbed rows wait in pending until settle inserts them: the
// inserts, with their shrink eigensolves, are most of the backend's
// per-bin CPU.
type sketchEstimator struct {
	size, ell int
	sk        *FDSketch
	rank      int
	pending   pendingRows
}

func (e *sketchEstimator) kind() byte { return SnapKindSketch }

func (e *sketchEstimator) absorb(y *mat.Dense, skip []bool) { e.pending.add(y, skip) }

func (e *sketchEstimator) settle() error { return e.pending.fold(e.sk.InsertAll) }

func (e *sketchEstimator) fit(Options) func() (*PCA, int, error) {
	sk, rank := e.sk.Snapshot(), e.rank
	return func() (*PCA, int, error) {
		p, span, err := sk.PCA()
		if err == nil && rank > span {
			err = fmt.Errorf("core: sketch spans %d directions, model rank is %d", span, rank)
		}
		return p, rank, err
	}
}

func (e *sketchEstimator) reseed(history *mat.Dense, opts Options) (estimator, *PCA, int, error) {
	p, rank, err := fitRank(history, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	ell := e.ell
	if ell == 0 {
		ell = max(8, 4*rank)
	}
	if ell < 2*rank {
		return nil, nil, 0, fmt.Errorf("core: sketch size %d < 2*rank (rank %d): shrinking would discard normal-subspace directions", ell, rank)
	}
	sk, err := NewFDSketch(history.Cols(), ell)
	if err == nil {
		err = sk.InsertAll(history)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return &sketchEstimator{size: e.size, ell: ell, sk: sk, rank: rank}, p, rank, nil
}

// encode writes the whole buffer (all ell rows, occupancy, running mean,
// inserted count, inserted energy) and the retained rank.
func (e *sketchEstimator) encode(sw *SnapshotWriter) {
	sw.Int(e.ell)
	sw.Matrix(e.sk.b)
	sw.Int(e.sk.used)
	sw.Floats(e.sk.mean)
	sw.Int(e.sk.n)
	sw.F64(e.sk.energy)
	sw.Int(e.rank)
}

// decode requires the snapshot's sketch size to match the configured
// one, when one is configured — the buffer shape is construction
// configuration — and otherwise takes it from the snapshot, up to the
// largest size a seed resolves on these links, max(8, 4*(links-1)): a
// larger one was configured, and its ell x ell shrinks are not this
// detector's to allocate. The size must be one a seed could have built
// (at least 4 and twice the retained rank), the occupancy must leave the
// free row every Insert writes into, and the buffer, mean and energy
// must be finite, the energy non-negative.
func (e *sketchEstimator) decode(sr *SnapshotReader, links int) (estimator, error) {
	ell := sr.Int()
	if sr.Err() == nil && e.size != 0 && ell != e.size {
		return nil, SnapshotMismatchf("snapshot sketch size %d, detector uses %d", ell, e.size)
	}
	if most := max(8, 4*(links-1)); sr.Err() == nil && e.size == 0 && ell > most {
		return nil, SnapshotMismatchf("snapshot sketch size %d was configured: a seed on %d links resolves at most %d", ell, links, most)
	}
	b := sr.Matrix()
	used := sr.NonNegInt()
	mean := sr.Floats()
	n := sr.NonNegInt()
	energy := sr.F64()
	rank := sr.NonNegInt()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if rank < 1 || rank >= links {
		return nil, snapshotFormatf("retained rank %d out of [1, %d]", rank, links-1)
	}
	if ell < 4 || ell < 2*rank {
		return nil, snapshotFormatf("sketch size %d below max(4, 2*rank) at rank %d", ell, rank)
	}
	if b == nil || b.Rows() != ell || b.Cols() != links {
		return nil, snapshotFormatf("sketch buffer is not %dx%d", ell, links)
	}
	if used >= ell {
		return nil, snapshotFormatf("sketch occupancy %d leaves no free row of %d", used, ell)
	}
	if len(mean) != links {
		return nil, snapshotFormatf("sketch mean has %d entries, want %d", len(mean), links)
	}
	// A non-finite value would fail every later shrink and refit, and a
	// negative energy cannot come from a sum of squares.
	if !mat.AllFinite(b.RawData()) || !mat.AllFinite(mean) {
		return nil, snapshotFormatf("sketch buffer or mean has a non-finite value")
	}
	if !(0 <= energy && energy <= math.MaxFloat64) {
		return nil, snapshotFormatf("sketch energy %v out of [0, MaxFloat64]", energy)
	}
	sk := &FDSketch{m: links, ell: ell, b: b, used: used, mean: mean, n: n, energy: energy}
	return &sketchEstimator{size: e.size, ell: ell, sk: sk, rank: rank}, nil
}
