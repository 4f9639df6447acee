package mat

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// This file keeps the decompositions this package shipped before the
// contiguous kernels — cyclic-Jacobi SymEig and the At/Set one-sided
// Jacobi SVD — verbatim, as reference implementations. SVD must agree
// with its oracle bit for bit (every fitted model, threshold and alarm
// hangs off it); SymEig is a different algorithm and must agree to
// round-off of the largest eigenvalue. AssertSVDMatchesOracle is exported
// for the external test package, which may import the traffic generator.

const jacobiMaxSweeps = 60

// jacobiSymEig is the former SymEig.
func jacobiSymEig(a *Dense) (vals []float64, vecs *Dense, err error) {
	n, c := a.Dims()
	if n != c {
		panic("mat: SymEig requires a square matrix")
	}
	scale := a.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > symTol*scale {
				return nil, nil, ErrNotSymmetric
			}
		}
	}
	w := a.Clone()
	v := Identity(n)
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		// Off-diagonal Frobenius norm: converged when negligible.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += 2 * w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(off) <= 1e-14*scale*float64(n) {
			return jacobiExtractEig(w, v)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Rotation angle per Golub & Van Loan.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				cth := 1 / math.Sqrt(1+t*t)
				sth := t * cth
				jacobiRotateSym(w, p, q, cth, sth)
				jacobiRotateCols(v, p, q, cth, sth)
			}
		}
	}
	return nil, nil, ErrNoConvergence
}

// jacobiRotateSym applies the Jacobi rotation J^T w J in place, where J
// is the Givens rotation over (p,q) with cosine c and sine s.
func jacobiRotateSym(w *Dense, p, q int, c, s float64) {
	n := w.Rows()
	for i := 0; i < n; i++ {
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj := w.At(p, j)
		wqj := w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
}

// jacobiRotateCols applies the rotation to columns p,q of v (v = v*J).
func jacobiRotateCols(v *Dense, p, q int, c, s float64) {
	n := v.Rows()
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func jacobiExtractEig(w, v *Dense) ([]float64, *Dense, error) {
	n := w.Rows()
	type pair struct {
		val float64
		idx int
	}
	ps := make([]pair, n)
	for i := 0; i < n; i++ {
		ps[i] = pair{w.At(i, i), i}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].val > ps[j].val })
	vals := make([]float64, n)
	vecs := Zeros(n, n)
	for k, p := range ps {
		vals[k] = p.val
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, p.idx))
		}
	}
	return vals, vecs, nil
}

// jacobiSVD is the former SVD.
func jacobiSVD(a *Dense) (u *Dense, s []float64, v *Dense, err error) {
	rows, cols := a.Dims()
	if rows < cols {
		panic("mat: SVD requires rows >= cols")
	}
	w := a.Clone()
	v = Identity(cols)
	scale := w.MaxAbs()
	if scale == 0 {
		// Zero matrix: all singular values zero.
		return Zeros(rows, cols), make([]float64, cols), v, nil
	}
	const tol = 1e-14
	converged := false
	for sweep := 0; sweep < svdMaxSweeps && !converged; sweep++ {
		converged = true
		for p := 0; p < cols-1; p++ {
			for q := p + 1; q < cols; q++ {
				// alpha = ||w_p||^2, beta = ||w_q||^2, gamma = w_p . w_q
				var alpha, beta, gamma float64
				for i := 0; i < rows; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				converged = false
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < rows; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-sn*wq)
					w.Set(i, q, sn*wp+c*wq)
				}
				jacobiRotateCols(v, p, q, c, sn)
			}
		}
	}
	if !converged {
		return nil, nil, nil, ErrNoConvergence
	}
	// Extract singular values and left vectors, then sort descending.
	type col struct {
		sv  float64
		idx int
	}
	csort := make([]col, cols)
	for j := 0; j < cols; j++ {
		var n2 float64
		for i := 0; i < rows; i++ {
			n2 += w.At(i, j) * w.At(i, j)
		}
		csort[j] = col{math.Sqrt(n2), j}
	}
	sort.Slice(csort, func(i, j int) bool { return csort[i].sv > csort[j].sv })
	u = Zeros(rows, cols)
	s = make([]float64, cols)
	vOut := Zeros(cols, cols)
	for k, cs := range csort {
		s[k] = cs.sv
		if cs.sv > 0 {
			inv := 1 / cs.sv
			for i := 0; i < rows; i++ {
				u.Set(i, k, w.At(i, cs.idx)*inv)
			}
		}
		for i := 0; i < cols; i++ {
			vOut.Set(i, k, v.At(i, cs.idx))
		}
	}
	return u, s, vOut, nil
}

// sameBits reports the first position at which x and y differ in their
// IEEE-754 bit patterns, or -1 when they are identical.
func sameBits(x, y []float64) int {
	if len(x) != len(y) {
		return 0
	}
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// AssertSVDMatchesOracle fails the test unless SVD(a) and jacobiSVD(a)
// return bit-identical U, s and V.
func AssertSVDMatchesOracle(t *testing.T, name string, a *Dense) {
	t.Helper()
	u, s, v, err := SVD(a)
	ou, os, ov, oerr := jacobiSVD(a)
	if err != nil || oerr != nil {
		t.Fatalf("%s: SVD err %v, oracle err %v", name, err, oerr)
	}
	if i := sameBits(s, os); i >= 0 {
		t.Fatalf("%s: s[%d] = %v, oracle %v", name, i, s[i], os[i])
	}
	if i := sameBits(u.RawData(), ou.RawData()); i >= 0 {
		t.Fatalf("%s: U differs from the oracle at element %d", name, i)
	}
	if i := sameBits(v.RawData(), ov.RawData()); i >= 0 {
		t.Fatalf("%s: V differs from the oracle at element %d", name, i)
	}
}

func TestSVDBitIdenticalToJacobiOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	for _, shape := range [][2]int{{50, 7}, {200, 41}, {1008, 120}} {
		if testing.Short() && shape[1] > 100 {
			continue // the oracle takes seconds at 120 columns
		}
		AssertSVDMatchesOracle(t, "random", randomDense(rng, shape[0], shape[1]))
	}
	// Rank-deficient: a duplicated column, a zero column, and a column
	// that is a combination of two others.
	a := randomDense(rng, 60, 8)
	for i := 0; i < 60; i++ {
		a.Set(i, 3, a.At(i, 1))
		a.Set(i, 5, 0)
		a.Set(i, 7, 2*a.At(i, 0)-a.At(i, 2))
	}
	AssertSVDMatchesOracle(t, "rank-deficient", a)
	AssertSVDMatchesOracle(t, "zero", Zeros(9, 4))
	AssertSVDMatchesOracle(t, "single column", randomDense(rng, 12, 1))
}

// checkSymEigAgainstOracle asserts the SymEig contract on a: A is
// reconstructed within 1e-12*||A||, eigenvectors are orthonormal, values
// descend, and they match the Jacobi oracle within 1e-10*lambda_1.
func checkSymEigAgainstOracle(t *testing.T, name string, a *Dense) {
	t.Helper()
	n := a.Rows()
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	norm := a.Frobenius()
	scaled := vecs.Clone() // V diag(vals)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			scaled.Set(i, j, scaled.At(i, j)*vals[j])
		}
	}
	if resid := Sub(Mul(scaled, vecs.T()), a).Frobenius(); resid > 1e-12*norm {
		t.Fatalf("%s: reconstruction residual %g exceeds 1e-12 * ||A|| = %g", name, resid, 1e-12*norm)
	}
	if !isOrthonormalCols(vecs, 1e-12) {
		t.Fatalf("%s: eigenvectors are not orthonormal", name)
	}
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1] {
			t.Fatalf("%s: eigenvalues not descending at %d: %v", name, i, vals)
		}
	}
	want, _, err := jacobiSymEig(a)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	tol := 1e-10 * math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
	for i := range vals {
		if math.Abs(vals[i]-want[i]) > tol {
			t.Fatalf("%s: eigenvalue %d = %v, oracle %v (tol %g)", name, i, vals[i], want[i], tol)
		}
	}
}

func TestSymEigAgainstJacobiOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1204))
	for _, n := range []int{2, 3, 7, 28, 41, 120} {
		checkSymEigAgainstOracle(t, "random symmetric", randomSymmetric(rng, n))
		checkSymEigAgainstOracle(t, "random PSD", randomDense(rng, 2*n, n).Gram())
	}
	checkSymEigAgainstOracle(t, "zero", Zeros(6, 6))
	checkSymEigAgainstOracle(t, "1x1", NewDense(1, 1, []float64{-3.5}))
	checkSymEigAgainstOracle(t, "identity", Identity(9))

	// Repeated eigenvalues: Q diag(5,5,5,2,2,-1,-1,-1) Q^T.
	q, _ := QR(randomDense(rng, 8, 8))
	d := Zeros(8, 8)
	for i, v := range []float64{5, 5, 5, 2, 2, -1, -1, -1} {
		d.Set(i, i, v)
	}
	rep := Mul(Mul(q, d), q.T())
	rep = Add(rep, rep.T()) // symmetric to the last bit
	checkSymEigAgainstOracle(t, "repeated", rep)

	// A Frequent-Directions Gram B B^T whose buffer has empty rows: zero
	// rows and columns in the middle of and after the occupied block.
	b := randomDense(rng, 28, 120)
	for _, i := range []int{5, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27} {
		for j := 0; j < 120; j++ {
			b.Set(i, j, 0)
		}
	}
	checkSymEigAgainstOracle(t, "sketch Gram", b.T().Gram())

	// A link covariance at the load scale of a backbone: ~1e12 bytes
	// per bin, so entries near 1e24 over a 1008-bin window.
	load := randomDense(rng, 1008, 41)
	for i := 0; i < 1008; i++ {
		for j := 0; j < 41; j++ {
			load.Set(i, j, 1e12*(1+0.1*load.At(i, j))*(1+float64(j%5)))
		}
	}
	load.CenterColumns()
	checkSymEigAgainstOracle(t, "1e12-byte covariance", load.Gram())

	// Asymmetry inside symTol is accepted.
	near := randomSymmetric(rng, 6)
	near.Set(4, 1, near.At(4, 1)*(1+1e-11))
	if _, _, err := SymEig(near); err != nil {
		t.Fatalf("asymmetry below tolerance rejected: %v", err)
	}
}

func TestSymEigRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	almost := randomSymmetric(rng, 12)
	almost.Set(9, 2, almost.At(9, 2)+1e-6*almost.MaxAbs())
	if _, _, err := SymEig(almost); !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("almost-symmetric input: got %v, want ErrNotSymmetric", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{0, 0}, {3, 3}, {2, 5}} {
			a := randomSymmetric(rng, 8)
			a.Set(at[0], at[1], bad)
			a.Set(at[1], at[0], bad)
			done := make(chan error, 1)
			go func() {
				_, _, err := SymEig(a)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrNoConvergence) && !errors.Is(err, ErrNotSymmetric) {
					t.Fatalf("%v at %v: got %v, want a classified error", bad, at, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%v at %v: SymEig did not return", bad, at)
			}
		}
	}
}

func TestSymEigInPlaceAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomDense(rng, 60, 28).Gram()
	a := src.Clone()
	vals, work := make([]float64, 28), make([]float64, 28)
	if n := testing.AllocsPerRun(20, func() {
		copy(a.RawData(), src.RawData())
		if err := SymEigInPlace(a, vals, work); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SymEigInPlace allocates %v times per call, want 0", n)
	}
	// Rows of a are the eigenvectors: A v = lambda v.
	for k, lambda := range vals {
		v := a.Row(k)
		for i, av := range MulVec(src, v) {
			if math.Abs(av-lambda*v[i]) > 1e-12*vals[0] {
				t.Fatalf("row %d is not an eigenvector for %v", k, lambda)
			}
		}
	}
}
