package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// isOrthonormalCols reports whether the columns of m are orthonormal to tol.
func isOrthonormalCols(m *Dense, tol float64) bool {
	_, c := m.Dims()
	g := m.Gram()
	return EqualApprox(g, Identity(c), tol)
}

func TestQRReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 4 + rng.Intn(8)
		cols := 2 + rng.Intn(rows-1)
		a := randomDense(rng, rows, cols)
		q, r := QR(a)
		return EqualApprox(Mul(q, r), a, 1e-9) && isOrthonormalCols(q, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDense(rng, 8, 5)
	_, r := QR(a)
	for i := 1; i < 5; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %v, want 0 below diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestQRSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 5, 5)
	q, r := QR(a)
	if !EqualApprox(Mul(q, r), a, 1e-9) {
		t.Fatal("square QR reconstruction failed")
	}
}

func TestQRRowsLessThanColsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rows < cols")
		}
	}()
	QR(Zeros(2, 3))
}

func TestSolveLSExact(t *testing.T) {
	// Square, well-conditioned: solution must be exact.
	a := NewDense(2, 2, []float64{2, 1, 1, 3})
	b := []float64{5, 10}
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := MulVec(a, x)
	if !VecEqualApprox(got, b, 1e-10) {
		t.Fatalf("SolveLS residual: got %v want %v", got, b)
	}
}

func TestSolveLSOverdetermined(t *testing.T) {
	// Overdetermined consistent system: x=[1,2] recovered exactly.
	a := NewDense(4, 2, []float64{
		1, 0,
		0, 1,
		1, 1,
		2, -1,
	})
	xTrue := []float64{1, 2}
	b := MulVec(a, xTrue)
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(x, xTrue, 1e-10) {
		t.Fatalf("SolveLS = %v want %v", x, xTrue)
	}
}

func TestSolveLSNormalEquationsProperty(t *testing.T) {
	// Least-squares solution must satisfy A^T(Ax - b) = 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 8, 3)
		b := make([]float64, 8)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLS(a, b)
		if err != nil {
			return false
		}
		resid := SubVec(MulVec(a, x), b)
		grad := MulTVec(a, resid)
		return Norm2(grad) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLSSingular(t *testing.T) {
	a := NewDense(3, 2, []float64{1, 2, 2, 4, 3, 6}) // rank 1
	_, err := SolveLS(a, []float64{1, 2, 3})
	if err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Dense {
	a := randomDense(rng, n, n)
	return Add(a, a.T())
}

func TestSymEigReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomSymmetric(rng, n)
		vals, vecs, err := SymEig(a)
		if err != nil {
			return false
		}
		// a == V diag(vals) V^T
		d := Zeros(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		recon := Mul(Mul(vecs, d), vecs.T())
		return EqualApprox(recon, a, 1e-8*(1+a.MaxAbs())) && isOrthonormalCols(vecs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSymmetric(rng, 8)
	vals, _, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestSymEigKnownValues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewDense(2, 2, []float64{2, 1, 1, 2})
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v want [3 1]", vals)
	}
	// A v = lambda v for each column.
	for k := 0; k < 2; k++ {
		v := vecs.Col(k)
		av := MulVec(a, v)
		for i := range av {
			if math.Abs(av[i]-vals[k]*v[i]) > 1e-10 {
				t.Fatalf("A v != lambda v for k=%d", k)
			}
		}
	}
}

func TestSymEigEigenvectorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		a := randomSymmetric(rng, n)
		vals, vecs, err := SymEig(a)
		if err != nil {
			return false
		}
		for k := 0; k < n; k++ {
			v := vecs.Col(k)
			av := MulVec(a, v)
			for i := range av {
				if math.Abs(av[i]-vals[k]*v[i]) > 1e-7*(1+a.MaxAbs()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigRejectsAsymmetric(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	_, _, err := SymEig(a)
	if err != ErrNotSymmetric {
		t.Fatalf("expected ErrNotSymmetric, got %v", err)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := Zeros(3, 3)
	a.Set(0, 0, 5)
	a.Set(1, 1, -2)
	a.Set(2, 2, 1)
	vals, _, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 1, -2}
	if !VecEqualApprox(vals, want, 1e-12) {
		t.Fatalf("vals = %v want %v", vals, want)
	}
}

func TestSVDReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 5 + rng.Intn(12)
		cols := 2 + rng.Intn(4)
		a := randomDense(rng, rows, cols)
		u, s, v, err := SVD(a)
		if err != nil {
			return false
		}
		// a == U diag(s) V^T
		us := u.Clone()
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				us.Set(i, j, us.At(i, j)*s[j])
			}
		}
		return EqualApprox(Mul(us, v.T()), a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomDense(rng, 20, 6)
	u, s, v, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !isOrthonormalCols(u, 1e-9) {
		t.Fatal("U columns not orthonormal")
	}
	if !isOrthonormalCols(v, 1e-9) {
		t.Fatal("V columns not orthonormal")
	}
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", s)
		}
	}
	for _, sv := range s {
		if sv < 0 {
			t.Fatalf("negative singular value: %v", s)
		}
	}
}

func TestSVDMatchesEig(t *testing.T) {
	// Singular values of A are sqrt of eigenvalues of A^T A.
	rng := rand.New(rand.NewSource(31))
	a := randomDense(rng, 15, 5)
	_, s, _, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := SymEig(a.Gram())
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		ev := vals[i]
		if ev < 0 {
			ev = 0
		}
		if math.Abs(s[i]-math.Sqrt(ev)) > 1e-8*(1+s[0]) {
			t.Fatalf("s[%d]=%v but sqrt(eig)=%v", i, s[i], math.Sqrt(ev))
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	u, s, v, err := SVD(Zeros(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range s {
		if sv != 0 {
			t.Fatalf("zero matrix singular values = %v", s)
		}
	}
	if u.Rows() != 4 || v.Rows() != 3 {
		t.Fatal("zero matrix SVD shape wrong")
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Two identical columns: second singular value ~0, reconstruction holds.
	a := NewDense(4, 2, []float64{1, 1, 2, 2, 3, 3, 4, 4})
	u, s, v, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if s[1] > 1e-10 {
		t.Fatalf("expected rank-1, got singular values %v", s)
	}
	us := u.Clone()
	for j := 0; j < 2; j++ {
		for i := 0; i < 4; i++ {
			us.Set(i, j, us.At(i, j)*s[j])
		}
	}
	if !EqualApprox(Mul(us, v.T()), a, 1e-9) {
		t.Fatal("rank-deficient reconstruction failed")
	}
}

func TestSVDLargeThin(t *testing.T) {
	// Shape of the paper's measurement matrices: 1008 x 49.
	rng := rand.New(rand.NewSource(99))
	a := randomDense(rng, 1008, 49)
	u, s, v, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	us := u.Clone()
	for j := 0; j < 49; j++ {
		for i := 0; i < 1008; i++ {
			us.Set(i, j, us.At(i, j)*s[j])
		}
	}
	diff := Sub(Mul(us, v.T()), a)
	if diff.Frobenius() > 1e-7*a.Frobenius() {
		t.Fatalf("1008x49 reconstruction error %v", diff.Frobenius())
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if SqNorm(x) != 25 {
		t.Fatalf("SqNorm = %v", SqNorm(x))
	}
	if Dot(x, []float64{1, 2}) != 11 {
		t.Fatal("Dot wrong")
	}
	y := CloneVec(x)
	AddScaled(y, 2, []float64{1, 1})
	if y[0] != 5 || y[1] != 6 {
		t.Fatalf("AddScaled = %v", y)
	}
	n := Normalize(y)
	if math.Abs(Norm2(y)-1) > 1e-12 || math.Abs(n-math.Sqrt(61)) > 1e-12 {
		t.Fatalf("Normalize: norm %v vec %v", n, y)
	}
	z := make([]float64, 2)
	if Normalize(z) != 0 {
		t.Fatal("Normalize of zero vector must return 0")
	}
	if !VecEqualApprox(SubVec([]float64{5, 6}, []float64{1, 2}), []float64{4, 4}, 0) {
		t.Fatal("SubVec wrong")
	}
	if !VecEqualApprox(AddVec([]float64{5, 6}, []float64{1, 2}), []float64{6, 8}, 0) {
		t.Fatal("AddVec wrong")
	}
}
