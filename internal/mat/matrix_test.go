package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := Zeros(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewDenseDims(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r, c := m.Dims()
	if r != 2 || c != 3 {
		t.Fatalf("Dims() = %d,%d want 2,3", r, c)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatalf("element access wrong: %v %v", m.At(0, 0), m.At(1, 2))
	}
}

func TestNewDenseBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDense(2, 2, []float64{1, 2, 3})
}

func TestNewDenseBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimensions")
		}
	}()
	NewDense(0, 3, nil)
}

func TestAtOutOfRange(t *testing.T) {
	m := Zeros(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out of range index")
		}
	}()
	m.At(2, 0)
}

func TestSetGet(t *testing.T) {
	m := Zeros(3, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v want 7.5", got)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4) at (%d,%d) = %v want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestRowColViews(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 100 // Row is a copy; m must be unchanged.
	if m.At(1, 0) != 4 {
		t.Fatal("Row must return a copy")
	}
	rv := m.RowView(1)
	rv[0] = 100 // RowView aliases.
	if m.At(1, 0) != 100 {
		t.Fatal("RowView must alias the matrix")
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Fatalf("Col(2) = %v", col)
	}
}

func TestSetRowSetCol(t *testing.T) {
	m := Zeros(2, 3)
	m.SetRow(0, []float64{1, 2, 3})
	m.SetCol(2, []float64{9, 8})
	if m.At(0, 0) != 1 || m.At(0, 2) != 9 || m.At(1, 2) != 8 {
		t.Fatalf("SetRow/SetCol result wrong: %v", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T() dims = %d,%d", r, c)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T() values wrong: %v", tr)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomDense(rng, 3+rng.Intn(5), 2+rng.Intn(5))
		return EqualApprox(m, m.T().T(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMulSmall(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := NewDense(2, 2, []float64{58, 64, 139, 154})
	if !EqualApprox(c, want, 1e-12) {
		t.Fatalf("Mul = %v want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomDense(rng, 4, 4)
		return EqualApprox(Mul(m, Identity(4)), m, 1e-12) &&
			EqualApprox(Mul(Identity(4), m), m, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 3, 4)
		b := randomDense(rng, 4, 5)
		c := randomDense(rng, 5, 2)
		return EqualApprox(Mul(Mul(a, b), c), Mul(a, Mul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 4, 3)
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		xm := NewDense(3, 1, CloneVec(x))
		got := MulVec(a, x)
		want := Mul(a, xm)
		for i, v := range got {
			if math.Abs(v-want.At(i, 0)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulTVecMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 4, 3)
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return VecEqualApprox(MulTVec(a, x), MulVec(a.T(), x), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSub(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	b := NewDense(2, 2, []float64{5, 6, 7, 8})
	if !EqualApprox(Add(a, b), NewDense(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatal("Add wrong")
	}
	if !EqualApprox(Sub(b, a), NewDense(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Fatal("Sub wrong")
	}
	// Originals unchanged.
	if a.At(0, 0) != 1 || b.At(0, 0) != 5 {
		t.Fatal("Add/Sub must not mutate inputs")
	}
}

func TestScale(t *testing.T) {
	a := NewDense(1, 3, []float64{1, -2, 3})
	a.Scale(2)
	if a.At(0, 1) != -4 {
		t.Fatalf("Scale wrong: %v", a)
	}
}

func TestFrobenius(t *testing.T) {
	a := NewDense(2, 2, []float64{3, 0, 0, 4})
	if got := a.Frobenius(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius = %v want 5", got)
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewDense(2, 2, []float64{3, -7, 0, 4})
	if got := a.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v want 7", got)
	}
}

func TestColMeansAndCenter(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 10, 3, 20})
	means := m.ColMeans()
	if means[0] != 2 || means[1] != 15 {
		t.Fatalf("ColMeans = %v", means)
	}
	removed := m.CenterColumns()
	if removed[0] != 2 || removed[1] != 15 {
		t.Fatalf("CenterColumns returned %v", removed)
	}
	after := m.ColMeans()
	if math.Abs(after[0]) > 1e-12 || math.Abs(after[1]) > 1e-12 {
		t.Fatalf("means after centering = %v, want zeros", after)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomDense(rng, 6, 4)
		return EqualApprox(m.Gram(), Mul(m.T(), m), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualApproxShapeMismatch(t *testing.T) {
	if EqualApprox(Zeros(2, 2), Zeros(2, 3), 1) {
		t.Fatal("EqualApprox must reject shape mismatch")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	big := Zeros(20, 20)
	if s := big.String(); s == "" {
		t.Fatal("String() empty")
	}
	small := NewDense(1, 1, []float64{3})
	if s := small.String(); s == "" {
		t.Fatal("String() empty")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Mul(Zeros(2, 3), Zeros(2, 3))
}

func TestAllFinite(t *testing.T) {
	// Positions cover the eight-way unrolled blocks and the tail; the
	// overflowing cases are finite values whose sum is not, which the
	// value-by-value fallback must still clear.
	nan, inf := math.NaN(), math.Inf(1)
	for n := 0; n <= 19; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) - 3.5
		}
		if !AllFinite(v) {
			t.Fatalf("n=%d: finite values reported non-finite", n)
		}
		for i := range v {
			for _, bad := range []float64{nan, inf, -inf} {
				w := append([]float64(nil), v...)
				w[i] = bad
				if AllFinite(w) {
					t.Fatalf("n=%d: %v at %d reported finite", n, bad, i)
				}
			}
			w := append([]float64(nil), v...)
			w[i] = math.MaxFloat64
			w[(i+8)%n] = math.MaxFloat64
			if !AllFinite(w) {
				t.Fatalf("n=%d: overflowing finite sum reported non-finite", n)
			}
		}
	}
	if AllFinite([]float64{inf, 1, 2, 3, 4, 5, 6, 7, -inf}) {
		t.Fatal("+Inf and -Inf summing to NaN reported finite")
	}
}
