// Package mat implements the dense linear algebra needed by the subspace
// method: matrices, vectors, QR decomposition, a symmetric eigensolver
// (Householder tridiagonalisation + implicit-shift QL) and a one-sided
// Jacobi SVD.
//
// The package is intentionally small and self-contained (standard library
// only). Matrices are stored row-major. Dimension mismatches panic, in the
// style of gonum: they are programmer errors, not runtime conditions.
//
// Numerical scope: the subspace method operates on measurement matrices of
// shape t x m with t ~ 1000 time bins and m from the paper's 41-49 links
// to a few hundred, on m x m covariance matrices, and on the ell x ell
// Grams of a Frequent-Directions sketch. The eigensolver fits every
// streaming model — the detectors' seeds and window refits solve a
// centered m x m Gram, and it sits on the per-bin sketch path — so it is
// the O(n^3) QL method, accurate to a few ulps of the largest
// eigenvalue. The SVD is the offline fit and the oracle the streaming
// fits are tested against, so it keeps one-sided Jacobi's high relative
// accuracy and runs it on transposed storage. Both kernels work on raw
// row-major slices and stream contiguous memory.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows x cols matrix backed by data (len rows*cols).
// If data is nil a zeroed backing slice is allocated. The slice is used
// directly, not copied.
func NewDense(rows, cols int, data []float64) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	if data == nil {
		data = make([]float64, rows*cols)
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Zeros returns a rows x cols zero matrix.
func Zeros(rows, cols int) *Dense { return NewDense(rows, cols, nil) }

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
	m.data[i*m.cols+j] = v
}

// indexError is the panic value of an out-of-range At or Set. The message
// is formatted in Error, off the hot path: a call to a formatting helper
// would put the accessors over the compiler's inlining budget, and this
// way their bounds test inlines to a compare-and-branch.
type indexError struct{ i, j, rows, cols int }

func (e indexError) Error() string {
	return fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", e.i, e.j, e.rows, e.cols)
}

// RawData returns the row-major backing slice of m. Mutations are visible
// in m. Kernels that stream whole matrices (batched SPE, the blocked
// multiply) use it to avoid per-row slicing in their inner loops.
func (m *Dense) RawData() []float64 { return m.data }

// RowView returns a slice aliasing row i. Mutations are visible in m.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.RowView(i))
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 { return m.ColInto(make([]float64, m.rows), j) }

// ColInto copies column j into dst, which must hold Rows values, and
// returns it: a caller reading every column in turn reuses one buffer.
func (m *Dense) ColInto(dst []float64, j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range %d", j, m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("mat: ColInto buffer length %d != rows %d", len(dst), m.rows))
	}
	for i := range dst {
		dst[i] = m.data[i*m.cols+j]
	}
	return dst
}

// SetRow copies vals into row i.
func (m *Dense) SetRow(i int, vals []float64) {
	if len(vals) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(vals), m.cols))
	}
	copy(m.RowView(i), vals)
}

// SetCol copies vals into column j.
func (m *Dense) SetCol(j int, vals []float64) {
	if len(vals) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(vals), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = vals[i]
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	data := make([]float64, len(m.data))
	copy(data, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: data}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := Zeros(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	y := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulTVec returns the product of the transpose of a with x, i.e. a^T * x.
func MulTVec(a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulTVec dimension mismatch %dx%d^T * %d", a.rows, a.cols, len(x)))
	}
	y := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			y[j] += v * xi
		}
	}
	return y
}

// Add returns a+b.
func Add(a, b *Dense) *Dense {
	checkSameDims("Add", a, b)
	c := a.Clone()
	for i, v := range b.data {
		c.data[i] += v
	}
	return c
}

// Sub returns a-b.
func Sub(a, b *Dense) *Dense {
	checkSameDims("Sub", a, b)
	c := a.Clone()
	for i, v := range b.data {
		c.data[i] -= v
	}
	return c
}

func checkSameDims(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Scale multiplies every element of m by s, in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// Frobenius returns the Frobenius norm of m.
func (m *Dense) Frobenius() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value of m.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether a and b have the same shape and all elements
// within tol of each other.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// ColMeans returns the mean of each column.
func (m *Dense) ColMeans() []float64 {
	means := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(m.rows)
	}
	return means
}

// CenterColumns subtracts each column's mean from the column, in place,
// and returns the means that were removed. This is the mean adjustment the
// paper requires before PCA (Section 4.2).
func (m *Dense) CenterColumns() []float64 {
	means := m.ColMeans()
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] -= means[j]
		}
	}
	return means
}

// String renders the matrix for debugging. Large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense(%dx%d)[\n", m.rows, m.cols)
	rshow := m.rows
	if rshow > maxShow {
		rshow = maxShow
	}
	cshow := m.cols
	if cshow > maxShow {
		cshow = maxShow
	}
	for i := 0; i < rshow; i++ {
		sb.WriteString("  ")
		for j := 0; j < cshow; j++ {
			fmt.Fprintf(&sb, "%10.4g ", m.At(i, j))
		}
		if cshow < m.cols {
			sb.WriteString("...")
		}
		sb.WriteString("\n")
	}
	if rshow < m.rows {
		sb.WriteString("  ...\n")
	}
	sb.WriteString("]")
	return sb.String()
}
