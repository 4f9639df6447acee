package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters an (effectively) singular
// system.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// QR computes the thin QR decomposition of a (rows >= cols) using
// Householder reflections: a = q*r with q having orthonormal columns
// (rows x cols) and r upper triangular (cols x cols).
func QR(a *Dense) (q, r *Dense) {
	rows, cols := a.Dims()
	if rows < cols {
		panic(fmt.Sprintf("mat: QR requires rows >= cols, got %dx%d", rows, cols))
	}
	// Work on a copy; accumulate the full Q by applying reflectors to I.
	w := a.Clone()
	// Store reflectors to apply to identity later.
	vs := make([][]float64, 0, cols)
	for k := 0; k < cols; k++ {
		// Build the Householder vector for column k, rows k..rows-1.
		alpha := 0.0
		for i := k; i < rows; i++ {
			alpha += w.At(i, k) * w.At(i, k)
		}
		alpha = math.Sqrt(alpha)
		if w.At(k, k) > 0 {
			alpha = -alpha
		}
		v := make([]float64, rows)
		v[k] = w.At(k, k) - alpha
		for i := k + 1; i < rows; i++ {
			v[i] = w.At(i, k)
		}
		vnorm := Norm2(v[k:])
		if vnorm > 0 {
			for i := k; i < rows; i++ {
				v[i] /= vnorm
			}
			// Apply reflector H = I - 2vv^T to w (columns k..cols-1).
			for j := k; j < cols; j++ {
				var dot float64
				for i := k; i < rows; i++ {
					dot += v[i] * w.At(i, j)
				}
				for i := k; i < rows; i++ {
					w.Set(i, j, w.At(i, j)-2*dot*v[i])
				}
			}
		}
		vs = append(vs, v)
	}
	// r is the top cols x cols block of w.
	r = Zeros(cols, cols)
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			r.Set(i, j, w.At(i, j))
		}
	}
	// q = H_0 H_1 ... H_{cols-1} applied to the first cols columns of I.
	q = Zeros(rows, cols)
	for j := 0; j < cols; j++ {
		q.Set(j, j, 1)
	}
	for k := cols - 1; k >= 0; k-- {
		v := vs[k]
		for j := 0; j < cols; j++ {
			var dot float64
			for i := k; i < rows; i++ {
				dot += v[i] * q.At(i, j)
			}
			if dot == 0 {
				continue
			}
			for i := k; i < rows; i++ {
				q.Set(i, j, q.At(i, j)-2*dot*v[i])
			}
		}
	}
	return q, r
}

// SolveLS solves the least-squares problem min ||a*x - b||_2 for x using a
// QR decomposition. a must have rows >= cols and full column rank;
// ErrSingular is returned otherwise. This is the solver used for Fourier
// basis fitting and for the multi-flow anomaly estimate f = (Theta^T
// Theta)^-1 Theta^T y (Section 7.2).
func SolveLS(a *Dense, b []float64) ([]float64, error) {
	if len(b) != a.rows {
		panic(fmt.Sprintf("mat: SolveLS rhs length %d != rows %d", len(b), a.rows))
	}
	return NewLeastSquares(a).Solve(b)
}

// LeastSquares is a factored least-squares problem min ||a*x - b||_2:
// one QR decomposition of a, reused for every right-hand side, so
// fitting many series against one design factors it once. Each Solve
// does exactly what SolveLS does with the factors, bit for bit.
type LeastSquares struct {
	q, r *Dense
	tol  float64 // a diagonal entry of r below it makes the system singular
}

// NewLeastSquares factors a, which must have rows >= cols.
func NewLeastSquares(a *Dense) *LeastSquares {
	q, r := QR(a)
	return &LeastSquares{q: q, r: r, tol: 1e-12 * (1 + r.MaxAbs())}
}

// Solve returns the x minimizing ||a*x - b||_2 (len(b) must equal a's
// rows), or ErrSingular when a lacks full column rank.
func (ls *LeastSquares) Solve(b []float64) ([]float64, error) {
	// x = R^-1 Q^T b
	qtb := MulTVec(ls.q, b)
	cols := ls.r.cols
	x := make([]float64, cols)
	for i := cols - 1; i >= 0; i-- {
		d := ls.r.At(i, i)
		if math.Abs(d) < ls.tol {
			return nil, ErrSingular
		}
		s := qtb[i]
		for j := i + 1; j < cols; j++ {
			s -= ls.r.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return x, nil
}
