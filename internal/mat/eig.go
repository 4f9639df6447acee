package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSymmetric is returned by SymEig when its input is not symmetric.
var ErrNotSymmetric = errors.New("mat: matrix is not symmetric")

// ErrNoConvergence is returned when an iterative decomposition fails to
// converge within its iteration budget, or is handed non-finite input
// (which no iteration can converge on).
var ErrNoConvergence = errors.New("mat: iteration did not converge")

const (
	// qlMaxIter bounds the implicit-shift QL iterations spent on one
	// eigenvalue; convergence is cubic, so 2-3 is typical.
	qlMaxIter = 60
	symTol    = 1e-8
)

// SymEig computes the eigendecomposition of the symmetric matrix a by
// Householder tridiagonalisation followed by implicit-shift QL. It
// returns the eigenvalues sorted in descending order and a matrix whose
// columns are the corresponding orthonormal eigenvectors, so that
// a = V * diag(vals) * V^T.
//
// Computing all principal components of the link traffic matrix Y is
// equivalent to solving the symmetric eigenvalue problem for the
// covariance matrix Y^T Y (Section 7.1 of the paper).
func SymEig(a *Dense) (vals []float64, vecs *Dense, err error) {
	vt := a.Clone()
	vals = make([]float64, a.rows)
	if err := SymEigInPlace(vt, vals, make([]float64, a.rows)); err != nil {
		return nil, nil, err
	}
	return vals, vt.T(), nil
}

// SymEigInPlace is SymEig on caller-owned storage, for callers that
// solve the same-sized problem on every step of a stream: it overwrites
// the symmetric matrix a with its orthonormal eigenvectors as ROWS (the
// transpose of SymEig's vecs), writes the descending eigenvalues into
// vals, uses work as scratch (both of length n) and allocates nothing.
// On error a is left in an unspecified state.
//
// Every floating-point sum runs in the order EISPACK's tred2 and tql2
// write it, whatever loop shape computes it, so the output is a fixed
// function of a's bits: a kernel change that reorders a sum changes
// results downstream (sketch state, models, alarms) and must not land as
// a speed-up. TestSymEigBitIdenticalToTred2Oracle pins the order.
func SymEigInPlace(a *Dense, vals, work []float64) error {
	n := a.rows
	if n != a.cols {
		panic(fmt.Sprintf("mat: SymEig requires a square matrix, got %dx%d", n, a.cols))
	}
	if len(vals) != n || len(work) != n {
		panic(fmt.Sprintf("mat: SymEig workspace lengths %d,%d != %d", len(vals), len(work), n))
	}
	z := a.data
	var scale float64
	for _, v := range z {
		if v-v != 0 { // NaN or ±Inf
			return fmt.Errorf("mat: SymEig input has non-finite entries: %w", ErrNoConvergence)
		}
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(z[i*n+j]-z[j*n+i]) > symTol*scale {
				return ErrNotSymmetric
			}
		}
	}
	tridiagonalize(z, n, vals, work)
	if !qlImplicit(z, n, vals, work) {
		return ErrNoConvergence
	}
	// Selection sort, descending, carrying the eigenvector rows along.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if vals[j] > vals[k] {
				k = j
			}
		}
		if k != i {
			vals[i], vals[k] = vals[k], vals[i]
			ri, rk := z[i*n:(i+1)*n], z[k*n:(k+1)*n]
			for c, v := range ri {
				ri[c], rk[c] = rk[c], v
			}
		}
	}
	return nil
}

// tridiagonalize reduces the symmetric n x n matrix in z (row-major; only
// the upper triangle is read) to tridiagonal form by Householder
// reflections. On return d holds the diagonal, e[1:] the subdiagonal,
// and z the transpose of the accumulated orthogonal transformation. This
// is EISPACK's tred2 with every index pair swapped, which the symmetry
// of the input permits and which turns the routine's column walks into
// contiguous row walks on row-major storage.
func tridiagonalize(z []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under/overflow in the norm.
		var scale, h float64
		for _, v := range d[:i] {
			scale += math.Abs(v)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
		} else {
			// Generate the Householder vector in d[:i].
			for k := range d[:i] {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := range e[:i] {
				e[j] = 0
			}
			// Apply the similarity transformation to the leading block,
			// two rows per pass. Row j's g and row j+1's g1 are separate
			// accumulators, and every e[k] takes row j's term before row
			// j+1's, so each sum runs in the one-row loop's order: row j's
			// k = j+1 term lands before row j+1 reads e[j+1].
			zi := z[i*n : i*n+i]
			j := 0
			for ; j+1 < i; j += 2 {
				f, f1 := d[j], d[j+1]
				zi[j], zi[j+1] = f, f1
				zj, zj1 := z[j*n:j*n+i], z[(j+1)*n:(j+1)*n+i]
				g = e[j] + zj[j]*f
				g += zj[j+1] * d[j+1]
				e[j+1] += zj[j+1] * f
				g1 := e[j+1] + zj1[j+1]*f1
				for k := j + 2; k < i; k++ {
					g += zj[k] * d[k]
					g1 += zj1[k] * d[k]
					e[k] = e[k] + zj[k]*f + zj1[k]*f1
				}
				e[j], e[j+1] = g, g1
			}
			if j < i {
				f = d[j]
				zi[j] = f
				e[j] += z[j*n+j] * f
			}
			f = 0
			for j := range e[:i] {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := range e[:i] {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f, g = d[j], e[j]
				zj := z[j*n : j*n+i]
				for k := j; k < i; k++ {
					zj[k] -= f*e[k] + g*d[k]
				}
				d[j] = zj[i-1]
				z[j*n+i] = 0
			}
		}
		d[i] = h
	}
	// Accumulate the reflections.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		zi1 := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, v := range zi1 {
				d[k] = v / h
			}
			// Two rows per pass; the rows do not interact, and each g
			// sums in index order.
			j := 0
			for ; j+1 <= i; j += 2 {
				zj, zj1 := z[j*n:j*n+i+1], z[(j+1)*n:(j+1)*n+i+1]
				var g, g1 float64
				for k, v := range zi1 {
					g += v * zj[k]
					g1 += v * zj1[k]
				}
				for k, dk := range d[:i+1] {
					zj[k] -= g * dk
					zj1[k] -= g1 * dk
				}
			}
			if j <= i {
				zj := z[j*n : j*n+i+1]
				var g float64
				for k, v := range zi1 {
					g += v * zj[k]
				}
				for k := range zj {
					zj[k] -= g * d[k]
				}
			}
		}
		for k := range zi1 {
			zi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// qlImplicit diagonalises the tridiagonal matrix (d, e) left by
// tridiagonalize with implicit-shift QL iterations (EISPACK's tql2),
// applying every rotation to the rows of z so they end as the
// eigenvectors. d ends as the unsorted eigenvalues. It reports false if
// an eigenvalue fails to settle within qlMaxIter iterations.
func qlImplicit(z []float64, n int, d, e []float64) bool {
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a negligible subdiagonal element; e[n-1] = 0 ends the scan.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// m == l means d[l] is already an eigenvalue.
		for iter := 0; m > l; iter++ {
			if iter == qlMaxIter {
				return false
			}
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the rotation into eigenvector rows i, i+1.
				rotateRows(z[i*n:(i+1)*n], z[(i+1)*n:(i+2)*n], c, s)
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return true
}
