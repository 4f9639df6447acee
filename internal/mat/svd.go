package mat

import (
	"fmt"
	"math"
	"sort"
)

const svdMaxSweeps = 60

// SVD computes the thin singular value decomposition of a (rows >= cols)
// using the one-sided Jacobi (Hestenes) method: a = U * diag(s) * V^T with
// U (rows x cols) having orthonormal columns where the corresponding
// singular value is nonzero, V (cols x cols) orthogonal, and s sorted
// descending.
//
// Columns of U associated with zero singular values are left as zero
// vectors; callers that need a complete orthonormal basis must extend them.
// The subspace method only consumes leading (nonzero) components.
//
// The method orthogonalises pairs of columns, so the sweeps run on the
// transposes of the work matrix and of V: every dot product and rotation
// then streams two contiguous rows. The floating-point operation order is
// that of the textbook column formulation, element for element.
func SVD(a *Dense) (u *Dense, s []float64, v *Dense, err error) {
	rows, cols := a.Dims()
	if rows < cols {
		panic(fmt.Sprintf("mat: SVD requires rows >= cols, got %dx%d", rows, cols))
	}
	if a.MaxAbs() == 0 {
		// Zero matrix: all singular values zero.
		return Zeros(rows, cols), make([]float64, cols), Identity(cols), nil
	}
	wt := a.T().data          // row j is column j of the work matrix
	vt := Identity(cols).data // row j is column j of V
	const tol = 1e-14
	converged := false
	for sweep := 0; sweep < svdMaxSweeps && !converged; sweep++ {
		converged = true
		for p := 0; p < cols-1; p++ {
			wp := wt[p*rows : (p+1)*rows]
			for q := p + 1; q < cols; q++ {
				wq := wt[q*rows : (q+1)*rows][:len(wp)] // equal lengths: no bounds checks below
				// alpha = ||w_p||^2, beta = ||w_q||^2, gamma = w_p . w_q
				var alpha, beta, gamma float64
				for i, x := range wp {
					y := wq[i]
					alpha += x * x
					beta += y * y
					gamma += x * y
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
				rotateRows(wp, wq, c, sn)
				rotateRows(vt[p*cols:(p+1)*cols], vt[q*cols:(q+1)*cols], c, sn)
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
	for j := range csort {
		csort[j] = col{math.Sqrt(SqNorm(wt[j*rows : (j+1)*rows])), j}
	}
	sort.Slice(csort, func(i, j int) bool { return csort[i].sv > csort[j].sv })
	u = Zeros(rows, cols)
	s = make([]float64, cols)
	v = Zeros(cols, cols)
	for k, cs := range csort {
		s[k] = cs.sv
		if cs.sv > 0 {
			inv := 1 / cs.sv
			for i, x := range wt[cs.idx*rows : (cs.idx+1)*rows] {
				u.data[i*cols+k] = x * inv
			}
		}
		for i, x := range vt[cs.idx*cols : (cs.idx+1)*cols] {
			v.data[i*cols+k] = x
		}
	}
	return u, s, v, nil
}

// rotateRows applies the plane rotation with cosine c and sine s to the
// vector pair (x, y): x <- c*x - s*y, y <- s*x + c*y.
func rotateRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}
