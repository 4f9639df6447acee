package mat

import (
	"math"
	"math/rand"
	"testing"
)

// tridiagonalizeOracle is tridiagonalize as it was before its loops
// took two rows per pass: one row at a time, every sum in the order
// EISPACK's tred2 writes it. The two-row loops promise the same sums in
// the same order, so SymEigInPlace must match this path to the bit.
func tridiagonalizeOracle(z []float64, n int, d, e []float64) {
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
			// Apply the similarity transformation to the leading block.
			zi := z[i*n : i*n+i]
			for j := 0; j < i; j++ {
				f = d[j]
				zi[j] = f
				zj := z[j*n : j*n+i]
				g = e[j] + zj[j]*f
				for k := j + 1; k < i; k++ {
					g += zj[k] * d[k]
					e[k] += zj[k] * f
				}
				e[j] = g
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
			for j := 0; j <= i; j++ {
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

// symEigOracle is SymEigInPlace with tridiagonalizeOracle in place of
// tridiagonalize, for finite symmetric input.
func symEigOracle(z []float64, n int, vals, work []float64) bool {
	tridiagonalizeOracle(z, n, vals, work)
	if !qlImplicit(z, n, vals, work) {
		return false
	}
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
	return true
}

// AssertSymEigMatchesTred2Oracle requires tridiagonalize's output and
// SymEigInPlace's eigenvalues and eigenvectors on the symmetric matrix a
// to equal the one-row oracle path's bit for bit.
func AssertSymEigMatchesTred2Oracle(t *testing.T, name string, a *Dense) {
	t.Helper()
	n := a.rows
	z, zo := a.Clone().data, a.Clone().data
	d, e := make([]float64, n), make([]float64, n)
	do, eo := make([]float64, n), make([]float64, n)
	tridiagonalize(z, n, d, e)
	tridiagonalizeOracle(zo, n, do, eo)
	for _, c := range []struct {
		what      string
		got, want []float64
	}{{"z", z, zo}, {"d", d, do}, {"e", e, eo}} {
		if k := sameBits(c.got, c.want); k >= 0 {
			t.Fatalf("%s: n=%d tridiagonal %s[%d] = %v, oracle %v", name, n, c.what, k, c.got[k], c.want[k])
		}
	}

	vecs := a.Clone()
	vals := make([]float64, n)
	if err := SymEigInPlace(vecs, vals, make([]float64, n)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantVals := a.Clone().data, make([]float64, n)
	if !symEigOracle(want, n, wantVals, make([]float64, n)) {
		t.Fatalf("%s: oracle did not converge", name)
	}
	if k := sameBits(vals, wantVals); k >= 0 {
		t.Fatalf("%s: n=%d eigenvalue %d = %v, oracle %v", name, n, k, vals[k], wantVals[k])
	}
	if k := sameBits(vecs.data, want); k >= 0 {
		t.Fatalf("%s: n=%d eigenvector entry (%d,%d) = %v, oracle %v", name, n, k/n, k%n, vecs.data[k], want[k])
	}
}

func TestSymEigBitIdenticalToTred2Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{1, 2, 3, 4, 5, 28, 41, 120} {
		AssertSymEigMatchesTred2Oracle(t, "random symmetric", randomSymmetric(rng, n))
		AssertSymEigMatchesTred2Oracle(t, "random PSD", randomDense(rng, 2*n, n).Gram())
	}
	// A Frequent-Directions Gram B B^T with empty rows, where whole
	// Householder steps see a zero row.
	b := randomDense(rng, 28, 120)
	for _, i := range []int{5, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27} {
		clear(b.RowView(i))
	}
	AssertSymEigMatchesTred2Oracle(t, "sketch Gram", b.T().Gram())
	AssertSymEigMatchesTred2Oracle(t, "zero", Zeros(6, 6))
	AssertSymEigMatchesTred2Oracle(t, "identity", Identity(9))
}
