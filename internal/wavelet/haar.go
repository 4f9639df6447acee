// Package wavelet implements the Haar discrete wavelet transform and the
// multiscale subspace detector sketched in Section 7.3 of the paper
// (following Misra et al., "Multivariate process monitoring and fault
// diagnosis by multi-scale PCA"): applying PCA to the wavelet transform
// of the measurements allows the detection of anomalies at all
// timescales, not just single-bin spikes.
package wavelet

import (
	"fmt"
	"math"

	"netanomaly/internal/mat"
)

// sqrt2 halves/doubles energy correctly for the orthonormal Haar basis.
var sqrt2 = math.Sqrt(2)

// Forward computes one level of the orthonormal Haar transform:
// approx[i] = (x[2i] + x[2i+1]) / sqrt2, detail[i] = (x[2i] - x[2i+1]) /
// sqrt2. len(x) must be even.
func Forward(x []float64) (approx, detail []float64) {
	if len(x)%2 != 0 {
		panic(fmt.Sprintf("wavelet: Forward needs even length, got %d", len(x)))
	}
	n := len(x) / 2
	approx = make([]float64, n)
	detail = make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := x[2*i], x[2*i+1]
		approx[i] = (a + b) / sqrt2
		detail[i] = (a - b) / sqrt2
	}
	return approx, detail
}

// Decomposition is a full multi-level Haar decomposition: Details[k]
// holds the detail coefficients at scale k (k=0 finest, 2-bin features),
// and Approx the final coarse approximation.
type Decomposition struct {
	Details [][]float64
	Approx  []float64
}

// Decompose runs levels of the transform. The input length must be
// divisible by 2^levels. The transform is orthonormal: total energy is
// preserved (Parseval).
func Decompose(x []float64, levels int) (*Decomposition, error) {
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels %d < 1", levels)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("wavelet: empty input")
	}
	if len(x)%(1<<levels) != 0 {
		return nil, fmt.Errorf("wavelet: length %d not divisible by 2^%d", len(x), levels)
	}
	d := &Decomposition{}
	cur := mat.CloneVec(x)
	for k := 0; k < levels; k++ {
		approx, detail := Forward(cur)
		d.Details = append(d.Details, detail)
		cur = approx
	}
	d.Approx = cur
	return d, nil
}

// DetailMatrix applies a level-k detail transform to every column of a
// bins x links measurement matrix, returning the (bins/2^(k+1)) x links
// matrix of detail coefficients at that scale. Row b of the result
// summarizes the measurement difference structure around time 2^(k+1)*b.
func DetailMatrix(y *mat.Dense, level int) (*mat.Dense, error) {
	bins, links := y.Dims()
	if level < 0 {
		return nil, fmt.Errorf("wavelet: negative level")
	}
	if bins%(1<<(level+1)) != 0 {
		return nil, fmt.Errorf("wavelet: %d bins not divisible by 2^%d", bins, level+1)
	}
	outRows := bins >> (level + 1)
	out := mat.Zeros(outRows, links)
	for l := 0; l < links; l++ {
		d, err := Decompose(y.Col(l), level+1)
		if err != nil {
			return nil, err
		}
		out.SetCol(l, d.Details[level])
	}
	return out, nil
}
