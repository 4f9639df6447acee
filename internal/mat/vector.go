package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AllFinite reports whether every value of v is finite: no NaN, no ±Inf.
// A NaN or ±Inf term makes a sum non-finite, so a finite sum clears v at
// one add per value (eight independent sums keep the adder busy); only
// a non-finite sum — a bad value, or finite values whose sum overflows —
// is checked value by value.
func AllFinite(v []float64) bool {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	w := v
	for ; len(w) >= 8; w = w[8:] {
		s0 += w[0]
		s1 += w[1]
		s2 += w[2]
		s3 += w[3]
		s4 += w[4]
		s5 += w[5]
		s6 += w[6]
		s7 += w[7]
	}
	for _, x := range w {
		s0 += x
	}
	if s := (s0 + s1) + (s2 + s3) + (s4 + s5) + (s6 + s7); s-s == 0 {
		return true
	}
	for _, x := range v {
		if !(math.Abs(x) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// SumAbs returns the sum of |v[i]|, accumulated in eight independent
// sums (so in no fixed order): NaN when v holds a NaN, +Inf when it
// holds an infinity or the sum overflows. A caller bounds every value,
// and every square, with one scan: each |v[i]| is at most the sum.
func SumAbs(v []float64) float64 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	w := v
	for ; len(w) >= 8; w = w[8:] {
		s0 += math.Abs(w[0])
		s1 += math.Abs(w[1])
		s2 += math.Abs(w[2])
		s3 += math.Abs(w[3])
		s4 += math.Abs(w[4])
		s5 += math.Abs(w[5])
		s6 += math.Abs(w[6])
		s7 += math.Abs(w[7])
	}
	for _, x := range w {
		s0 += math.Abs(x)
	}
	return (s0 + s1) + (s2 + s3) + (s4 + s5) + (s6 + s7)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(SqNorm(x)) }

// SqNorm returns the squared Euclidean norm of x. The paper's SPE statistic
// is the squared norm of the residual vector (Section 5.1).
func SqNorm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// AddScaled sets dst[i] += alpha*x[i] for all i.
func AddScaled(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// ScaleVec multiplies every element of x by alpha, in place.
func ScaleVec(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// SubVec returns x-y as a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: SubVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - y[i]
	}
	return out
}

// AddVec returns x+y as a new slice.
func AddVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: AddVec length mismatch %d vs %d", len(x), len(y)))
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v + y[i]
	}
	return out
}

// Normalize scales x to unit Euclidean norm in place and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	ScaleVec(x, 1/n)
	return n
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// VecEqualApprox reports whether x and y have equal length and all elements
// within tol.
func VecEqualApprox(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i, v := range x {
		if math.Abs(v-y[i]) > tol {
			return false
		}
	}
	return true
}
