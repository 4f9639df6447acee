package stats

import "fmt"

// Histogram accumulates values into equal-width bins over [Min, Max].
// Values outside the range are clamped into the first or last bin, which
// matches how the paper's rate histograms (Figure 7) treat the endpoints
// 0 and 1.
type Histogram struct {
	Min, Max float64
	Counts   []int
	total    int
}

// NewHistogram returns a histogram with n equal-width bins spanning
// [min, max]. It panics for n <= 0 or min >= max.
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 {
		panic(fmt.Sprintf("stats: histogram bins %d <= 0", n))
	}
	if min >= max {
		panic(fmt.Sprintf("stats: histogram range [%v,%v] invalid", min, max))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, n)}
}

// Add records v into its bin.
func (h *Histogram) Add(v float64) {
	n := len(h.Counts)
	idx := int(float64(n) * (v - h.Min) / (h.Max - h.Min))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Counts[idx]++
	h.total++
}

// AddAll records every value in vs.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// Fractions returns each bin's share of the total (zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}
