package mat

import "fmt"

// RowRing is a fixed-capacity buffer of measurement rows with a fixed
// column count. Rows live in one flat preallocated slice, so a push is
// a plain copy into the next slot — no per-row allocation and nothing
// for the garbage collector to scan on a streaming hot path. It backs
// the sliding windows of the streaming detector backends.
type RowRing struct {
	data     []float64 // capacity*cols, row-major
	capacity int
	cols     int
	next     int
	count    int
}

// NewRowRing returns an empty ring holding up to capacity rows of cols
// values each.
func NewRowRing(capacity, cols int) *RowRing {
	return &RowRing{data: make([]float64, capacity*cols), capacity: capacity, cols: cols}
}

// Cap returns the ring's row capacity.
func (r *RowRing) Cap() int { return r.capacity }

// Len returns the number of rows currently buffered.
func (r *RowRing) Len() int { return r.count }

// Push appends a row, evicting the oldest when full.
func (r *RowRing) Push(row []float64) {
	if len(row) != r.cols {
		panic(fmt.Sprintf("mat: ring row length %d != %d", len(row), r.cols))
	}
	copy(r.data[r.next*r.cols:(r.next+1)*r.cols], row)
	if r.next++; r.next == r.capacity {
		r.next = 0
	}
	if r.count < r.capacity {
		r.count++
	}
}

// Matrix returns the buffered rows, oldest first, as a dense matrix:
// the two wrapped stripes of the flat buffer, copied in order. It
// returns nil when the ring is empty.
func (r *RowRing) Matrix() *Dense {
	if r.count == 0 {
		return nil
	}
	m := Zeros(r.count, r.cols)
	out := m.RawData()
	head, tail := r.Stripes()
	copy(out[copy(out, head):], tail)
	return m
}

// Cols returns the ring's column count.
func (r *RowRing) Cols() int { return r.cols }

// Stripes returns the buffered rows, oldest first, as the two stripes of
// the flat buffer they occupy: head, then tail, which is empty unless
// the ring has wrapped. Both alias the ring and are valid until the
// next Push.
func (r *RowRing) Stripes() (head, tail []float64) {
	if r.count < r.capacity {
		return r.data[:r.count*r.cols], nil
	}
	return r.data[r.next*r.cols:], r.data[:r.next*r.cols]
}

// Load discards the ring's rows, makes it hold rows rows instead and
// returns their storage, oldest first, for the caller to fill in place:
// the ring is then as rows Pushes into an empty ring leave it. It panics
// if rows is negative or exceeds the capacity.
func (r *RowRing) Load(rows int) []float64 {
	if rows < 0 || rows > r.capacity {
		panic(fmt.Sprintf("mat: ring load of %d rows over capacity %d", rows, r.capacity))
	}
	r.count, r.next = rows, rows%r.capacity
	return r.data[:rows*r.cols]
}
