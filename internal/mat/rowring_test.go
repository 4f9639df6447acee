package mat

import (
	"slices"
	"testing"
)

func TestRowRingBuffer(t *testing.T) {
	r := NewRowRing(3, 2)
	if r.Matrix() != nil {
		t.Fatal("empty ring must return nil matrix")
	}
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("fresh ring cap/len = %d/%d", r.Cap(), r.Len())
	}
	r.Push([]float64{1, 1})
	r.Push([]float64{2, 2})
	m := r.Matrix()
	if m.Rows() != 2 || m.At(0, 0) != 1 || m.At(1, 0) != 2 {
		t.Fatalf("partial ring matrix wrong: %v", m)
	}
	r.Push([]float64{3, 3})
	r.Push([]float64{4, 4}) // evicts 1
	if r.Len() != 3 {
		t.Fatalf("full ring len = %d", r.Len())
	}
	m = r.Matrix()
	if m.Rows() != 3 {
		t.Fatalf("full ring rows = %d", m.Rows())
	}
	if m.At(0, 0) != 2 || m.At(2, 0) != 4 {
		t.Fatalf("ring order wrong: %v", m)
	}
}

func TestRowRingRejectsMismatchedRow(t *testing.T) {
	r := NewRowRing(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched row length")
		}
	}()
	r.Push([]float64{1, 2, 3})
}

// TestRowRingLoadMatchesPushes: a ring filled in place through Load is
// the ring the same rows pushed one by one leave — same stripes, and the
// same state after further pushes wrap it — for every row count up to
// the capacity.
func TestRowRingLoadMatchesPushes(t *testing.T) {
	const capacity, cols = 4, 2
	for rows := 0; rows <= capacity; rows++ {
		pushed, loaded := NewRowRing(capacity, cols), NewRowRing(capacity, cols)
		window := loaded.Load(rows)
		if len(window) != rows*cols {
			t.Fatalf("Load(%d) returned %d values, want %d", rows, len(window), rows*cols)
		}
		for b := 0; b < rows; b++ {
			row := []float64{float64(b), float64(-b)}
			pushed.Push(row)
			copy(window[b*cols:], row)
		}
		for extra := 0; extra <= capacity+1; extra++ {
			if loaded.Len() != pushed.Len() || loaded.Cols() != cols {
				t.Fatalf("rows %d + %d pushes: Len %d, Cols %d; pushed ring Len %d", rows, extra, loaded.Len(), loaded.Cols(), pushed.Len())
			}
			lh, lt := loaded.Stripes()
			ph, pt := pushed.Stripes()
			if !slices.Equal(lh, ph) || !slices.Equal(lt, pt) {
				t.Fatalf("rows %d + %d pushes: stripes %v|%v, pushed ring %v|%v", rows, extra, lh, lt, ph, pt)
			}
			row := []float64{float64(100 + extra), 0}
			loaded.Push(row)
			pushed.Push(row)
		}
	}
	// Stripes are the rows oldest first: the wrapped ring's head is the
	// stripe past the write cursor.
	r := NewRowRing(3, 1)
	for v := 1.0; v <= 5; v++ {
		r.Push([]float64{v})
	}
	if head, tail := r.Stripes(); !slices.Equal(head, []float64{3}) || !slices.Equal(tail, []float64{4, 5}) {
		t.Fatalf("stripes of 1..5 in a 3-row ring: %v|%v, want [3]|[4 5]", head, tail)
	}
}
