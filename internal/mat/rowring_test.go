package mat

import "testing"

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
