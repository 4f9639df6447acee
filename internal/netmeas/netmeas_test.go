package netmeas

import (
	"context"
	"math"
	"testing"
	"time"

	"netanomaly/internal/mat"
)

func TestSNMPPollerAccuracy(t *testing.T) {
	p, err := NewSNMPPoller(0.001, 11)
	if err != nil {
		t.Fatal(err)
	}
	y := mat.Zeros(100, 2)
	for b := 0; b < 100; b++ {
		y.Set(b, 0, 1e8)
		y.Set(b, 1, 2e8)
	}
	got := p.Poll(y)
	for b := 0; b < 100; b++ {
		if math.Abs(got.At(b, 0)-1e8)/1e8 > 0.01 {
			t.Fatalf("SNMP error too large at bin %d: %v", b, got.At(b, 0))
		}
	}
}

func TestSNMPPollerValidation(t *testing.T) {
	if _, err := NewSNMPPoller(-0.1, 1); err == nil {
		t.Fatal("negative error must be rejected")
	}
	if _, err := NewSNMPPoller(1.0, 1); err == nil {
		t.Fatal("unit error must be rejected")
	}
}

func TestStreamDeliversAllBins(t *testing.T) {
	y := mat.Zeros(5, 2)
	for b := 0; b < 5; b++ {
		y.Set(b, 0, float64(b))
	}
	ch := Stream(context.Background(), y, 0)
	var got []LinkMeasurement
	for m := range ch {
		got = append(got, m)
	}
	if len(got) != 5 {
		t.Fatalf("received %d measurements", len(got))
	}
	for i, m := range got {
		if m.Bin != i || m.Loads[0] != float64(i) {
			t.Fatalf("measurement %d wrong: %+v", i, m)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	y := mat.Zeros(1000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	ch := Stream(ctx, y, time.Hour) // would take forever without cancel
	cancel()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				return // closed promptly
			}
		case <-deadline:
			t.Fatal("stream did not stop after cancellation")
		}
	}
}
