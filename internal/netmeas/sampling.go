// Package netmeas is the measurement plane the detectors read from:
// SNMP-style link byte counters (Section 3), per-link multi-metric
// derivation (bytes, flow counts, packet sizes), the binary wire format
// and its decoders, and the streaming link-measurement sources used for
// online operation.
package netmeas

import (
	"fmt"
	"math/rand"

	"netanomaly/internal/mat"
)

// SNMPPoller simulates SNMP interface byte counters: complete counts with
// a small polling/rollover error.
type SNMPPoller struct {
	// RelError is the relative standard deviation of counter readings
	// (default 0.001 if zero: SNMP counts every byte; errors come from
	// poll timing jitter).
	RelError float64

	rng *rand.Rand
}

// NewSNMPPoller returns a poller with deterministic noise.
func NewSNMPPoller(relError float64, seed int64) (*SNMPPoller, error) {
	if relError < 0 || relError >= 1 {
		return nil, fmt.Errorf("netmeas: SNMP relative error %v out of [0,1)", relError)
	}
	return &SNMPPoller{RelError: relError, rng: rand.New(rand.NewSource(seed))}, nil
}

// Poll returns noisy link byte counts for the true link-load matrix
// (bins x links).
func (p *SNMPPoller) Poll(y *mat.Dense) *mat.Dense {
	rel := p.RelError
	if rel == 0 {
		rel = 0.001
	}
	t, m := y.Dims()
	out := mat.Zeros(t, m)
	for b := 0; b < t; b++ {
		src := y.RowView(b)
		dst := out.RowView(b)
		for l := 0; l < m; l++ {
			v := src[l] * (1 + rel*p.rng.NormFloat64())
			if v < 0 {
				v = 0
			}
			dst[l] = v
		}
	}
	return out
}
