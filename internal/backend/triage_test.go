package backend_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"runtime"
	"strings"
	"testing"

	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// TestTriageStateGolden pins the forecast kinds and the hybrid to a hash
// of everything they emit and keep: the alarm stream (every field, floats
// by bit pattern) followed by the final snapshot. The stream is a
// 1008-bin Abilene seed and 768 streamed bins in 64-bin batches with a
// refit every 144 bins, each settled, carrying 8-bin floods (withheld
// updates) and a 300-bin level shift (longer than the forecasters'
// re-absorb horizon, so the re-absorb branch runs too). A change to the
// order of any floating-point operation in the forecasters, the
// thresholds or the hybrid's escalation changes a hash, and so does a
// change to when the refits run. The hashes were
// recorded on amd64; architectures that fuse multiply-adds round
// differently.
func TestTriageStateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes recorded on amd64, running on %s", runtime.GOARCH)
	}
	want := map[string]string{
		"ewma":        "32611ffb15dceca08e3eee040868ecd8e92cf132a740c5bca1056ab310148957",
		"holtwinters": "3e1bfb9ea1fc4bc28a41a9b093f59dc0734c8398b8d1a4e7cd0b89a2ff5b3c94",
		"fourier":     "5978f4919684af21de4621a3f4c557c1744946b1011ea4e20526511db34b5d8b",
		"hybrid":      "38fce90191e97c04245c57dc52c2f041e3f3d1fea38f2902567297617fd87b9f",
	}
	y, history, routing := stormStream(t)
	for kind, want := range want {
		t.Run(kind, func(t *testing.T) {
			det, err := backend.Build(backend.Spec{Kind: kind, RefitEvery: 144}, history, routing)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			alarms := 0
			for from := seedBins; from < y.Rows(); from += batch {
				a, err := det.ProcessBatch(rowsOf(y, from, from+batch))
				if err != nil {
					t.Fatal(err)
				}
				for _, al := range a {
					hashAlarm(h, al)
				}
				alarms += len(a)
				if err := det.Settle(); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := det.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			h.Write(snap.Bytes())
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Fatalf("%s alarm stream + state hash %s, want %s (%d alarms, %d refits, %d-byte snapshot)",
					kind, got, want, alarms, det.Stats().Refits, snap.Len())
			}
		})
	}
}

// TestHybridNonFiniteBin feeds the hybrid, as the monitor builds it, a
// batch with a NaN load: the bin raises no alarm and comes back as one
// ErrNonFinite naming it, the batch's flood 20 bins later is still
// flagged and attributed, and a refit — which re-seeds the
// identification stage from the hybrid's clean-bin window — succeeds.
func TestHybridNonFiniteBin(t *testing.T) {
	y, history, routing := stormStream(t)
	det, err := backend.Build(backend.Spec{Kind: "hybrid"}, history, routing)
	if err != nil {
		t.Fatal(err)
	}
	first := mat.Zeros(batch, y.Cols())
	copy(first.RawData(), rowsOf(y, seedBins, seedBins+batch).RawData())
	first.Set(20, 0, math.NaN())
	alarms, err := det.ProcessBatch(first)
	if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), "bin 20 ") || strings.Count(err.Error(), "non-finite") != 1 {
		t.Fatalf("got error %v, want one ErrNonFinite naming bin 20", err)
	}
	flood := false
	for _, a := range alarms {
		if a.Seq == 20 {
			t.Fatalf("NaN bin alarmed: %+v", a)
		}
		if a.Seq == 40 {
			flood = true
			if a.Flow != 13 {
				t.Fatalf("flood attributed to flow %d, want 13", a.Flow)
			}
		}
	}
	if !flood {
		t.Fatalf("flood at bin 40 missed after the NaN bin; alarms %+v", alarms)
	}
	if err := det.Refit(); err != nil {
		t.Fatalf("refit after a NaN bin: %v", err)
	}
}

const seedBins, streamBins, batch = 1008, 768, 64

// stormStream returns seedBins+streamBins bins of Abilene link loads
// carrying four 8-bin floods (stream bins 40, 200, 330 and 610, each on
// its own flow) and a 300-bin level shift (stream bins 400..699 on flow
// 57), the seed history (its first seedBins rows) and the routing
// matrix.
func stormStream(t *testing.T) (y, history, routing *mat.Dense) {
	t.Helper()
	topo := topology.Abilene()
	cfg := traffic.DefaultConfig(1)
	cfg.Bins = seedBins + streamBins
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	od := gen.Generate()
	var anomalies []traffic.Anomaly
	for i, start := range []int{40, 200, 330, 610} {
		for b := start; b < start+8; b++ {
			anomalies = append(anomalies, traffic.Anomaly{Flow: 13 + 17*i, Bin: seedBins + b, Delta: 1.5e8})
		}
	}
	for b := 400; b < 700; b++ {
		anomalies = append(anomalies, traffic.Anomaly{Flow: 57, Bin: seedBins + b, Delta: 8e7})
	}
	traffic.Inject(od, anomalies)
	y = traffic.LinkLoads(topo, od)
	return y, rowsOf(y, 0, seedBins), topo.RoutingMatrix()
}

// rowsOf returns rows [from, to) of m as a view.
func rowsOf(m *mat.Dense, from, to int) *mat.Dense {
	return mat.NewDense(to-from, m.Cols(), m.RawData()[from*m.Cols():to*m.Cols()])
}

// hashAlarm writes every field of a into h, floats by bit pattern.
func hashAlarm(h hash.Hash, a core.Alarm) {
	var buf [8]byte
	for _, v := range []uint64{
		uint64(a.Seq), uint64(a.Bin), uint64(int64(a.Flow)),
		math.Float64bits(a.SPE), math.Float64bits(a.Threshold), math.Float64bits(a.Bytes),
	} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}
