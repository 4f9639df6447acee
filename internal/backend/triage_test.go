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
	"netanomaly/internal/snaptest"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// TestTriageStateGolden pins the forecast kinds and the hybrid to two
// hashes each: one of everything they emit, the alarm stream (every
// field, floats by bit pattern), and one of everything they keep, the
// final snapshot. The stream is a 1008-bin Abilene seed and 768 streamed
// bins in 64-bin batches with a refit every 144 bins, each settled,
// carrying 8-bin floods (withheld updates) and a 300-bin level shift
// (longer than the forecasters' re-absorb horizon, so the re-absorb
// branch runs too). A change to the order of any floating-point
// operation in the forecasters, the thresholds or the hybrid's
// escalation changes a hash, and so does a change to when the refits
// run; a change to a snapshot layout alone moves only the state hash.
// The hashes were recorded on amd64; architectures that fuse
// multiply-adds round differently.
func TestTriageStateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes recorded on amd64, running on %s", runtime.GOARCH)
	}
	// Per kind: the alarm-stream hash, then the state hash.
	want := map[string][2]string{
		"ewma": {
			"f5b58337e9e174c8d576b68538d1b52d825358df48b292d34aca520d0f1b7c24",
			"5c527f050bdedd0763f69ad0c749337a1aa1b321ab36a00ed666a6c6a952ed45",
		},
		"holtwinters": {
			"5f067a411eb0cb0961617fb342c88b76335d096ddd5127fef3043039ef90cbd0",
			"0de2ca5978f50d6e4bb67dbf6f44ed93097ec21d5a11577999f2abd7bc255761",
		},
		"fourier": {
			"8e19ec9aabd00bd25d39e8c21c6e07274783dea69378e1816dd0f609225082ef",
			"a8432a97ce4fc0aa3a077e683be61ed2251b20cccccf0ac144f039b0f0f59bf5",
		},
		"hybrid": {
			"437567ccb5c9ac2f2eec273ff6029a6060ab4df13afffb7769d32162ddf9c3ae",
			"693f95a74395efdd8f98ef5b9d0a3aed2c91c12cb90b45867b1b825786372594",
		},
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
			state := sha256.Sum256(snap.Bytes())
			got := [2]string{hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(state[:])}
			if got[0] != want[0] {
				t.Errorf("%s alarm stream hash %s, want %s (%d alarms, %d refits)",
					kind, got[0], want[0], alarms, det.Stats().Refits)
			}
			if got[1] != want[1] {
				t.Errorf("%s state hash %s, want %s (%d-byte snapshot)", kind, got[1], want[1], snap.Len())
			}
		})
	}
}

// TestHybridNonFiniteBin feeds the hybrid, as the monitor builds it, a
// batch with a NaN load: the bin raises no alarm and comes back as one
// ErrNonFinite naming it, the batch's flood 20 bins later is still
// flagged and attributed, and a refit of the identification stage's
// clean-bin window succeeds. Then a bin whose loads are finite but so
// large that its SPE overflows: triage escalates it, the identification
// stage cannot judge it, and the error names it by the hybrid's own bin.
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

	const links = 6
	det, err = backend.Build(backend.Spec{Kind: "hybrid"}, snaptest.Traffic(snaptest.HistoryBins, links, 0), mat.Identity(links))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.ProcessBatch(snaptest.Traffic(40, links, snaptest.HistoryBins)); err != nil {
		t.Fatal(err)
	}
	huge := snaptest.Traffic(8, links, snaptest.HistoryBins+40)
	for c := 0; c < links; c++ {
		huge.Set(5, c, 1e160*float64(c+1))
	}
	alarms, err = det.ProcessBatch(huge)
	if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), "bin 45 ") {
		t.Fatalf("overflowing SPE: got error %v, want ErrNonFinite naming bin 45", err)
	}
	for _, a := range alarms {
		if a.Seq == 45 && a.Flow >= 0 {
			t.Fatalf("overflowing bin attributed: %+v", a)
		}
	}
}

// TestOverflowingBinWithheld: a bin whose loads are finite but so large
// that a squared residual overflows cannot be judged by a forecaster
// either. Every forecast kind, and the hybrid around one, withholds it —
// no alarm (whose SPE would be +Inf), nothing folded into a forecaster,
// a threshold or a window — and reports it as ErrNonFinite; the next
// batch is judged as usual and a refit still solves.
func TestOverflowingBinWithheld(t *testing.T) {
	const links = 6
	for _, kind := range []string{"ewma", "holtwinters", "fourier", "hybrid"} {
		t.Run(kind, func(t *testing.T) {
			det, err := backend.Build(backend.Spec{Kind: kind}, snaptest.Traffic(snaptest.HistoryBins, links, 0), mat.Identity(links))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := det.ProcessBatch(snaptest.Traffic(40, links, snaptest.HistoryBins)); err != nil {
				t.Fatal(err)
			}
			huge := snaptest.Traffic(8, links, snaptest.HistoryBins+40)
			for c := 0; c < links; c++ {
				huge.Set(5, c, 1e160*float64(c+1))
			}
			alarms, err := det.ProcessBatch(huge)
			if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), "bin 45 ") {
				t.Fatalf("overflowing bin: got error %v, want ErrNonFinite naming bin 45", err)
			}
			for _, a := range alarms {
				if a.Seq == 45 {
					t.Fatalf("overflowing bin alarmed: %+v", a)
				}
			}
			if err := det.Refit(); err != nil {
				t.Fatalf("refit after an overflowing bin: %v", err)
			}
			alarms, err = det.ProcessBatch(snaptest.Traffic(16, links, snaptest.HistoryBins+48))
			if err != nil {
				t.Fatalf("batch after an overflowing bin: %v", err)
			}
			for _, a := range alarms {
				if !(a.SPE <= math.MaxFloat64 && a.Threshold <= math.MaxFloat64) {
					t.Fatalf("alarm after an overflowing bin has SPE %v, threshold %v", a.SPE, a.Threshold)
				}
			}
		})
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
