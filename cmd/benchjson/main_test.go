package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// committedReports decodes the BENCH_*.json files committed at the
// repository root, refusing any key the report structs do not name.
func committedReports(t *testing.T) (*ingestReport, *sketchReport, *snapshotReport) {
	t.Helper()
	ing, sk, snap := &ingestReport{}, &sketchReport{}, &snapshotReport{}
	for name, v := range map[string]any{"BENCH_ingest.json": ing, "BENCH_sketch.json": sk, "BENCH_snapshot.json": snap} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return ing, sk, snap
}

// TestFailedGates holds every gate to its bound and its message: the
// committed reports pass them all, each gate broken on its own on a copy
// of those reports yields exactly its own message, and a report sitting
// exactly on every inclusive bound passes.
func TestFailedGates(t *testing.T) {
	ing, sk, snap := committedReports(t)
	if got := failedGates(ing, sk, snap); len(got) != 0 {
		t.Fatalf("committed reports miss gates: %q", got)
	}
	if got := failedGates(nil, nil, nil); len(got) != 0 {
		t.Fatalf("no reports miss gates: %q", got)
	}

	type gateCase struct {
		name   string
		mutate func(*ingestReport, *sketchReport, *snapshotReport)
		want   string // "" when the mutated reports pass every gate
	}
	cases := []gateCase{
		{"v1 vs csv", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.SpeedupVsCSV = 4.9 },
			"binary ingest is 4.9x the CSV path, want >= 5x"},
		{"v1 allocs", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.BinaryAllocsPerBin = 1 },
			"binary ingest allocates 1.000 per bin, want < 1"},
		{"v2 allocs", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.V2AllocsPerBin = 0.06 },
			"v2 ingest allocates 0.0600 per bin, want <= 0.05"},
		{"v2 vs v1", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.V2SpeedupVsV1 = 1.4 },
			"v2 batch framing is 1.40x the v1 per-bin path, want >= 1.5x"},
		{"read reduction", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.ReadReduction = 9.9 },
			"v2 batch framing only cuts read calls 9.9x, want >= 10x"},
		{"xor compression", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.XORCompression = 1.99 },
			"xor codec compresses the trafficgen week 1.99x, want >= 2x"},
		{"xor vs v1", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.XORVsV1Ratio = 1.31 },
			"xor decode costs 1.31x the v1 raw-decode baseline, want <= 1.3x"},
		{"xor vs raw", func(i *ingestReport, _ *sketchReport, _ *snapshotReport) { i.XORVsRawRatio = 2.3 },
			"xor decode costs 2.30x the v2 zero-copy raw path, want <= 2.2x"},
		{"sketch refit", func(_ *ingestReport, s *sketchReport, _ *snapshotReport) { s.SpeedupVsCovTracker = 1.9 },
			"sketch refit is 1.9x the covtracker refit, want >= 2x"},
		{"agreement sketch flagged", func(_ *ingestReport, s *sketchReport, _ *snapshotReport) { s.Agreement.SketchFlaggedBins = 4 },
			"sketch/incremental disagree (4 vs 3 flagged, 3 common, 3/3 spikes)"},
		{"agreement common", func(_ *ingestReport, s *sketchReport, _ *snapshotReport) { s.Agreement.CommonFlaggedBins = 2 },
			"sketch/incremental disagree (3 vs 3 flagged, 2 common, 3/3 spikes)"},
		{"agreement spikes", func(_ *ingestReport, s *sketchReport, _ *snapshotReport) { s.Agreement.SpikesCaughtByBoth = 2 },
			"sketch/incremental disagree (3 vs 3 flagged, 3 common, 2/3 spikes)"},
		{"restore vs reseed", func(_ *ingestReport, _ *sketchReport, n *snapshotReport) { n.SubspaceRestoreSpeedup = 1.9 },
			"subspace restore is 1.9x a fresh re-seed, want >= 2x (restore must skip the seed fit)"},
		{"sketch envelope", func(_ *ingestReport, _ *sketchReport, n *snapshotReport) { n.SketchVsSubspaceSize = 0.11 },
			"sketch snapshot is 0.11x the subspace envelope, want <= 0.10x"},
		{"every inclusive bound met exactly", func(i *ingestReport, s *sketchReport, n *snapshotReport) {
			i.SpeedupVsCSV, i.V2AllocsPerBin, i.V2SpeedupVsV1, i.ReadReduction = 5, 0.05, 1.5, 10
			i.XORCompression, i.XORVsV1Ratio, i.XORVsRawRatio = 2, 1.3, 2.2
			s.SpeedupVsCovTracker = 2
			n.SubspaceRestoreSpeedup, n.SketchVsSubspaceSize = 2, 0.1
		}, ""},
	}
	if len(snap.Backends) != 5 {
		t.Fatalf("committed snapshot report covers %d backends, want 5", len(snap.Backends))
	}
	for k, bk := range snap.Backends {
		cases = append(cases, gateCase{bk.Backend + " not canonical", func(_ *ingestReport, _ *sketchReport, n *snapshotReport) { n.Backends[k].Canonical = false },
			bk.Backend + " snapshot does not re-encode byte-for-byte after restore"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			i, s, n := *ing, *sk, *snap
			n.Backends = slices.Clone(snap.Backends)
			c.mutate(&i, &s, &n)
			var want []string
			if c.want != "" {
				want = []string{c.want}
			}
			if got := failedGates(&i, &s, &n); !slices.Equal(got, want) {
				t.Errorf("failedGates = %q, want %q", got, want)
			}
		})
	}
}
