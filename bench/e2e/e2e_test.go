package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCoalesceMergesTickSplits(t *testing.T) {
	in := []incidentRecord{
		{"flow a->b", 100, 103, 4},
		{"flow c->d", 101, 101, 1}, // another key in between does not matter
		{"flow a->b", 104, 107, 4}, // split by a tick: 1 bin after the first piece
		{"flow a->b", 116, 120, 5}, // 9 bins later: a distinct incident
		{"flow c->d", 109, 109, 1}, // exactly the quiet period later: merges
	}
	got := coalesce(in, 8)
	want := []incidentRecord{
		{"flow a->b", 100, 107, 8},
		{"flow c->d", 101, 109, 2},
		{"flow a->b", 116, 120, 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("coalesce = %v, want %v", got, want)
	}
	if got := keepBefore(got, 109); len(got) != 1 || got[0].end != 107 {
		t.Errorf("keepBefore(109) = %v", got)
	}
}

func TestDiffRecords(t *testing.T) {
	a := []alarmRecord{{1, "x"}, {2, "y"}, {2, "y"}, {3, "z"}}
	b := []alarmRecord{{2, "y"}, {1, "x"}, {3, "w"}}
	// Missing from b: one {2,y} and {3,z}; extra in b: {3,w}.
	if got := diffRecords(a, b); got != 3 {
		t.Errorf("diffRecords = %d, want 3", got)
	}
	if got := diffRecords(a, a); got != 0 {
		t.Errorf("diffRecords of equal lists = %d, want 0", got)
	}
}

// TestBenchmarkJSONMatchesTheCode pins BENCHMARK.json to the benchmark:
// the workloads and every metric's name, unit and direction are written
// down twice, once for the driver and once for the code that measures.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the code %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: its reason must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s, %s], the code %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, s.name, s.unit, s.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v out of contract", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of contract", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// TestSmoke runs the smallest workload end to end, tracing off and on:
// it builds ingestd, drives both processes over TCP, checks the output
// against the reference and runs the traced pipeline, so the harness
// cannot rot unnoticed. It takes about ten seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real ingestd; skipped under -short")
	}
	env, err := prepare(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("abilene-subspace")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		res, err := runOnce(env, w, 1, 1.5, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("traced=%v: %d of %d operations failed: %v", traced, res.failed, res.attempted, res.failures)
		}
		for _, s := range res.specs {
			v, ok := res.metrics[s.name]
			if !ok {
				t.Errorf("traced=%v: metric %s was not reported", traced, s.name)
			}
			if !traced && v <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", s.name, v)
			}
		}
		if len(res.metrics) != len(res.specs) {
			t.Errorf("traced=%v: %d metrics reported, %d specified", traced, len(res.metrics), len(res.specs))
		}
		if traced {
			if _, err := os.Stat(filepath.Join(env.outDir, "trace-abilene-subspace.json")); err != nil {
				t.Errorf("the traced run left no span file: %v", err)
			}
			for _, name := range []string{"core.detect_ns_per_bin", "netmeas.decode_ns_per_bin", "backend.sketch.process_ns_per_bin", "trace.overhead_ratio"} {
				if res.metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.metrics[name])
				}
			}
		}
	}
}
