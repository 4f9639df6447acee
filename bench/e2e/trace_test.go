package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		0: {"root", 0, 100, -1, 0},
		// Adjacent children: together they cover 10..50.
		1: {"a", 10, 30, 0, 0},
		2: {"b", 30, 50, 0, 0},
		// Nested: a grandchild takes from its parent, not from the root.
		3: {"a.inner", 12, 20, 1, 0},
		// Overlapping the previous child and sticking out of the parent:
		// only 60..100 of it is new cover.
		4: {"c", 60, 130, 0, 0},
		5: {"d", 70, 90, 0, 0}, // wholly inside c: no new cover
		// A second root with a child recorded out of start order.
		6: {"root2", 200, 260, -1, 1},
		7: {"late", 240, 250, 6, 1},
		8: {"early", 205, 215, 6, 1},
	}
	got := selfTimes(spans)
	want := []int64{
		0: 100 - 40 - 40, // a+b cover 40, c covers 40 inside the root
		1: 20 - 8,
		2: 20,
		3: 8,
		4: 70,
		5: 20,
		6: 60 - 20,
		7: 10,
		8: 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTotalsByName(t *testing.T) {
	spans := []span{
		{"batch", 0, 10, -1, 0}, {"core.process", 2, 6, 0, 0},
		{"batch", 10, 30, -1, 1}, {"core.process", 12, 20, 2, 1},
	}
	totals := totalsByName(spans)
	if b := totals["batch"]; b.count != 2 || b.dur != 30 || b.self != 30-12 {
		t.Errorf("batch totals = %+v", b)
	}
	if p := totals["core.process"]; p.count != 2 || p.dur != 12 || p.self != 12 || median(p.durSamples) != 6 {
		t.Errorf("core.process totals = %+v", p)
	}
}

func TestBuildSpansParentsAndSelfTime(t *testing.T) {
	// Two batches. The worker is idle when batch 0 is queued (it starts
	// 5 after Ingest returns: wake-up, the engine's own time) and busy
	// when batch 1 is queued (it starts right after batch 0's callback).
	rec := newRecorder(2)
	copy(rec.decodeStart, []int64{0, 20})
	copy(rec.decodeEnd, []int64{10, 30})
	copy(rec.ingestStart, []int64{10, 30})
	copy(rec.ingestEnd, []int64{15, 35})
	copy(rec.processStart, []int64{20, 62})
	copy(rec.processEnd, []int64{50, 90})
	rec.emits = []emitRecord{{batch: 0, start: 52, end: 60}}
	spans := buildSpans(rec, 2, false)

	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s)
		if s.parent >= 0 && spans[s.parent].batch != s.batch {
			t.Errorf("span %+v has a parent of another batch", s)
		}
	}
	eb := byName["engine.batch"]
	if len(eb) != 2 || eb[0].start != 15 || eb[0].end != 60 || eb[1].start != 60 || eb[1].end != 90 {
		t.Fatalf("engine.batch spans = %+v", eb)
	}
	totals := totalsByName(spans)
	// Batch 0: 45 long, 30 in the detector, 8 in the callback. Batch 1: 30
	// long, 28 in the detector.
	if got := totals["engine.batch"].self; got != (45-30-8)+(30-28) {
		t.Errorf("engine.batch self time = %d, want 9", got)
	}
	if got := totals["batch"]; got.count != 2 || got.dur != 60+70 {
		t.Errorf("root spans = %+v", got)
	}
}

func TestWriteSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []span{{"batch", 0, 10, -1, 0}, {"core.process", 2, 6, 0, 0}}
	if err := writeSpans(path, "w", spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Names    []string
		Spans    [][]int64
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v\n%s", err, data)
	}
	if doc.Workload != "w" || !reflect.DeepEqual(doc.Names, []string{"batch", "core.process"}) ||
		!reflect.DeepEqual(doc.Spans, [][]int64{{0, 0, 10, -1, 0}, {1, 2, 6, 0, 0}}) {
		t.Errorf("trace file = %+v", doc)
	}
}
