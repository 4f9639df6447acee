package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the traced
// run began; parent indexes the span list (-1 for a root); spans of one
// batch share its id.
type span struct {
	name       string
	start, end int64
	parent     int
	batch      int
}

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover. Children may overlap each
// other or stick out of the parent; only the covered part of the
// parent's own interval is subtracted.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		if s.parent >= 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.parent != sb.parent {
			return sa.parent < sb.parent
		}
		return sa.start < sb.start
	})
	for i := 0; i < len(order); {
		p := spans[order[i]].parent
		parent := spans[p]
		covered, reach := int64(0), parent.start
		for ; i < len(order) && spans[order[i]].parent == p; i++ {
			c := spans[order[i]]
			lo, hi := max(c.start, reach), min(c.end, parent.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p] -= covered
	}
	return self
}

// layerTotal sums the spans of one name: how many, their durations and
// their self times.
type layerTotal struct {
	count      int
	dur, self  int64
	durSamples []float64 // per-span durations, for medians
}

func totalsByName(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i, s := range spans {
		t := out[s.name]
		if t == nil {
			t = &layerTotal{}
			out[s.name] = t
		}
		t.count++
		t.dur += s.dur()
		t.self += self[i]
		t.durSamples = append(t.durSamples, float64(s.dur()))
	}
	return out
}

// writeSpans dumps the spans kept in memory during the traced run as
// compact JSON: a name table and one [name, start_ns, end_ns, parent,
// batch] row per span.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	ids := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := ids[s.name]; !ok {
			ids[s.name] = len(names)
			names = append(names, s.name)
		}
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"batch\"],\"names\":[", workload)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"spans\":[\n")
	var row []byte
	for i, s := range spans {
		row = row[:0]
		if i > 0 {
			row = append(row, ",\n"...)
		}
		row = append(row, '[')
		row = strconv.AppendInt(row, int64(ids[s.name]), 10)
		for _, v := range []int64{s.start, s.end, int64(s.parent), int64(s.batch)} {
			row = append(row, ',')
			row = strconv.AppendInt(row, v, 10)
		}
		row = append(row, ']')
		w.Write(row)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
