package main

import (
	"testing"
	"time"
)

// The lines below were captured from cmd/ingestd runs (Abilene, the
// subspace backend with per-bin alarms and the hybrid backend with
// -incidents); if a parser stops matching them, ingestd's output format
// and the benchmark have drifted apart.

func TestParseListening(t *testing.T) {
	addr, ok := parseListening([]byte("ingestd: listening on tcp 127.0.0.1:46757\n"))
	if !ok || addr != "127.0.0.1:46757" {
		t.Errorf("listening line: %q, %v", addr, ok)
	}
	for _, line := range []string{
		"ingestd: listening on unix /tmp/na.sock\n",
		"ingestd: hybrid model seeded on 1008 bins (Abilene: 41 links, rank 3)\n",
	} {
		if _, ok := parseListening([]byte(line)); ok {
			t.Errorf("parseListening matched %q", line)
		}
	}
}

func TestParseRestored(t *testing.T) {
	at, ok := parseRestored([]byte("ingestd: sketch model restored from /tmp/ck/checkpoint.nams at bin 1729728 (Abilene: 41 links, rank 3)\n"))
	if !ok || at != 1729728 {
		t.Errorf("restored line: %d, %v", at, ok)
	}
	if _, ok := parseRestored([]byte("ingestd: subspace model seeded on 1008 bins (Abilene: 41 links, rank 3)\n")); ok {
		t.Error("parseRestored matched the cold-start line")
	}
	if _, ok := parseRestored([]byte("ingestd: incident state restored: 2 open\n")); ok {
		t.Error("parseRestored matched the incident-state line")
	}
}

func TestParseAlarm(t *testing.T) {
	seq, flow, ok := parseAlarm([]byte("alarm bin 42: SPE 1.68e+16 > 3.437e+15, flow atla->sttl, -1.63e+08 bytes\n"))
	if !ok || seq != 42 || string(flow) != "atla->sttl" {
		t.Errorf("alarm line: %d %q %v", seq, flow, ok)
	}
	// An unattributed alarm prints "-" for the flow.
	seq, flow, ok = parseAlarm([]byte("alarm bin 1234567: SPE 2 > 1, flow -, 0 bytes\n"))
	if !ok || seq != 1234567 || string(flow) != "-" {
		t.Errorf("unattributed alarm line: %d %q %v", seq, flow, ok)
	}
	for _, line := range []string{
		"incident #0 open: flow atla->sttl, start bin 0, SPE 1.68e+16\n",
		"alarm bin x: SPE\n",
		"ingestd: 1 streams, 92 bins processed, 92 alarms, 0 refits; dropped 0 bins, rejected 0\n",
	} {
		if _, _, ok := parseAlarm([]byte(line)); ok {
			t.Errorf("parseAlarm matched %q", line)
		}
	}
}

func TestParseIncident(t *testing.T) {
	open, ok := parseIncident([]byte("incident #1 open: flow ipls->ipls, start bin 10, SPE 1.614e+16\n"))
	if !ok || open != (incidentLine{id: 1, what: "flow ipls->ipls", start: 10}) {
		t.Errorf("open line: %+v, %v", open, ok)
	}
	closed, ok := parseIncident([]byte("incident #1 closed: flow ipls->ipls, bins 10..31, peak SPE 2.065e+16, 8.001e+07 bytes, 9 alarms, 1 views, severity 4.544e+17\n"))
	if !ok || closed != (incidentLine{id: 1, closed: true, what: "flow ipls->ipls", start: 10, end: 31, alarms: 9}) {
		t.Errorf("closed line: %+v, %v", closed, ok)
	}
	unattributed, ok := parseIncident([]byte("incident #17 open: view net (unattributed), start bin 4100, SPE 3e+15\n"))
	if !ok || unattributed.what != "view net (unattributed)" || unattributed.start != 4100 || unattributed.id != 17 {
		t.Errorf("unattributed open line: %+v, %v", unattributed, ok)
	}
	for _, line := range []string{
		"ingestd: incidents: 4 opened, 3 closed, 1 still open; 88 alarms merged, 0 evicted\n",
		"incident #2 reopened: flow a->b, start bin 3\n",
		"incident #2 closed: flow a->b, bins 3\n",
	} {
		if _, ok := parseIncident([]byte(line)); ok {
			t.Errorf("parseIncident matched %q", line)
		}
	}
}

func TestParseStats(t *testing.T) {
	var fs finalStats
	lines := []string{
		"ingestd: hybrid model seeded on 1008 bins (Abilene: 41 links, rank 3)\n",
		"ingestd: tcp:127.0.0.1:51234: stream done (v2 raw x64), 92 bins enqueued\n",
		"ingestd: checkpoint written to cap/ck/checkpoint.nams\n",
		"ingestd: view \"net\" queue: depth high-water 4096 bins, enqueued 92, dropped 0 bins (0 batches), rejected 0\n",
	}
	for _, line := range lines {
		if fs.parseStats([]byte(line)) {
			t.Errorf("%q taken for the final line", line)
		}
	}
	if !fs.parseStats([]byte("ingestd: 1 streams, 92 bins processed, 90 alarms, 3 refits; dropped 5 bins, rejected 7\n")) {
		t.Fatal("final line not recognised")
	}
	want := finalStats{
		streams: 1, processed: 92, alarms: 90, refits: 3, dropped: 5, rejected: 7,
		depthHighWater: 4096, enqueued: 92, streamEnqueued: 92,
		seenFinal: true, seenQueue: true, seenStream: true,
	}
	if fs != want {
		t.Errorf("stats = %+v\nwant    %+v", fs, want)
	}
	if fs.parseStats([]byte("ingestd: incidents: 4 opened, 3 closed, 1 still open; 88 alarms merged, 0 evicted\n")) {
		t.Error("the incidents summary was taken for the final line")
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (ingestd (x) y) S 1 4242 4242 0 -1 4194560 500 0 0 0 123 45 0 0 20 0 5 0 100 1000000 200 18446744073709551615\n"
	got, err := parseStatCPU(stat)
	if err != nil || got != (123+45)*10*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 1.68s", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tingestd\nVmPeak:\t 1234567 kB\nVmHWM:\t   86016 kB\nVmRSS:\t   4096 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 84 {
		t.Errorf("parseVmHWM = %v, %v; want 84 MiB", got, err)
	}
	// A zombie's status file has no Vm lines at all.
	if _, err := parseVmHWM("Name:\tingestd\nState:\tZ (zombie)\n"); err == nil {
		t.Error("parseVmHWM found a peak in a zombie's status")
	}
	if _, err := parseVmHWM("VmHWM:\tlots\n"); err == nil {
		t.Error("parseVmHWM accepted a malformed line")
	}
}

func TestLeadingInt(t *testing.T) {
	if v, ok := leadingInt([]byte("12345 rest")); !ok || v != 12345 {
		t.Errorf("leadingInt = %d, %v", v, ok)
	}
	if _, ok := leadingInt([]byte("x1")); ok {
		t.Error("leadingInt accepted a non-digit")
	}
	if _, ok := leadingInt([]byte("1234567890123456789012")); ok {
		t.Error("leadingInt accepted a number that overflows")
	}
}
