package netanomaly_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"netanomaly"
)

func TestPublicAPIQuickstart(t *testing.T) {
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(42)
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flow := topo.FlowID(2, 7)
	netanomaly.InjectAnomalies(od, []netanomaly.Anomaly{{Flow: flow, Bin: 500, Delta: 9e7}})
	links := netanomaly.LinkLoads(topo, od)
	diag, err := netanomaly.NewDiagnoser(links, topo, netanomaly.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range diag.DiagnoseSeries(links) {
		if a.Bin == 500 {
			found = true
			if a.Flow != flow {
				t.Fatalf("identified flow %d want %d", a.Flow, flow)
			}
			if math.Abs(a.Bytes-9e7)/9e7 > 0.3 {
				t.Fatalf("quantified %v want ~9e7", a.Bytes)
			}
		}
	}
	if !found {
		t.Fatal("quickstart anomaly not diagnosed")
	}
}

func TestNewDiagnoserDimensionCheck(t *testing.T) {
	topo := netanomaly.Abilene()
	if _, err := netanomaly.NewDiagnoser(netanomaly.NewMatrix(10, 3, nil), topo, netanomaly.Options{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestNewOnlineDetectorDimensionCheck(t *testing.T) {
	topo := netanomaly.Abilene()
	if _, err := netanomaly.NewOnlineDetector(netanomaly.NewMatrix(10, 3, nil), topo, netanomaly.OnlineConfig{Window: 5}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSyntheticTopologyExported(t *testing.T) {
	topo := netanomaly.SyntheticTopology(6, 8, 3)
	if topo.NumPoPs() != 6 || topo.NumLinks() != 6+16 {
		t.Fatalf("synthetic topology dims: %d PoPs %d links", topo.NumPoPs(), topo.NumLinks())
	}
}

func TestTopologyBuilderExported(t *testing.T) {
	b := netanomaly.NewTopologyBuilder("tiny")
	b.AddPoP("a")
	b.AddPoP("b")
	b.AddDuplex("a", "b")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumLinks() != 4 {
		t.Fatalf("links = %d", topo.NumLinks())
	}
}

func TestMultiFlowCandidates(t *testing.T) {
	topo := netanomaly.Abilene()
	cands := netanomaly.MultiFlowCandidates(topo)
	if len(cands) != topo.NumPoPs() {
		t.Fatalf("candidates = %d", len(cands))
	}
	for dst, set := range cands {
		if len(set) != topo.NumPoPs()-1 {
			t.Fatalf("candidate %d has %d flows", dst, len(set))
		}
		for _, f := range set {
			_, d := topo.FlowEndpoints(f)
			if d != dst {
				t.Fatalf("candidate %d contains flow to %d", dst, d)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := netanomaly.NewMatrix(3, 2, []float64{1, 2.5, -3, 4e7, 0, 6})
	var buf bytes.Buffer
	if err := netanomaly.WriteMatrixCSV(&buf, m, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	got, header, err := netanomaly.ReadMatrixCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(header) != 2 || header[0] != "a" {
		t.Fatalf("header = %v", header)
	}
	r, c := got.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("dims = %dx%d", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("(%d,%d) = %v want %v", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestCSVNoHeader(t *testing.T) {
	m := netanomaly.NewMatrix(2, 2, []float64{1, 2, 3, 4})
	var buf bytes.Buffer
	if err := netanomaly.WriteMatrixCSV(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	got, header, err := netanomaly.ReadMatrixCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if header != nil {
		t.Fatalf("unexpected header %v", header)
	}
	if got.At(1, 1) != 4 {
		t.Fatal("values wrong")
	}
}

func TestCSVHeaderWithNumericFirstColumn(t *testing.T) {
	// A header whose first cell parses as a number ("0","linkA") used to
	// be consumed as a data row — the first cell was the only one
	// inspected — failing with a confusing row-0 parse error. Any
	// non-numeric cell anywhere in the first record now marks it as a
	// header.
	in := "0,linkA\n1.5,2.5\n3.5,4.5\n"
	got, header, err := netanomaly.ReadMatrixCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(header) != 2 || header[0] != "0" || header[1] != "linkA" {
		t.Fatalf("header = %v, want [0 linkA]", header)
	}
	r, c := got.Dims()
	if r != 2 || c != 2 || got.At(0, 0) != 1.5 || got.At(1, 1) != 4.5 {
		t.Fatalf("data = %dx%d %v", r, c, got)
	}
}

func TestCSVMixedHeaderLastCellNumeric(t *testing.T) {
	// The non-numeric cell can be anywhere, including not-first.
	in := "linkA,1\n1,2\n"
	got, header, err := netanomaly.ReadMatrixCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(header) != 2 || header[0] != "linkA" {
		t.Fatalf("header = %v", header)
	}
	if got.Rows() != 1 || got.At(0, 1) != 2 {
		t.Fatalf("data wrong: %v", got)
	}
}

func TestCSVAllNumericHeaderReadAsData(t *testing.T) {
	// An all-numeric header is indistinguishable from data and is
	// documented to be read as the first row — the caller must omit such
	// headers (WriteMatrixCSV with nil header) or include a non-numeric
	// name.
	in := "0,1\n2,3\n"
	got, header, err := netanomaly.ReadMatrixCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if header != nil {
		t.Fatalf("all-numeric first record misread as header %v", header)
	}
	if got.Rows() != 2 || got.At(0, 1) != 1 {
		t.Fatalf("data wrong: %v", got)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, _, err := netanomaly.ReadMatrixCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV must error")
	}
	if _, _, err := netanomaly.ReadMatrixCSV(strings.NewReader("a,b\n")); err == nil {
		t.Fatal("header-only CSV must error")
	}
	if _, _, err := netanomaly.ReadMatrixCSV(strings.NewReader("1,2\n3,x\n")); err == nil {
		t.Fatal("bad number must error")
	}
	m := netanomaly.NewMatrix(1, 2, []float64{1, 2})
	var buf bytes.Buffer
	if err := netanomaly.WriteMatrixCSV(&buf, m, []string{"only-one"}); err == nil {
		t.Fatal("header length mismatch must error")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	m := netanomaly.NewMatrix(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err := netanomaly.SaveMatrixCSV(path, m, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := netanomaly.LoadMatrixCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(1, 2) != 6 {
		t.Fatal("file round trip wrong")
	}
	if _, _, err := netanomaly.LoadMatrixCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestBinaryPublicAPI exercises the binary wire format through the
// public surface: bit-exact round trips in memory and on disk, the
// corrupt-versus-truncated error split, and the two streaming
// consumers — StreamBinary into IngestStream and the pooled
// Monitor.IngestBinary — detecting an injected spike end to end.
func TestBinaryPublicAPI(t *testing.T) {
	m := netanomaly.NewMatrix(3, 2, []float64{1, -2.5, 3e9, 0, 5e-300, 6})
	var buf bytes.Buffer
	if err := netanomaly.WriteMatrixBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	got, err := netanomaly.ReadMatrixBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("round trip changed value at %d,%d: %v -> %v", i, j, m.At(i, j), got.At(i, j))
			}
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "m.bin")
	if err := netanomaly.SaveMatrixBinary(path, m); err != nil {
		t.Fatal(err)
	}
	if got, err = netanomaly.LoadMatrixBinary(path); err != nil {
		t.Fatal(err)
	}
	if got.At(2, 1) != 6 {
		t.Fatal("file round trip wrong")
	}
	if _, err := netanomaly.LoadMatrixBinary(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file must error")
	}

	// Corrupt magic is a format error; a stream cut mid-frame is not.
	bad := append([]byte(nil), wire...)
	bad[0] = 'X'
	if _, err := netanomaly.ReadMatrixBinary(bytes.NewReader(bad)); !errors.Is(err, netanomaly.ErrBinaryFormat) {
		t.Fatalf("corrupt magic returned %v, want ErrBinaryFormat", err)
	}
	if _, err := netanomaly.ReadMatrixBinary(bytes.NewReader(wire[:len(wire)-5])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream returned %v, want io.ErrUnexpectedEOF", err)
	}

	// End to end: a spiked stream encoded to the wire format and ingested
	// two ways must raise the same alarm.
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(23)
	cfg.Bins = 1008 + 96
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flow := topo.FlowID(1, 6)
	netanomaly.InjectAnomalies(od, []netanomaly.Anomaly{{Flow: flow, Bin: 1008 + 40, Delta: 9e7}})
	links := netanomaly.LinkLoads(topo, od)
	nl := links.Cols()
	history := netanomaly.NewMatrix(1008, nl, links.RawData()[:1008*nl])
	stream := netanomaly.NewMatrix(96, nl, links.RawData()[1008*nl:])
	var wireBuf bytes.Buffer
	if err := netanomaly.WriteMatrixBinary(&wireBuf, stream); err != nil {
		t.Fatal(err)
	}
	streamWire := wireBuf.Bytes()

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{Workers: 2, BatchSize: 32})
	defer mon.Close()
	for _, view := range []string{"pooled", "channel"} {
		if err := netanomaly.AddView(mon, view, history, topo); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := netanomaly.NewBinaryDecoder(bytes.NewReader(streamWire))
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.IngestBinary("pooled", dec); err != nil {
		t.Fatal(err)
	}
	ch, errFn, err := netanomaly.StreamBinary(context.Background(), bytes.NewReader(streamWire))
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.IngestStream("channel", ch); err != nil {
		t.Fatal(err)
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
	mon.Flush()
	hits := make(map[string]bool)
	for _, a := range mon.TakeAlarms() {
		if a.Seq == 40 {
			hits[a.View] = true
			if a.Flow != flow {
				t.Fatalf("view %q identified flow %d want %d", a.View, a.Flow, flow)
			}
		}
	}
	for _, view := range []string{"pooled", "channel"} {
		if !hits[view] {
			t.Fatalf("view %q missed the injected spike", view)
		}
	}
}

// TestAddViewBackendsViaPublicAPI exercises the backend-selecting
// AddView options and channel-driven ingestion end to end through the
// public surface: one monitor, eight shards (one per detector kind
// except hybrid, which has its own end-to-end test), one of them fed
// from a StreamMatrix channel.
func TestAddViewBackendsViaPublicAPI(t *testing.T) {
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(11)
	cfg.Bins = 1024 + 128 // dyadic seed so the multiscale backend fits
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flow := topo.FlowID(4, 9)
	netanomaly.InjectAnomalies(od, []netanomaly.Anomaly{{Flow: flow, Bin: 1024 + 60, Delta: 9e7}})
	links := netanomaly.LinkLoads(topo, od)
	m := links.Cols()
	history := netanomaly.NewMatrix(1024, m, links.RawData()[:1024*m])
	stream := netanomaly.NewMatrix(128, m, links.RawData()[1024*m:])

	ms, err := netanomaly.DeriveLinkMetrics(topo, od, netanomaly.LinkMetricConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := netanomaly.StackMatrices(ms.Bytes, ms.FlowCounts, ms.MeanPacketSize)
	if err != nil {
		t.Fatal(err)
	}
	stackedHistory := netanomaly.NewMatrix(1024, 3*m, stacked.RawData()[:1024*3*m])
	stackedStream := netanomaly.NewMatrix(128, 3*m, stacked.RawData()[1024*3*m:])

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{Workers: 4, BatchSize: 32})
	defer mon.Close()
	for name, opts := range map[string][]netanomaly.ViewOption{
		"subspace":    nil,
		"incremental": {netanomaly.WithDetector(netanomaly.DetectorIncremental), netanomaly.WithLambda(0.999)},
		"multiscale":  {netanomaly.WithDetector(netanomaly.DetectorMultiscale), netanomaly.WithLevels(2)},
		"ewma":        {netanomaly.WithDetector(netanomaly.DetectorEWMA), netanomaly.WithThresholdK(6)},
		"holtwinters": {netanomaly.WithDetector(netanomaly.DetectorHoltWinters), netanomaly.WithAlpha(0.3), netanomaly.WithBeta(0.1)},
		"fourier":     {netanomaly.WithDetector(netanomaly.DetectorFourier)},
		"sketch":      {netanomaly.WithDetector(netanomaly.DetectorSketch)},
	} {
		if err := netanomaly.AddView(mon, name, history, topo, opts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := netanomaly.AddView(mon, "multiflow", stackedHistory, topo,
		netanomaly.WithDetector(netanomaly.DetectorMultiFlow), netanomaly.WithQuorum(2)); err != nil {
		t.Fatal(err)
	}
	// Stacked history on a single-metric backend must be rejected.
	if err := netanomaly.AddView(mon, "bad", stackedHistory, topo); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("stacked history accepted by subspace backend: %v", err)
	}

	if err := mon.IngestStream("subspace", netanomaly.StreamMatrix(context.Background(), stream, 0)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"incremental", "multiscale", "ewma", "holtwinters", "fourier", "sketch"} {
		if err := mon.Ingest(v, stream); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Ingest("multiflow", stackedStream); err != nil {
		t.Fatal(err)
	}
	mon.Flush()
	if errs := mon.Errs(); len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	hits := make(map[string]bool)
	for _, a := range mon.TakeAlarms() {
		if a.Seq >= 56 && a.Seq <= 60 { // multiscale reports the region start
			hits[a.View] = true
		}
	}
	for _, v := range []string{"subspace", "incremental", "multiscale", "multiflow", "ewma", "holtwinters", "fourier", "sketch"} {
		if !hits[v] {
			t.Fatalf("view %q missed the injected spike", v)
		}
		stats, err := mon.ViewStats(v)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Backend != v {
			t.Fatalf("view %q reports backend %q", v, stats.Backend)
		}
		if stats.Processed != 128 {
			t.Fatalf("view %q processed %d bins", v, stats.Processed)
		}
	}
}

func TestOnlineDetectorViaPublicAPI(t *testing.T) {
	topo := netanomaly.SprintEurope()
	cfg := netanomaly.DefaultTrafficConfig(7)
	cfg.Bins = 1008
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := netanomaly.LinkLoads(topo, od)
	det, err := netanomaly.NewOnlineDetector(links, topo, netanomaly.OnlineConfig{Window: 1008})
	if err != nil {
		t.Fatal(err)
	}
	row := od.Row(200)
	row[topo.FlowID(0, 5)] += 2e8
	y := netanomaly.LinkLoads(topo, netanomaly.NewMatrix(1, len(row), row)).Row(0)
	al, anomalous, err := det.Process(y)
	if err != nil {
		t.Fatal(err)
	}
	if !anomalous {
		t.Fatal("online detector missed a 2e8-byte spike")
	}
	if al.Flow != topo.FlowID(0, 5) {
		t.Fatalf("online alarm flow %d", al.Flow)
	}
}

// TestMonitorLoadOptionsViaPublicAPI drives the load-safety surface the
// way an operator would: bounded queues, an overload policy and an
// elastic pool configured through NewMonitor options, with Stats and
// QueueStats reconciling against the processed stream afterwards.
func TestMonitorLoadOptionsViaPublicAPI(t *testing.T) {
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(13)
	cfg.Bins = 300
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := netanomaly.LinkLoads(topo, od)
	m := links.Cols()
	history := netanomaly.NewMatrix(200, m, links.RawData()[:200*m])
	stream := netanomaly.NewMatrix(100, m, links.RawData()[200*m:])

	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{BatchSize: 16},
		netanomaly.WithMaxPending(32),
		netanomaly.WithOverloadPolicy(netanomaly.OverloadBlock),
		netanomaly.WithAutoscale(1, 2),
	)
	defer mon.Close()
	if err := netanomaly.AddView(mon, "v", history, topo); err != nil {
		t.Fatal(err)
	}
	if err := mon.Ingest("v", stream); err != nil {
		t.Fatal(err)
	}
	mon.Flush()

	st := mon.Stats()
	if st.EnqueuedBins != 100 || st.DroppedBins != 0 || st.RejectedBins != 0 {
		t.Fatalf("block-policy run lost bins: %+v", st)
	}
	if st.WorkersHighWater < 1 || st.WorkersHighWater > 2 {
		t.Fatalf("autoscaled pool outside [1,2]: %+v", st)
	}
	qs, err := mon.QueueStats("v")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := mon.ViewStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if qs.EnqueuedBins-qs.DroppedBins != int64(vs.Processed) {
		t.Fatalf("public counters do not reconcile: %+v vs processed %d", qs, vs.Processed)
	}

	if _, err := netanomaly.ParseOverloadPolicy("dropoldest"); err != nil {
		t.Fatal(err)
	}
	if _, err := netanomaly.ParseOverloadPolicy("nonsense"); err == nil {
		t.Fatal("bad overload policy name accepted")
	}
}
