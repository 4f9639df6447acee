package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"netanomaly"
)

// Trace sizes, identical for every workload and every commit: one week
// of history seeds the model, four weeks of stream (63 v2 frames of 64
// bins) are replayed in a loop. Four whole weeks keep the diurnal and
// weekly phase continuous where the loop wraps.
const (
	historyBins  = 1008
	streamBins   = 4032
	frameBins    = 64
	streamFrames = streamBins / frameBins
	maxPending   = 4096
	viewName     = "net"
)

// workload is one named input mix: a topology, the ingestd flags that
// select the backend, the wire codec, and the anomaly shape.
type workload struct {
	name string
	why  string
	// topology: the flag ingestd gets and the constructor the generator
	// uses. They are kept side by side because trafficgen and ingestd
	// disagree on where a synthetic topology's seed comes from (see
	// README.md).
	topoFlag string
	topo     func() *netanomaly.Topology
	detector netanomaly.DetectorKind
	// incidents runs ingestd with -incidents: output is incident
	// transitions instead of per-bin alarm lines.
	incidents bool
	// liveRefit is process B's -refit, in bins; the replay always runs
	// with -refit 0 so its output is reproducible bin for bin.
	liveRefit int
	codec     netanomaly.Codec
	// anomalyBins is the length of the anomaly injected into every frame:
	// 1 is a single-bin spike, 8 a sustained flood.
	anomalyBins int
	livePeriod  time.Duration
	// verifyLoops stream loops of the replay are compared line for line
	// with an in-process reference; the reference costs as much CPU as
	// ingestd spends on the same bins, which is what bounds it.
	verifyLoops int
	// traceLoops stream loops make the traced in-process run.
	traceLoops int
	// replayLoops is the replay work of a whole run at the nominal run
	// length, sized for about six seconds on the two-core sandbox;
	// -seconds scales it.
	replayLoops int
	// rounds is how many times a run plays the two-process scenario: many
	// where a start-up costs 0.13 s, few where it costs 1.4 s. replayLoops
	// and the live phase are shared evenly between them.
	rounds int
}

// nominalSeconds is the -seconds value the loop counts are sized for.
const nominalSeconds = 18

// trafficSeed fixes the traffic realization every workload is built on;
// the run's -seed draws where the anomalies go and on which flows. The
// traffic cannot follow -seed as well: across ten traffic seeds the
// 3-sigma rule picks ranks from 1 to 7 on Abilene and the false-alarm
// rate at 120 links runs from 0.1 % to 2 %, which moves replay throughput
// by a factor of two (and the sketch's, whose size is four times the
// rank, likewise) — a workload whose cost doubles from seed to seed
// cannot hold a regression bound.
const trafficSeed = 1

var workloads = []workload{
	{
		name:     "abilene-subspace",
		why:      "the paper's method at the paper's scale (41 links): the smallest bin, so decode, dispatch and the SPE kernel own replay and the window SVD owns live CPU",
		topoFlag: "abilene", topo: netanomaly.Abilene,
		detector: netanomaly.DetectorSubspace, liveRefit: 2016,
		codec: netanomaly.CodecXOR, anomalyBins: 1, livePeriod: 16 * time.Millisecond,
		verifyLoops: 64, traceLoops: 400, replayLoops: 3000, rounds: 7,
	},
	{
		name:     "wide-subspace",
		why:      "same backend at 120 links and 900 flows: identification is O(flows x links), so identify and the seed SVD do the work and decode almost none",
		topoFlag: "synthetic:30:45:7", topo: wideTopology,
		detector: netanomaly.DetectorSubspace, liveRefit: 0,
		codec: netanomaly.CodecRaw, anomalyBins: 1, livePeriod: 16 * time.Millisecond,
		verifyLoops: 64, traceLoops: 60, replayLoops: 300, rounds: 3,
	},
	{
		name:     "abilene-hybrid-storm",
		why:      "forecast triage on every bin, subspace only on escalated bins, and an 8-bin flood per frame: forecast, identify, OnAlarm and the incident correlator carry the run",
		topoFlag: "abilene", topo: netanomaly.Abilene,
		detector: netanomaly.DetectorHybrid, incidents: true, liveRefit: 0,
		codec: netanomaly.CodecRaw, anomalyBins: 8, livePeriod: 16 * time.Millisecond,
		verifyLoops: 64, traceLoops: 150, replayLoops: 750, rounds: 7,
	},
	{
		name:     "wide-sketch",
		why:      "the backend the README recommends for wide networks: refits are cheap but every batch pays a Frequent-Directions update, so per-bin model maintenance is everything",
		topoFlag: "synthetic:30:45:7", topo: wideTopology,
		detector: netanomaly.DetectorSketch, liveRefit: 1008,
		codec: netanomaly.CodecRaw, anomalyBins: 1, livePeriod: 32 * time.Millisecond,
		verifyLoops: 2, traceLoops: 2, replayLoops: 12, rounds: 3,
	},
}

// wideTopology is synthetic:30:45:7 — 30 PoPs, 120 links, 900 flows, the
// width every BENCH_*.json already uses.
func wideTopology() *netanomaly.Topology { return netanomaly.SyntheticTopology(30, 45, 7) }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ingestdArgs returns the flags both processes share; the caller adds
// -refit and -checkpoint.
func (w workload) ingestdArgs(historyPath string) []string {
	args := []string{
		"-topology", w.topoFlag,
		"-history", historyPath,
		"-listen", "127.0.0.1:0",
		"-conns", "1",
		"-batch", fmt.Sprint(frameBins),
		"-max-pending", fmt.Sprint(maxPending),
		"-overload", "block",
		"-detector", string(w.detector),
	}
	if w.incidents {
		args = append(args, "-incidents")
	}
	return args
}

// anomaly is one injected event in stream coordinates: bins
// [start, start+len) of the 4032-bin stream, on one OD flow.
type anomaly struct {
	start, len int
	flow       int
}

// trace is everything generated from the seed: the seed history, the
// stream as a matrix and as encoded wire bytes, and the ground truth.
type trace struct {
	topo *netanomaly.Topology
	// od is the OD traffic with the anomalies injected; the multiflow row
	// of the backend table derives its stacked metrics from it.
	od      *netanomaly.Matrix
	history *netanomaly.Matrix
	stream  *netanomaly.Matrix
	// header is the 12-byte stream header; frames[i] is the i-th encoded
	// 64-bin frame and wire is all of them back to back, so a replay
	// writes the header once and wire once per loop.
	header []byte
	wire   []byte
	frames [][]byte
	// anomalies[i] is the event injected into frame i.
	anomalies []anomaly
	historyAt string // path of the history file ingestd loads

	generateS float64
	encodeS   float64
}

// generate builds the workload's trace through the public API, the way
// trafficgen -format binary would: OD traffic, anomalies injected where
// the seed says, link loads rounded to whole bytes.
func (w workload) generate(seed int64, dir string) (*trace, error) {
	begin := time.Now()
	topo := w.topo()
	cfg := netanomaly.DefaultTrafficConfig(trafficSeed)
	cfg.Bins = historyBins + streamBins
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		return nil, err
	}
	// Delta is a quarter of the mean network-wide bytes per bin: large
	// against any single flow, so every injection is detected and a
	// missed one is a failure of the system, not of the workload.
	total := 0.0
	for _, v := range od.RawData() {
		total += v
	}
	delta := 0.25 * total / float64(od.Rows())

	rng := rand.New(rand.NewSource(seed))
	tr := &trace{topo: topo, od: od}
	var inject []netanomaly.Anomaly
	for f := 0; f < streamFrames; f++ {
		// Offsets stay clear of the frame edges so consecutive events are
		// always more than a quiet period (8 bins) apart and never merge
		// into one incident.
		a := anomaly{start: f*frameBins + 8 + rng.Intn(frameBins-24), len: w.anomalyBins, flow: rng.Intn(topo.NumFlows())}
		tr.anomalies = append(tr.anomalies, a)
		for b := 0; b < a.len; b++ {
			inject = append(inject, netanomaly.Anomaly{Flow: a.flow, Bin: historyBins + a.start + b, Delta: delta})
		}
	}
	netanomaly.InjectAnomalies(od, inject)
	links := netanomaly.LinkLoads(topo, od)
	raw := links.RawData()
	for i, v := range raw {
		raw[i] = math.Round(v)
	}
	m := links.Cols()
	tr.history = netanomaly.NewMatrix(historyBins, m, raw[:historyBins*m])
	tr.stream = netanomaly.NewMatrix(streamBins, m, raw[historyBins*m:])

	encodeBegin := time.Now()
	var buf bytes.Buffer
	format := netanomaly.WireFormat{Version: 2, Codec: w.codec, BatchBins: frameBins}
	if err := netanomaly.WriteMatrixBinaryFormat(&buf, tr.stream, format); err != nil {
		return nil, err
	}
	tr.encodeS = time.Since(encodeBegin).Seconds()
	tr.header, tr.frames, err = splitFrames(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if len(tr.frames) != streamFrames {
		return nil, fmt.Errorf("encoded stream has %d frames, want %d", len(tr.frames), streamFrames)
	}
	tr.wire = buf.Bytes()[len(tr.header):]

	tr.historyAt = dir + "/week.bin"
	if err := netanomaly.SaveMatrixBinary(tr.historyAt, tr.history); err != nil {
		return nil, err
	}
	tr.generateS = time.Since(begin).Seconds()
	return tr, nil
}

// wireBytesPerBin is the encoded stream's cost on the wire.
func (tr *trace) wireBytesPerBin() float64 { return float64(len(tr.wire)) / streamBins }

// reader returns the bytes a replay of that many loops puts on the
// wire — the header, then the stream's frames loops times — without
// holding them all in memory.
func (tr *trace) reader(loops int) io.Reader {
	parts := make([]io.Reader, 0, loops+1)
	parts = append(parts, bytes.NewReader(tr.header))
	for i := 0; i < loops; i++ {
		parts = append(parts, bytes.NewReader(tr.wire))
	}
	return io.MultiReader(parts...)
}

const wireHeaderSize = 12

// splitFrames cuts an encoded v2 stream into its header and frames. A v2
// frame is uint32 bin count, uint32 payload length, payload; frames are
// self-contained under both codecs, which is what lets a replay repeat
// them behind a single header.
func splitFrames(stream []byte) (header []byte, frames [][]byte, err error) {
	if len(stream) < wireHeaderSize || string(stream[:4]) != "NAMB" || stream[4] != 2 {
		return nil, nil, fmt.Errorf("not a v2 binary stream")
	}
	header = stream[:wireHeaderSize]
	for rest := stream[wireHeaderSize:]; len(rest) > 0; {
		if len(rest) < 8 {
			return nil, nil, fmt.Errorf("truncated frame header: %d bytes left", len(rest))
		}
		n := 8 + int(binary.LittleEndian.Uint32(rest[4:8]))
		if n > len(rest) {
			return nil, nil, fmt.Errorf("frame of %d bytes overruns the stream (%d left)", n, len(rest))
		}
		frames = append(frames, rest[:n:n])
		rest = rest[n:]
	}
	return header, frames, nil
}
