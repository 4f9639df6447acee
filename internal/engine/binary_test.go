package engine

// Tests for the zero-copy binary ingest path: end-to-end decode into
// pooled batches, the release-exactly-once buffer lifecycle under
// detector errors, DropOldest eviction and Close mid-stream, and the
// allocation gate CI runs. All run under -race in CI.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
)

// countDetector counts bins and nothing else — it keeps the ingest
// path's allocation profile free of test-harness noise.
type countDetector struct {
	links int
	mu    sync.Mutex
	n     int
}

func (d *countDetector) Seed(*mat.Dense) error { return nil }

func (d *countDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	rows, cols := y.Dims()
	if cols != d.links {
		return nil, fmt.Errorf("count: batch has %d links, want %d", cols, d.links)
	}
	d.mu.Lock()
	d.n += rows
	d.mu.Unlock()
	return nil, nil
}

func (d *countDetector) Refit() error             { return nil }
func (d *countDetector) Settle() error            { return nil }
func (d *countDetector) Snapshot(io.Writer) error { return nil }
func (d *countDetector) Restore(io.Reader) error  { return nil }

func (d *countDetector) Stats() core.ViewStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return core.ViewStats{Backend: "count", Links: d.links, Processed: d.n}
}

// failDetector rejects every batch, exercising the worker's
// release-after-error path.
type failDetector struct{ countDetector }

func (d *failDetector) ProcessBatch(y *mat.Dense) ([]core.Alarm, error) {
	d.mu.Lock()
	d.n += y.Rows()
	d.mu.Unlock()
	return nil, errors.New("scripted failure")
}

// encodeMarkers renders bins of marker-tagged link loads as one v1
// binary stream.
func encodeMarkers(t *testing.T, bins, links int) []byte {
	t.Helper()
	return encodeMarkersFormat(t, 0, bins, links, netmeas.WireFormat{})
}

// encodeMarkersFormat renders markers start..start+bins-1 as one binary
// stream in the given wire format.
func encodeMarkersFormat(t *testing.T, start, bins, links int, wf netmeas.WireFormat) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netmeas.WriteMatrixBinaryFormat(&buf, markerBatch(start, bins, links), wf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requirePoolReconciled(t *testing.T, pool *netmeas.FrameBatchPool) {
	t.Helper()
	gets, puts := pool.Counters()
	if gets != puts {
		t.Fatalf("pool gets %d != releases %d: a buffer leaked or double-released", gets, puts)
	}
	if gets == 0 {
		t.Fatal("pool never used")
	}
}

func TestIngestBinaryEndToEnd(t *testing.T) {
	const bins, links = 300, 5
	det := &loadDetector{links: links}
	m := NewMonitor(Config{Workers: 2, BatchSize: 64})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(encodeMarkers(t, bins, links)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.IngestBinary("v", dec); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	requireIncreasingByOne(t, "v", det.seenMarkers(), bins)
	qs, err := m.QueueStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if qs.EnqueuedBins != bins {
		t.Fatalf("enqueued %d bins, want %d", qs.EnqueuedBins, bins)
	}
}

// TestIngestBinaryMixedVersions feeds one view from collectors that
// speak different wire formats — v1 per-bin frames, v2 raw batches, v2
// xor batches with a capacity above the monitor's BatchSize — and
// requires the marker sequence to arrive intact. This is the ingestd
// deployment story: version negotiation is per connection, the engine
// behind it is format-blind.
func TestIngestBinaryMixedVersions(t *testing.T) {
	const seg, links = 100, 5
	det := &loadDetector{links: links}
	m := NewMonitor(Config{Workers: 2, BatchSize: 64})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	streams := [][]byte{
		encodeMarkersFormat(t, 0, seg, links, netmeas.WireFormat{}),
		encodeMarkersFormat(t, seg, seg, links, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecRaw, BatchBins: 16}),
		encodeMarkersFormat(t, 2*seg, seg, links, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecXOR, BatchBins: 128}),
	}
	for i, stream := range streams {
		dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if err := m.IngestBinary("v", dec); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		// Drain between streams so the three sources cannot interleave;
		// within-stream FIFO plus sequential sources pins the order.
		m.Flush()
	}
	requireIncreasingByOne(t, "v", det.seenMarkers(), 3*seg)
}

// TestIngestBinaryPoolReusedAcrossStreams pins the fix for the
// per-stream pool warm-up: reconnecting collectors must hit the
// shard's cached pool (one per batch capacity), not allocate a fresh
// cold pool per stream.
func TestIngestBinaryPoolReusedAcrossStreams(t *testing.T) {
	const bins, links = 128, 4
	det := &countDetector{links: links}
	m := NewMonitor(Config{Workers: 1, BatchSize: 32})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	s, err := m.lookup("v")
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeMarkers(t, bins, links)
	v2 := encodeMarkersFormat(t, 0, bins, links, netmeas.WireFormat{Version: 2, Codec: netmeas.CodecRaw, BatchBins: 80})
	ingest := func(stream []byte) {
		dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.IngestBinary("v", dec); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	}
	// Three v1 connections share the BatchSize-capacity pool; two v2
	// connections with an 80-bin batch capacity share a second pool.
	ingest(v1)
	ingest(v1)
	ingest(v1)
	ingest(v2)
	ingest(v2)
	s.poolMu.Lock()
	nPools := len(s.pools)
	s.poolMu.Unlock()
	if nPools != 2 {
		t.Fatalf("shard caches %d pools, want 2 (one per batch capacity)", nPools)
	}
	for _, cap := range []int{32, 80} {
		pool := s.batchPool(cap)
		gets, puts := pool.Counters()
		if gets == 0 {
			t.Fatalf("capacity-%d pool never served a stream", cap)
		}
		if gets != puts {
			t.Fatalf("capacity-%d pool gets %d != releases %d after streams drained", cap, gets, puts)
		}
	}
	if got := det.Stats().Processed; got != 5*bins {
		t.Fatalf("processed %d bins across reconnects, want %d", got, 5*bins)
	}
}

func TestIngestBinaryRejectsWrongWidth(t *testing.T) {
	det := &countDetector{links: 7}
	m := NewMonitor(Config{Workers: 1})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(encodeMarkers(t, 4, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.IngestBinary("v", dec); err == nil {
		t.Fatal("mis-sized binary stream accepted")
	}
}

func TestIngestBinaryPoolLifecycleDetectorError(t *testing.T) {
	const bins, links = 256, 6
	det := &failDetector{countDetector{links: links}}
	m := NewMonitor(Config{Workers: 2, BatchSize: 32})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	s, err := m.lookup("v")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(encodeMarkers(t, bins, links)))
	if err != nil {
		t.Fatal(err)
	}
	pool := netmeas.NewFrameBatchPool(m.cfg.BatchSize, links)
	if err := m.ingestBinaryPooled(s, dec, pool); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if errs := m.Errs(); len(errs) != bins/32 {
		t.Fatalf("got %d deferred errors, want %d", len(errs), bins/32)
	}
	requirePoolReconciled(t, pool)
}

func TestIngestBinaryPoolLifecycleDropOldest(t *testing.T) {
	const bins, links = 320, 4
	det := &loadDetector{links: links, gate: make(chan struct{})}
	m := NewMonitor(Config{
		Workers:    1,
		BatchSize:  16,
		MaxPending: 64,
		Overload:   OverloadDropOldest,
	})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	s, err := m.lookup("v")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(encodeMarkers(t, bins, links)))
	if err != nil {
		t.Fatal(err)
	}
	pool := netmeas.NewFrameBatchPool(m.cfg.BatchSize, links)
	// The single gated worker holds at most one batch, so flooding 320
	// bins through a 64-bin queue must evict: every evicted batch's
	// buffer is released on the spot by the admission path.
	if err := m.ingestBinaryPooled(s, dec, pool); err != nil {
		t.Fatal(err)
	}
	close(det.gate)
	m.Flush()
	qs, err := m.QueueStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if qs.DroppedBins == 0 {
		t.Fatal("overload never dropped despite a gated worker")
	}
	if got := int64(det.Stats().Processed); qs.EnqueuedBins-qs.DroppedBins != got {
		t.Fatalf("counters do not reconcile: enqueued %d - dropped %d != processed %d",
			qs.EnqueuedBins, qs.DroppedBins, got)
	}
	requirePoolReconciled(t, pool)
}

func TestIngestBinaryPoolLifecycleCloseMidStream(t *testing.T) {
	const links = 3
	det := &countDetector{links: links}
	m := NewMonitor(Config{Workers: 1, BatchSize: 16})
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	s, err := m.lookup("v")
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	headerAndBatch := encodeMarkers(t, 16, links)
	frameSize := (len(headerAndBatch) - 12) / 16

	errCh := make(chan error, 1)
	poolCh := make(chan *netmeas.FrameBatchPool, 1)
	go func() {
		dec, err := netmeas.NewBinaryDecoder(pr)
		if err != nil {
			errCh <- err
			return
		}
		pool := netmeas.NewFrameBatchPool(m.cfg.BatchSize, links)
		poolCh <- pool
		errCh <- m.ingestBinaryPooled(s, dec, pool)
	}()

	// Header + one full batch: the producer enqueues it and blocks on
	// the pipe for more frames.
	if _, err := pw.Write(headerAndBatch); err != nil {
		t.Fatal(err)
	}
	pool := <-poolCh
	waitUntil(t, "first batch processed", func() bool {
		return det.Stats().Processed == 16
	})

	// Close while the stream is mid-flight, then deliver another full
	// batch: the producer must refuse it, release the buffer, and exit.
	m.Close()
	if _, err := pw.Write(bytes.Repeat(headerAndBatch[12:12+frameSize], 16)); err != nil {
		t.Fatal(err)
	}
	ingestErr := <-errCh
	if ingestErr == nil || !strings.Contains(ingestErr.Error(), "closed") {
		t.Fatalf("ingest after Close returned %v, want monitor-closed error", ingestErr)
	}
	pw.Close()
	requirePoolReconciled(t, pool)
	if det.Stats().Processed != 16 {
		t.Fatalf("processed %d bins, want only the pre-Close 16", det.Stats().Processed)
	}
}

// TestBinaryIngestAllocGate is the CI allocation gate: after one
// warm-up stream, binary ingest — decode, pooled batch hand-off,
// queueing, dispatch — must stay at or below 0.01 heap allocations per
// bin. The shard-cached batch pools made reconnects warm, so the only
// tolerated residue is the per-stream decoder setup and the rare queue
// regrowth, amortized over 4096 bins per run.
func TestBinaryIngestAllocGate(t *testing.T) {
	const bins, links = 4096, 120
	det := &countDetector{links: links}
	m := NewMonitor(Config{
		Workers:    1,
		BatchSize:  64,
		MaxPending: 256,
		Overload:   OverloadBlock,
	})
	defer m.Close()
	if err := m.AddDetectorView("v", det); err != nil {
		t.Fatal(err)
	}
	payload := encodeMarkers(t, bins, links)

	run := func() {
		dec, err := netmeas.NewBinaryDecoder(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.IngestBinary("v", dec); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	}
	run() // warm the pool and the queue's backing array
	allocs := testing.AllocsPerRun(5, run)
	perBin := allocs / bins
	// The race detector makes sync.Pool drop Puts on purpose, so pooled
	// buffers reallocate; only the non-race build can hold the tight
	// bound.
	limit := 0.01
	if raceEnabled {
		limit = 1
	}
	if perBin > limit {
		t.Fatalf("binary ingest allocates %.4f per bin (%.0f per %d-bin stream), want amortized <= %v", perBin, allocs, bins, limit)
	}
	t.Logf("binary ingest: %.4f allocs/bin (%.0f per %d-bin stream)", perBin, allocs, bins)
}
