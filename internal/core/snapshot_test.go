package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"

	"netanomaly/internal/mat"
)

// snapshotHistory builds a small deterministic link-load history with
// enough structure for a rank-deficient normal subspace: a shared
// diurnal component plus per-link phase and a little deterministic
// noise.
func snapshotHistory(bins, links int) *mat.Dense {
	h := mat.Zeros(bins, links)
	for b := 0; b < bins; b++ {
		for l := 0; l < links; l++ {
			base := 1e6 * float64(l+1)
			diurnal := 1 + 0.3*math.Sin(2*math.Pi*float64(b)/24+float64(l))
			noise := 1 + 0.005*math.Sin(float64(b*(l+3)))*math.Cos(float64(7*b+l))
			h.Set(b, l, base*diurnal*noise)
		}
	}
	return h
}

// snapshotOnline builds the small subspace detector the taxonomy tests
// and the fuzz harness restore into.
func snapshotOnline(t testing.TB, links int) *OnlineDetector {
	t.Helper()
	history := snapshotHistory(48, links)
	det, err := seeded(NewOnlineDetector(mat.Identity(links), OnlineConfig{Window: 48}))(history)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestSnapshotRoundTripCanonical pins the tentpole contract at the
// detector level: state moved through Snapshot/Restore yields the same
// alarm stream as the original, and an accepted snapshot re-encodes
// byte-for-byte (the canonical-encoding property the fuzz harness
// relies on).
func TestSnapshotRoundTripCanonical(t *testing.T) {
	const links = 4
	orig := snapshotOnline(t, links)
	probe := snapshotHistory(64, links)
	if _, err := orig.ProcessBatch(mat.NewDense(8, links, probe.RawData()[:8*links])); err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := orig.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := snapshotOnline(t, links)
	if err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatalf("restore→snapshot is not byte-identical: %d vs %d bytes", snap.Len(), again.Len())
	}

	if got, want := restored.Stats(), orig.Stats(); got != want {
		t.Fatalf("restored stats %+v, original %+v", got, want)
	}
	tail := mat.NewDense(16, links, probe.RawData()[8*links:24*links])
	// Spike one bin so alarm payloads (not just counts) are compared.
	tail.Set(5, 2, tail.At(5, 2)*3)
	wantAlarms, err := orig.ProcessBatch(tail)
	if err != nil {
		t.Fatal(err)
	}
	gotAlarms, err := restored.ProcessBatch(tail)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAlarms, wantAlarms) {
		t.Fatalf("restored alarm stream diverged:\n got %+v\nwant %+v", gotAlarms, wantAlarms)
	}
	if len(wantAlarms) == 0 {
		t.Fatal("probe spike raised no alarms; the equality check proved nothing")
	}
}

// TestSnapshotTruncationClassified cuts a valid snapshot at every
// length and requires each prefix to fail as truncation — wrapping
// io.ErrUnexpectedEOF, never a panic, never a misclassification.
func TestSnapshotTruncationClassified(t *testing.T) {
	const links = 4
	var snap bytes.Buffer
	if err := snapshotOnline(t, links).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	target := snapshotOnline(t, links)
	for cut := 0; cut < snap.Len(); cut++ {
		err := target.Restore(bytes.NewReader(snap.Bytes()[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d/%d bytes: got %v, want io.ErrUnexpectedEOF", cut, snap.Len(), err)
		}
	}
}

// TestSnapshotCorruptionClassified flips the structural invariants one
// at a time — magic, version, kind byte, payload length — and requires
// each to land in the right taxonomy bucket.
func TestSnapshotCorruptionClassified(t *testing.T) {
	const links = 4
	var snap bytes.Buffer
	if err := snapshotOnline(t, links).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	valid := snap.Bytes()
	mutate := func(idx int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[idx] = b
		return out
	}
	// The model's confidence (the default 0.999) is the one float in the
	// payload with those bits; NaN passes a check written as
	// c <= 0 || c >= 1, so the decoder must reject it some other way.
	nanConfidence := func() []byte {
		var conf, nan [8]byte
		binary.LittleEndian.PutUint64(conf[:], math.Float64bits(0.999))
		binary.LittleEndian.PutUint64(nan[:], math.Float64bits(math.NaN()))
		if n := bytes.Count(valid, conf[:]); n != 1 {
			t.Fatalf("confidence bits occur %d times in the snapshot, want 1", n)
		}
		return bytes.Replace(valid, conf[:], nan[:], 1)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", mutate(0, 'X'), ErrSnapshotFormat},
		{"bad version", mutate(4, 99), ErrSnapshotFormat},
		{"unknown kind", mutate(5, 0x7f), ErrSnapshotFormat},
		// A view envelope is well-formed, just not a detector state —
		// the mismatch bucket, same as any other wrong kind.
		{"engine kind", mutate(5, SnapKindView), ErrSnapshotMismatch},
		{"wrong detector kind", mutate(5, SnapKindEWMA), ErrSnapshotMismatch},
		// Shrinking the length prefix delivers a whole (short) payload,
		// so running off its end is a lying length — corruption.
		{"shrunk payload length", mutate(6, valid[6]-8), ErrSnapshotFormat},
		// Growing it makes the stream end before the promised payload —
		// truncation.
		{"grown payload length", mutate(6, valid[6]+8), io.ErrUnexpectedEOF},
		{"NaN model confidence", nanConfidence(), ErrSnapshotFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := snapshotOnline(t, links)
			if err := target.Restore(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSnapshotWrongKindMismatch offers one backend's state to another
// backend of the same package and requires ErrSnapshotMismatch — the
// well-formed-but-not-yours bucket.
func TestSnapshotWrongKindMismatch(t *testing.T) {
	const links = 4
	var snap bytes.Buffer
	if err := snapshotOnline(t, links).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sketch, err := seeded(NewSketchDetector(mat.Identity(links), SketchConfig{}))(snapshotHistory(48, links))
	if err != nil {
		t.Fatal(err)
	}
	if err := sketch.Restore(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("subspace state restored into sketch: %v", err)
	}
}

// TestSnapshotWrongLinksMismatch restores a 4-link subspace snapshot
// into a 6-link detector and requires ErrSnapshotMismatch.
func TestSnapshotWrongLinksMismatch(t *testing.T) {
	var snap bytes.Buffer
	if err := snapshotOnline(t, 4).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	wide := snapshotOnline(t, 6)
	if err := wide.Restore(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("4-link state restored into 6-link detector: %v", err)
	}
}

// patchedSnapshot returns det's snapshot with the little-endian value v
// written over the width bytes at offset off.
func patchedSnapshot(t testing.TB, det *OnlineDetector, off, width int, v uint64) []byte {
	t.Helper()
	var snap bytes.Buffer
	if err := det.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	out := snap.Bytes()
	for i := 0; i < width; i++ {
		out[off+i] = byte(v >> (8 * i))
	}
	return out
}

// snapshotSketch builds the small sketch detector the crafted-envelope
// test and the fuzz harness restore into.
func snapshotSketch(t testing.TB, links int) *OnlineDetector {
	t.Helper()
	det, err := seeded(NewSketchDetector(mat.Identity(links), SketchConfig{}))(snapshotHistory(48, links))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// fullSketchSnapshot crafts the envelope a sketch detector must refuse:
// occupancy == ell, which no Insert ever leaves behind (a full buffer
// shrinks before Insert returns) and which would send the next Insert
// past the buffer's last row.
func fullSketchSnapshot(t testing.TB, links int) []byte {
	det := snapshotSketch(t, links)
	ell := det.est.(*sketchEstimator).ell
	// header | links i64 | ell i64 | matrix (presence u8, dims 2 x u32, data) | used i64
	usedAt := snapshotHeaderLen + 8 + 8 + 1 + 4 + 4 + 8*ell*links
	return patchedSnapshot(t, det, usedAt, 8, uint64(ell))
}

// TestSnapshotRejectsFullSketch: the crafted used == ell checkpoint is
// corruption, not state. Before the check was tightened Restore took it
// and the next ProcessBatch panicked in RowView.
func TestSnapshotRejectsFullSketch(t *testing.T) {
	const links = 4
	det := snapshotSketch(t, links)
	if err := det.Restore(bytes.NewReader(fullSketchSnapshot(t, links))); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("used == ell envelope: got %v, want ErrSnapshotFormat", err)
	}
	if _, err := det.ProcessBatch(snapshotHistory(8, links)); err != nil {
		t.Fatalf("detector unusable after the rejected restore: %v", err)
	}
}

// TestSnapshotRejectsNonFiniteSketch: a sketch whose buffer, running
// mean or energy is not finite, or whose energy is negative, fails every
// later shrink or refit. Restore used to take it and leave the failure to
// the next refit; it is corruption.
func TestSnapshotRejectsNonFiniteSketch(t *testing.T) {
	const links = 4
	det := snapshotSketch(t, links)
	ell := det.est.(*sketchEstimator).ell
	// header | links i64 | ell i64 | matrix (presence u8, dims 2 x u32, data) |
	// used i64 | mean (len u32, data) | n i64 | energy f64
	bufAt := snapshotHeaderLen + 8 + 8 + 1 + 4 + 4
	meanAt := bufAt + 8*ell*links + 8 + 4
	energyAt := meanAt + 8*links + 8
	cases := []struct {
		name string
		off  int
		v    float64
	}{
		{"NaN buffer cell", bufAt + 8*links + 8, math.NaN()},
		{"+Inf mean", meanAt + 8, math.Inf(1)},
		{"NaN energy", energyAt, math.NaN()},
		{"+Inf energy", energyAt, math.Inf(1)},
		{"negative energy", energyAt, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := patchedSnapshot(t, det, tc.off, 8, math.Float64bits(tc.v))
			if err := snapshotSketch(t, links).Restore(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("got %v, want ErrSnapshotFormat", err)
			}
		})
	}
	// The offsets above address the fields they name: writing each
	// field's own value back restores cleanly.
	var snap bytes.Buffer
	if err := det.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sk := det.est.(*sketchEstimator).sk
	for off, v := range map[int]float64{bufAt + 8*links + 8: sk.b.At(1, 1), meanAt + 8: sk.mean[1], energyAt: sk.energy} {
		if got := math.Float64frombits(binary.LittleEndian.Uint64(snap.Bytes()[off:])); got != v {
			t.Fatalf("offset %d holds %v, want %v", off, got, v)
		}
	}
}

// TestSnapshotRingCapacityBoundedByElements: a ring preallocates
// capacity x cols, so the reader must bound the product. A 2^24-row
// capacity on a 4-link ring passes a rows-only bound and costs half a
// gigabyte before any content is looked at.
func TestSnapshotRingCapacityBoundedByElements(t *testing.T) {
	const links = 4
	// header | links i64 | ring capacity u32
	env := patchedSnapshot(t, snapshotOnline(t, links), snapshotHeaderLen+8, 4, maxSnapshotElems)
	if err := snapshotOnline(t, links).Restore(bytes.NewReader(env)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("ring of %d x %d elements: got %v, want ErrSnapshotFormat", maxSnapshotElems, links, err)
	}
}

// FuzzDecodeSnapshot throws arbitrary bytes at the restore path of the
// real detector under each estimator — the first input byte picks which:
// any input must either restore cleanly or fail with a classified error
// (format, mismatch, or truncation), never a panic; an accepted envelope
// must re-encode byte-for-byte; and the restored detector must survive a
// batch. Every input is decoded twice, in place from a bytes.Buffer
// and streamed one byte per Read into a twin detector: the two must fail
// with the same error or restore the same state.
func FuzzDecodeSnapshot(f *testing.F) {
	const links = 4
	history, routing := snapshotHistory(48, links), mat.Identity(links)
	// One shared detector per estimator, and one twin for the streamed
	// path: Restore decodes into locals and commits only on success, so
	// a failed iteration leaves no partial state behind and a successful
	// one fully defines the state the canonical check re-encodes.
	var dets, twins []*OnlineDetector
	for k, c := range estimatorCases {
		det, err := c.build(history, routing, 0)
		if err != nil {
			f.Fatal(err)
		}
		twin, err := c.build(history, routing, 0)
		if err != nil {
			f.Fatal(err)
		}
		dets, twins = append(dets, det), append(twins, twin)
		var valid bytes.Buffer
		valid.WriteByte(byte(k))
		if err := det.Snapshot(&valid); err != nil {
			f.Fatal(err)
		}
		f.Add(valid.Bytes())
		f.Add(valid.Bytes()[:valid.Len()/2])
		wrongKind := bytes.Clone(valid.Bytes())
		wrongKind[1+5] = SnapKindEWMA
		f.Add(wrongKind)
	}
	f.Add([]byte("\x00NAMS"))
	f.Add([]byte{})
	f.Add(append([]byte{2}, fullSketchSnapshot(f, links)...))
	probe := snapshotHistory(8, links)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0]) % len(dets)
		det, twin := dets[k], twins[k]
		src := bytes.NewBuffer(data[1:])
		err := det.Restore(src)
		streamed := bytes.NewReader(data[1:])
		if serr := twin.Restore(iotest.OneByteReader(streamed)); (err == nil) != (serr == nil) ||
			err != nil && err.Error() != serr.Error() {
			t.Fatalf("in-place restore: %v; streamed restore: %v", err, serr)
		}
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) &&
				!errors.Is(err, ErrSnapshotMismatch) &&
				!errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unclassified restore error: %v", err)
			}
			return
		}
		// Restore consumes exactly one envelope; canonical re-encoding
		// must reproduce the consumed prefix bit-for-bit, on both paths.
		consumed := data[1 : len(data)-src.Len()]
		if streamed.Len() != src.Len() {
			t.Fatalf("in-place restore left %d bytes, streamed restore %d", src.Len(), streamed.Len())
		}
		for _, d := range []*OnlineDetector{det, twin} {
			var out bytes.Buffer
			if err := d.Snapshot(&out); err != nil {
				t.Fatalf("snapshot after accepted restore: %v", err)
			}
			if !bytes.Equal(out.Bytes(), consumed) {
				t.Fatalf("accepted envelope is not canonical: consumed %d bytes, re-encoded %d", len(consumed), out.Len())
			}
		}
		// Whatever was accepted must be state the detector can run on;
		// errors are fine (fuzzed floats are rarely a model), panics not.
		det.ProcessBatch(probe)
	})
}

// TestSnapshotRejectsNonFiniteState: a subspace-family checkpoint whose
// model (means, axes, residual variances) or estimate (window rows,
// tracker mean or covariance) holds a NaN or an infinity is corruption.
// Restore used to take it, and every later bin then failed with
// ErrNonFinite and raised no alarm. A warm start does not seed, so the
// checkpoint is all a restored view knows: it must be refused.
func TestSnapshotRejectsNonFiniteState(t *testing.T) {
	const links = 4
	history, routing := snapshotHistory(48, links), mat.Identity(links)
	model := func(d *OnlineDetector) *Model { return d.Diagnoser().det.model }
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		kind   int // estimatorCases index
		poison func(*OnlineDetector)
	}{
		{"subspace model mean", 0, func(d *OnlineDetector) { model(d).means[1] = nan }},
		{"incremental model mean", 1, func(d *OnlineDetector) { model(d).means[0] = inf }},
		{"sketch model mean", 2, func(d *OnlineDetector) { model(d).means[2] = nan }},
		{"subspace model axis", 0, func(d *OnlineDetector) { model(d).p.Set(2, 0, inf) }},
		{"sketch model axis", 2, func(d *OnlineDetector) { model(d).p.Set(1, 0, nan) }},
		{"incremental residual variance", 1, func(d *OnlineDetector) { model(d).residVariances[0] = nan }},
		{"subspace window row", 0, func(d *OnlineDetector) {
			d.est.(*windowEstimator).ring.Push([]float64{1, nan, 1, 1})
		}},
		{"incremental tracker mean", 1, func(d *OnlineDetector) { d.est.(*covEstimator).tr.mean[3] = inf }},
		{"incremental tracker covariance", 1, func(d *OnlineDetector) { d.est.(*covEstimator).tr.cov.Set(1, 2, nan) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := estimatorCases[tc.kind].build
			src, err := build(history, routing, 0)
			if err != nil {
				t.Fatal(err)
			}
			tc.poison(src)
			var snap bytes.Buffer
			if err := src.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			dst, err := build(history, routing, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("got %v, want ErrSnapshotFormat", err)
			}
			if _, err := dst.ProcessBatch(snapshotHistory(8, links)); err != nil {
				t.Fatalf("detector unusable after the rejected restore: %v", err)
			}
		})
	}
}

// TestSnapshotSketchSizeOnRestore: a receiver with no configured sketch
// size takes the snapshot's, so a warm start restores a sketch whatever
// rank its own seed would have resolved — here it has no seed at all —
// up to the largest size a seed resolves on its links; a configured size
// must match the snapshot's; and a size no seed could have built — below
// 4, or below twice the retained rank — is corruption.
func TestSnapshotSketchSizeOnRestore(t *testing.T) {
	const links = 4
	history, routing := snapshotHistory(48, links), mat.Identity(links)
	snapshotOf := func(size int) []byte {
		t.Helper()
		src, err := seeded(NewSketchDetector(routing, SketchConfig{SketchSize: size}))(history)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := src.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.Bytes()
	}
	// 10 is no max(8, 4*rank); 24 exceeds max(8, 4*(links-1)) = 12.
	snap := bytes.NewBuffer(snapshotOf(10))

	dst, err := NewSketchDetector(routing, SketchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("unconfigured size: %v", err)
	}
	var again bytes.Buffer
	if err := dst.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Fatal("restored sketch does not re-encode byte-for-byte")
	}

	if err := dst.Restore(bytes.NewReader(snapshotOf(24))); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("unconfigured size, snapshot 24 on %d links: got %v, want ErrSnapshotMismatch", links, err)
	}
	pinned, err := NewSketchDetector(routing, SketchConfig{SketchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.Restore(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("configured size 16, snapshot 10: got %v, want ErrSnapshotMismatch", err)
	}

	for _, tc := range []struct{ ell, rank int }{{3, 1}, {5, 3}} {
		bad, err := seeded(NewSketchDetector(routing, SketchConfig{}))(history)
		if err != nil {
			t.Fatal(err)
		}
		e := bad.est.(*sketchEstimator)
		e.ell, e.rank = tc.ell, tc.rank
		e.sk = &FDSketch{m: links, ell: tc.ell, b: mat.Zeros(tc.ell, links), mean: make([]float64, links), n: e.sk.n, energy: e.sk.energy}
		var crafted bytes.Buffer
		if err := bad.Snapshot(&crafted); err != nil {
			t.Fatal(err)
		}
		recv, err := NewSketchDetector(routing, SketchConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.Restore(bytes.NewReader(crafted.Bytes())); !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("sketch size %d at rank %d: got %v, want ErrSnapshotFormat", tc.ell, tc.rank, err)
		}
	}
}
