package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"netanomaly/internal/mat"
)

// Snapshot wire format ("NAMS"): every portable detector state is one
// self-framing envelope —
//
//	magic "NAMS" | version u8 | kind u8 | payload length u64 LE | payload
//
// so envelopes nest (multiflow and hybrid embed their stage detectors'
// envelopes inside their own payload) and concatenate (a monitor
// checkpoint is a sequence of view envelopes) without any out-of-band
// framing. All integers are little-endian; floats are IEEE-754 bits.
// The encoding is canonical: a payload the decoder accepts re-encodes
// byte-for-byte, which is what lets the fuzz harness prove round-trip
// stability.
//
// Both directions work in one buffer. Encoding appends every nested
// envelope to its parent's buffer and patches each length in after its
// payload. Decoding reads the outermost envelope from the caller's
// reader once (or not at all, from a *bytes.Buffer); every nested
// envelope is a sub-slice of it, and each field is decoded straight
// into the state that keeps it, so a restore copies each byte once.
//
// Error taxonomy mirrors the NAMB matrix format: structural corruption
// (bad magic, impossible lengths, dimensions that contradict each
// other) wraps ErrSnapshotFormat; a stream that simply ends early wraps
// io.ErrUnexpectedEOF; and a well-formed snapshot offered to the wrong
// detector (different kind, different link count) wraps
// ErrSnapshotMismatch. Test with errors.Is.

// ErrSnapshotFormat is the classification for structurally corrupt
// snapshots: wrong magic, unsupported version, lengths or dimensions
// that cannot be satisfied. Truncation is classified separately as
// io.ErrUnexpectedEOF.
var ErrSnapshotFormat = errors.New("core: malformed detector snapshot")

// ErrSnapshotMismatch is the classification for well-formed snapshots
// that do not belong to the detector asked to restore them: a different
// backend kind, a different link count, or incompatible construction
// parameters.
var ErrSnapshotMismatch = errors.New("core: snapshot does not match detector")

const (
	snapshotMagic   = "NAMS"
	snapshotVersion = 1

	// snapshotHeaderLen is magic + version + kind + payload length.
	snapshotHeaderLen = 4 + 1 + 1 + 8

	// maxSnapshotPayload bounds a single envelope's payload so a
	// corrupted or adversarial length prefix cannot force a huge
	// allocation before any content is validated.
	maxSnapshotPayload = 1 << 30
	// maxSnapshotElems bounds one encoded slice or matrix (in float64
	// elements) for the same reason.
	maxSnapshotElems = 1 << 24
)

// Snapshot kind bytes, one per portable state shape. The low range is
// the detector backends; 0x20+ is reserved for engine-level envelopes
// (per-view and whole-monitor checkpoints) so a detector Restore can
// never confuse an engine checkpoint for its own state.
const (
	SnapKindSubspace    byte = 1
	SnapKindIncremental byte = 2
	SnapKindMultiscale  byte = 3
	SnapKindMultiflow   byte = 4
	SnapKindEWMA        byte = 5
	SnapKindHoltWinters byte = 6
	SnapKindFourier     byte = 7
	SnapKindSketch      byte = 9
	SnapKindHybrid      byte = 11

	SnapKindView    byte = 0x20
	SnapKindMonitor byte = 0x21
	// SnapKindIncidents is the incident correlator's live table — an
	// engine-level envelope appended after the monitor envelope in a
	// checkpoint file so a warm restart resumes open incidents.
	SnapKindIncidents byte = 0x22
)

// retiredHybridKinds are the hybrid layouts no longer decoded: kind 8
// carried the escalation policy's run and hysteresis state, kind 10 a
// clean-bin window of the hybrid's own beside the subspace stage's.
// KindName still names them, so an old hybrid checkpoint routes to a
// hybrid detector and is refused there as a mismatch that asks for a
// re-seed instead of as corruption.
var retiredHybridKinds = []byte{8, 10}

// KindName maps a snapshot kind byte to the backend name Stats()
// reports ("subspace", "ewma", ...), or "" for an unknown byte.
func KindName(kind byte) string {
	if slices.Contains(retiredHybridKinds, kind) {
		return "hybrid"
	}
	switch kind {
	case SnapKindSubspace:
		return "subspace"
	case SnapKindIncremental:
		return "incremental"
	case SnapKindMultiscale:
		return "multiscale"
	case SnapKindMultiflow:
		return "multiflow"
	case SnapKindEWMA:
		return "ewma"
	case SnapKindHoltWinters:
		return "holtwinters"
	case SnapKindFourier:
		return "fourier"
	case SnapKindHybrid:
		return "hybrid"
	case SnapKindSketch:
		return "sketch"
	case SnapKindView:
		return "view"
	case SnapKindMonitor:
		return "monitor"
	case SnapKindIncidents:
		return "incidents"
	default:
		return ""
	}
}

// SnapshotMismatchf builds an ErrSnapshotMismatch-classified error.
func SnapshotMismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotMismatch, fmt.Sprintf(format, args...))
}

// SnapshotFormatf builds an ErrSnapshotFormat-classified error, for
// decoders outside this package (the incident correlator) that enforce
// canonical payloads of their own.
func SnapshotFormatf(format string, args ...any) error {
	return snapshotFormatf(format, args...)
}

func snapshotFormatf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotFormat, fmt.Sprintf(format, args...))
}

// snapshotSink is the one buffer a snapshot is encoded into, nested
// envelopes included. An EncodeSnapshot handed one — the writer a
// SnapshotWriter.Nested child receives — appends its envelope in place;
// any other code a child runs reaches it through Write. In the sizing
// pass that precedes every outermost encode, it only counts the bytes.
type snapshotSink struct {
	buf    []byte
	sizing bool
	size   int // bytes counted by the sizing pass
}

// Write appends p to the buffer.
func (s *snapshotSink) Write(p []byte) (int, error) {
	if b := s.grow(len(p)); b != nil {
		copy(b, p)
	}
	return len(p), nil
}

// grow extends the buffer by n bytes and returns them for the caller to
// fill, or in the sizing pass counts them and returns nil.
func (s *snapshotSink) grow(n int) []byte {
	if s.sizing {
		s.size += n
		return nil
	}
	k := len(s.buf)
	s.buf = slices.Grow(s.buf, n)[:k+n]
	return s.buf[k:]
}

// SnapshotWriter serializes snapshot payload fields by appending them to
// the buffer of the envelope EncodeSnapshot is building. It latches the
// first error a nested child returns; EncodeSnapshot reports it.
type SnapshotWriter struct {
	sink *snapshotSink
	err  error
}

// U8 writes one byte.
func (sw *SnapshotWriter) U8(v byte) {
	if b := sw.sink.grow(1); b != nil {
		b[0] = v
	}
}

// U32 writes a little-endian uint32.
func (sw *SnapshotWriter) U32(v uint32) {
	if b := sw.sink.grow(4); b != nil {
		binary.LittleEndian.PutUint32(b, v)
	}
}

// U64 writes a little-endian uint64.
func (sw *SnapshotWriter) U64(v uint64) {
	if b := sw.sink.grow(8); b != nil {
		binary.LittleEndian.PutUint64(b, v)
	}
}

// I64 writes a little-endian int64.
func (sw *SnapshotWriter) I64(v int64) { sw.U64(uint64(v)) }

// Int writes an int as an int64.
func (sw *SnapshotWriter) Int(v int) { sw.I64(int64(v)) }

// F64 writes a float64's IEEE-754 bits.
func (sw *SnapshotWriter) F64(v float64) { sw.U64(math.Float64bits(v)) }

// Bool writes a bool as one byte.
func (sw *SnapshotWriter) Bool(v bool) {
	if v {
		sw.U8(1)
	} else {
		sw.U8(0)
	}
}

// floats appends the IEEE-754 bits of each slice in turn.
func (sw *SnapshotWriter) floats(vs ...[]float64) {
	size := 0
	for _, v := range vs {
		size += 8 * len(v)
	}
	b := sw.sink.grow(size)
	if b == nil {
		return
	}
	for _, v := range vs {
		for i, f := range v {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
		}
		b = b[8*len(v):]
	}
}

// Floats writes a length-prefixed float64 slice.
func (sw *SnapshotWriter) Floats(v []float64) {
	sw.U32(uint32(len(v)))
	sw.floats(v)
}

// Ints writes a length-prefixed int slice (as int64s).
func (sw *SnapshotWriter) Ints(v []int) {
	sw.U32(uint32(len(v)))
	if b := sw.sink.grow(8 * len(v)); b != nil {
		for i, n := range v {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(n)))
		}
	}
}

// String writes a length-prefixed UTF-8 string.
func (sw *SnapshotWriter) String(s string) {
	sw.U32(uint32(len(s)))
	if b := sw.sink.grow(len(s)); b != nil {
		copy(b, s)
	}
}

// matrixHeader writes a present matrix's presence byte and dims.
func (sw *SnapshotWriter) matrixHeader(rows, cols int) {
	sw.U8(1)
	sw.U32(uint32(rows))
	sw.U32(uint32(cols))
}

// Matrix writes a possibly-nil dense matrix: a presence byte, then
// dims and row-major data.
func (sw *SnapshotWriter) Matrix(m *mat.Dense) {
	if m == nil {
		sw.U8(0)
		return
	}
	sw.matrixHeader(m.Dims())
	sw.floats(m.RawData())
}

// RowRing writes a sliding window: its capacity, then the buffered rows
// oldest-first as a Matrix field (absent when the ring is empty), taken
// straight from the ring's two stripes.
func (sw *SnapshotWriter) RowRing(r *mat.RowRing) {
	sw.U32(uint32(r.Cap()))
	if r.Len() == 0 {
		sw.U8(0)
		return
	}
	head, tail := r.Stripes()
	sw.matrixHeader(r.Len(), r.Cols())
	sw.floats(head, tail)
}

// Nested hands the writer to write so a composite backend (multiflow,
// hybrid) can embed a stage detector's self-framed envelope inside its
// own payload; the child's EncodeSnapshot appends to this buffer in
// place. The child's error latches, and later children are skipped.
func (sw *SnapshotWriter) Nested(write func(io.Writer) error) {
	if sw.err != nil {
		return
	}
	sw.err = write(sw.sink)
}

// take consumes the next n bytes of an in-memory envelope stream and
// returns them, a sub-slice of its storage, or reports false and
// consumes nothing when fewer remain. Reading a bytes.Buffer never
// writes its storage, so the slice stays valid across later reads.
func take(buf *bytes.Buffer, n int) ([]byte, bool) {
	if buf.Len() < n {
		return nil, false
	}
	return buf.Next(n)[:n:n], true
}

// SnapshotReader deserializes one envelope's payload, held whole in
// memory, latching the first error (classified per the package
// taxonomy). Reads after an error return zero values. Fields decode
// straight out of the payload: a float slice, matrix or ring lands in
// its final storage in one pass, and a nested envelope is read in place.
// Nothing a read returns aliases the payload.
type SnapshotReader struct {
	src *bytes.Buffer // the unread payload
	err error
}

// Err returns the first error any read hit.
func (sr *SnapshotReader) Err() error { return sr.err }

func (sr *SnapshotReader) fail(err error) {
	if sr.err == nil {
		sr.err = err
	}
}

// take consumes the next n bytes of the payload, or latches truncation
// and returns false when fewer remain.
func (sr *SnapshotReader) take(n int) ([]byte, bool) {
	if sr.err != nil {
		return nil, false
	}
	b, ok := take(sr.src, n)
	if !ok {
		sr.err = fmt.Errorf("core: snapshot truncated: %w", io.ErrUnexpectedEOF)
	}
	return b, ok
}

// U8 reads one byte.
func (sr *SnapshotReader) U8() byte {
	b, ok := sr.take(1)
	if !ok {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (sr *SnapshotReader) U32() uint32 {
	b, ok := sr.take(4)
	if !ok {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (sr *SnapshotReader) U64() uint64 {
	b, ok := sr.take(8)
	if !ok {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (sr *SnapshotReader) I64() int64 { return int64(sr.U64()) }

// Int reads an int64 into an int.
func (sr *SnapshotReader) Int() int { return int(sr.I64()) }

// NonNegInt reads an int64 and rejects negative values as corruption.
func (sr *SnapshotReader) NonNegInt() int {
	v := sr.I64()
	if sr.err == nil && v < 0 {
		sr.fail(snapshotFormatf("negative count %d", v))
		return 0
	}
	return int(v)
}

// F64 reads a float64 from its IEEE-754 bits.
func (sr *SnapshotReader) F64() float64 { return math.Float64frombits(sr.U64()) }

// Bool reads a bool, rejecting bytes other than 0 or 1 as corruption
// (keeping the encoding canonical).
func (sr *SnapshotReader) Bool() bool {
	switch b := sr.U8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		sr.fail(snapshotFormatf("bool byte %#x", b))
		return false
	}
}

// sliceLen reads a u32 length prefix and bounds it.
func (sr *SnapshotReader) sliceLen(what string) int {
	n := sr.U32()
	if sr.err == nil && n > maxSnapshotElems {
		sr.fail(snapshotFormatf("%s length %d exceeds limit", what, n))
		return 0
	}
	return int(n)
}

// decodeFloats fills dst from the IEEE-754 bits in b, 8 bytes each.
func decodeFloats(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i : 8*i+8]))
	}
}

// Floats reads a length-prefixed float64 slice.
func (sr *SnapshotReader) Floats() []float64 {
	n := sr.sliceLen("float slice")
	if sr.err != nil || n == 0 {
		return nil
	}
	b, ok := sr.take(8 * n)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	decodeFloats(out, b)
	return out
}

// Ints reads a length-prefixed int slice.
func (sr *SnapshotReader) Ints() []int {
	n := sr.sliceLen("int slice")
	if sr.err != nil || n == 0 {
		return nil
	}
	b, ok := sr.take(8 * n)
	if !ok {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i : 8*i+8])))
	}
	return out
}

// String reads a length-prefixed UTF-8 string.
func (sr *SnapshotReader) String() string {
	n := sr.sliceLen("string")
	if sr.err != nil || n == 0 {
		return ""
	}
	b, ok := sr.take(n)
	if !ok {
		return ""
	}
	return string(b)
}

// matrix reads a Matrix field up to its data and returns the dims and
// the bytes of the row-major data, unconverted; data is nil for an
// absent matrix or an error.
func (sr *SnapshotReader) matrix() (rows, cols int, data []byte) {
	switch p := sr.U8(); p {
	case 0:
		return 0, 0, nil
	case 1:
	default:
		sr.fail(snapshotFormatf("matrix presence byte %#x", p))
		return 0, 0, nil
	}
	r, c := sr.U32(), sr.U32()
	if sr.err != nil {
		return 0, 0, nil
	}
	if r == 0 || c == 0 {
		sr.fail(snapshotFormatf("matrix dims %dx%d", r, c))
		return 0, 0, nil
	}
	if uint64(r)*uint64(c) > maxSnapshotElems {
		sr.fail(snapshotFormatf("matrix %dx%d exceeds element limit", r, c))
		return 0, 0, nil
	}
	data, ok := sr.take(8 * int(r) * int(c))
	if !ok {
		return 0, 0, nil
	}
	return int(r), int(c), data
}

// Matrix reads a possibly-nil dense matrix.
func (sr *SnapshotReader) Matrix() *mat.Dense {
	rows, cols, data := sr.matrix()
	if data == nil {
		return nil
	}
	m := mat.Zeros(rows, cols)
	decodeFloats(m.RawData(), data)
	return m
}

// RowRing reads a sliding window serialized by SnapshotWriter.RowRing
// into a fresh ring with the serialized capacity, validating the column
// count against cols.
func (sr *SnapshotReader) RowRing(cols int) *mat.RowRing { return sr.rowRing(cols, false) }

// rowRing is RowRing; finite also refuses a NaN or infinite value as
// corruption. The rows decode straight into the ring's own storage, and
// the check runs there before the ring is returned.
func (sr *SnapshotReader) rowRing(cols int, finite bool) *mat.RowRing {
	capacity := sr.U32()
	rows, c, data := sr.matrix()
	if sr.err != nil {
		return nil
	}
	// The ring preallocates capacity x cols, so bound the product, not
	// just the rows: an envelope of a few bytes must not buy a huge
	// allocation before any content is validated.
	if capacity == 0 || uint64(capacity)*uint64(max(cols, 1)) > maxSnapshotElems {
		sr.fail(snapshotFormatf("ring capacity %d x %d columns", capacity, cols))
		return nil
	}
	if data == nil {
		return mat.NewRowRing(int(capacity), cols)
	}
	if c != cols {
		sr.fail(SnapshotMismatchf("ring has %d columns, detector expects %d", c, cols))
		return nil
	}
	if rows > int(capacity) {
		sr.fail(snapshotFormatf("ring holds %d rows over capacity %d", rows, capacity))
		return nil
	}
	ring := mat.NewRowRing(int(capacity), cols)
	window := ring.Load(rows)
	decodeFloats(window, data)
	if finite && !mat.AllFinite(window) {
		sr.fail(snapshotFormatf("ring holds a non-finite value"))
		return nil
	}
	return ring
}

// Nested hands the rest of the payload, as a *bytes.Buffer, to read so
// a composite backend can restore a stage detector from the envelope
// embedded at this position; the child decodes it in place. The child's
// (already classified) error latches like any other read error.
func (sr *SnapshotReader) Nested(read func(io.Reader) error) {
	if sr.err != nil {
		return
	}
	sr.err = read(sr.src)
}

// Envelope consumes the whole envelope embedded at this position without
// decoding it and returns its kind and a buffer over its bytes (header
// included, a sub-slice of the payload), so a caller can route it to the right detector's Restore
// without understanding the payload; that Restore decodes it in place.
// A missing or partial envelope latches like any other read error.
func (sr *SnapshotReader) Envelope() (kind byte, envelope *bytes.Buffer) {
	if sr.err != nil {
		return 0, nil
	}
	rest := sr.src.Bytes()
	kind, n, err := readSnapshotHeader(sr.src)
	if err == io.EOF {
		err = fmt.Errorf("core: snapshot header truncated: %w", io.ErrUnexpectedEOF)
	}
	if err == nil {
		_, err = readSnapshotPayload(sr.src, n)
	}
	if err != nil {
		sr.err = err
		return 0, nil
	}
	return kind, bytes.NewBuffer(rest[: snapshotHeaderLen+n : snapshotHeaderLen+n])
}

// EncodeSnapshot frames the payload encode writes in a NAMS envelope on
// w. The envelope is built in one buffer allocated at its exact size:
// encode runs twice, first in a sizing pass that only counts the bytes
// each field and nested envelope would take, then for real. The header
// goes first with a zero length, the payload is appended after it, and
// the exact length — what lets envelopes nest and concatenate — is
// patched in once encode returns. Handed the writer of a
// SnapshotWriter.Nested child, it appends to the parent's buffer in
// place (or counts, in the parent's sizing pass); otherwise it writes
// the finished envelope to w in one Write. An error in either pass is
// returned, and nothing is written. State that changes between the two
// passes (a view ingesting between a monitor checkpoint's quiesces)
// costs only a regrowth: the second pass writes what it finds.
func EncodeSnapshot(w io.Writer, kind byte, encode func(*SnapshotWriter)) error {
	sink, nested := w.(*snapshotSink)
	if nested {
		return encodeEnvelope(sink, kind, encode)
	}
	sizing := &snapshotSink{sizing: true}
	if err := encodeEnvelope(sizing, kind, encode); err != nil {
		return err
	}
	sink = &snapshotSink{buf: make([]byte, 0, sizing.size)}
	if err := encodeEnvelope(sink, kind, encode); err != nil {
		return err
	}
	_, err := w.Write(sink.buf)
	return err
}

// encodeEnvelope appends one envelope to sink: its header, then the
// payload encode writes, then the payload length patched into the
// header. On an error it truncates sink back to where it started.
func encodeEnvelope(sink *snapshotSink, kind byte, encode func(*SnapshotWriter)) error {
	start := len(sink.buf)
	sink.grow(snapshotHeaderLen)
	sw := &SnapshotWriter{sink: sink}
	encode(sw)
	if sw.err != nil {
		sink.buf = sink.buf[:start]
		return sw.err
	}
	if !sink.sizing {
		hdr := sink.buf[start:]
		copy(hdr, snapshotMagic)
		hdr[4], hdr[5] = snapshotVersion, kind
		binary.LittleEndian.PutUint64(hdr[6:], uint64(len(sink.buf)-start-snapshotHeaderLen))
	}
	return nil
}

// readSnapshotHeader consumes and validates one envelope header from r,
// returning the kind byte and payload length. A clean end of stream (not
// one header byte left) is io.EOF; a partial header is truncation.
func readSnapshotHeader(r io.Reader) (kind byte, payloadLen int, err error) {
	var hdr [snapshotHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("core: snapshot header truncated: %w", err)
		}
		return 0, 0, err
	}
	return parseSnapshotHeader(hdr[:])
}

// parseSnapshotHeader validates a whole envelope header.
func parseSnapshotHeader(hdr []byte) (kind byte, payloadLen int, err error) {
	if string(hdr[:4]) != snapshotMagic {
		return 0, 0, snapshotFormatf("bad magic %q", hdr[:4])
	}
	if hdr[4] != snapshotVersion {
		return 0, 0, snapshotFormatf("unsupported snapshot version %d", hdr[4])
	}
	kind = hdr[5]
	if KindName(kind) == "" {
		return 0, 0, snapshotFormatf("unknown snapshot kind %#x", kind)
	}
	n := binary.LittleEndian.Uint64(hdr[6:])
	if n > maxSnapshotPayload {
		return 0, 0, snapshotFormatf("payload length %d exceeds limit", n)
	}
	return kind, int(n), nil
}

// readSnapshotPayload consumes n payload bytes from r: a *bytes.Buffer
// hands out a sub-slice of its bytes, any other reader fills a fresh
// buffer.
func readSnapshotPayload(r io.Reader, n int) ([]byte, error) {
	if buf, ok := r.(*bytes.Buffer); ok {
		if b, ok := take(buf, n); ok {
			return b, nil
		}
		return nil, fmt.Errorf("core: snapshot payload truncated: %w", io.ErrUnexpectedEOF)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: snapshot payload truncated: %w", err)
	}
	return b, nil
}

// DecodeSnapshot strips one envelope from r, verifies the kind matches
// wantKind (a mismatch wraps ErrSnapshotMismatch — the caller offered
// the snapshot to the wrong detector), and hands the payload to decode.
// Only the outermost envelope is read from a plain reader, into one
// buffer. From a *bytes.Buffer (the Nested child of an outer decode, or
// a buffer the caller holds) the payload is a sub-slice of the buffer's
// storage and nothing is copied; the bytes must stay unchanged until
// decode returns, and nothing decoded from them aliases them.
// The payload must be consumed exactly: trailing bytes are corruption,
// which is what keeps accepted snapshots canonical.
func DecodeSnapshot(r io.Reader, wantKind byte, decode func(*SnapshotReader) error) error {
	kind, payloadLen, err := readSnapshotHeader(r)
	if err == io.EOF {
		err = fmt.Errorf("core: snapshot header truncated: %w", io.ErrUnexpectedEOF)
	}
	if err != nil {
		return err
	}
	if kind != wantKind {
		if name := KindName(kind); name != "" && name == KindName(wantKind) {
			return SnapshotMismatchf("snapshot is a retired %s layout (kind %d); re-seed the view from history",
				name, kind)
		}
		return SnapshotMismatchf("snapshot is a %s state, detector is %s",
			KindName(kind), KindName(wantKind))
	}
	payload, err := readSnapshotPayload(r, payloadLen)
	if err != nil {
		return err
	}
	sr := &SnapshotReader{src: bytes.NewBuffer(payload)}
	err = decode(sr)
	if err == nil {
		err = sr.Err()
	}
	if err != nil {
		// The payload was delivered whole, so running off its end is a
		// length prefix that lied — corruption, not truncation. This
		// holds whether the EOF was latched in the reader or returned
		// early by the decode callback.
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return snapshotFormatf("payload shorter than its structure: %v", err)
		}
		return err
	}
	if n := sr.src.Len(); n > 0 {
		return snapshotFormatf("%d trailing bytes after payload", n)
	}
	return nil
}

// EncodeDetector writes a fitted Detector — the exact active model, not
// its training window — as a payload fragment: rank, means, the normal
// principal axes P, the residual variances, and the confidence level.
// Serializing the model itself (rather than refitting on restore) is
// what makes a restored detector's alarm stream bin-for-bin identical
// to the original's.
func EncodeDetector(sw *SnapshotWriter, det *Detector) {
	m := det.Model()
	sw.Int(m.rank)
	sw.Floats(m.means)
	sw.Matrix(m.p)
	sw.Floats(m.residVariances)
	sw.F64(det.Confidence())
}

// DecodeDetector reads an EncodeDetector fragment and rebuilds the
// detector through the constructor Build uses, which derives P^T and
// P^T means with the same arithmetic, so restored detection matches the
// original to the bit.
func DecodeDetector(sr *SnapshotReader) (*Detector, error) {
	rank := sr.NonNegInt()
	means := sr.Floats()
	pm := sr.Matrix()
	resid := sr.Floats()
	confidence := sr.F64()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	m := len(means)
	if rank < 1 || rank >= m {
		return nil, snapshotFormatf("model rank %d out of [1, %d]", rank, m-1)
	}
	if pm == nil {
		return nil, snapshotFormatf("model axes missing")
	}
	if rows, cols := pm.Dims(); rows != m || cols != rank {
		return nil, snapshotFormatf("model axes are %dx%d, want %dx%d", rows, cols, m, rank)
	}
	if len(resid) != m-rank {
		return nil, snapshotFormatf("model has %d residual variances, want %d", len(resid), m-rank)
	}
	if !(0 < confidence && confidence < 1) {
		return nil, snapshotFormatf("model confidence %v out of (0,1)", confidence)
	}
	// A fit of finite bins has finite means, axes and variances; a model
	// without them would withhold every later bin as non-finite.
	if !mat.AllFinite(means) || !mat.AllFinite(pm.RawData()) || !mat.AllFinite(resid) {
		return nil, snapshotFormatf("model has a non-finite mean, axis or residual variance")
	}
	det, err := NewDetector(newModel(rank, means, pm, resid), confidence)
	if err != nil {
		return nil, snapshotFormatf("model threshold: %v", err)
	}
	return det, nil
}

// decodeDiagnoser reads an EncodeDetector fragment and rebuilds the
// diagnose pipeline around it. Only the detection stage is serialized:
// the identification stage is derived entirely from the model and the
// restoring detector's own routing matrix, which is construction
// configuration, not portable state.
func decodeDiagnoser(sr *SnapshotReader, paths *flowPaths, links int) (*Diagnoser, error) {
	det, err := DecodeDetector(sr)
	if err != nil {
		return nil, err
	}
	if det.Model().NumLinks() != links {
		return nil, SnapshotMismatchf("model has %d links, detector expects %d",
			det.Model().NumLinks(), links)
	}
	id, err := newIdentifier(det.Model(), paths)
	if err != nil {
		return nil, snapshotFormatf("identifier: %v", err)
	}
	return &Diagnoser{det: det, id: id}, nil
}
