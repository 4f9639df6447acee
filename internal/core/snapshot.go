package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
	SnapKindHybrid      byte = 10
	// snapKindHybridV1 is the retired hybrid layout, which carried the
	// escalation policy's run and hysteresis state. KindName still names
	// it, so an old hybrid checkpoint routes to a hybrid detector and is
	// refused there as a mismatch instead of as corruption.
	snapKindHybridV1 byte = 8

	SnapKindView    byte = 0x20
	SnapKindMonitor byte = 0x21
	// SnapKindIncidents is the incident correlator's live table — an
	// engine-level envelope appended after the monitor envelope in a
	// checkpoint file so a warm restart resumes open incidents.
	SnapKindIncidents byte = 0x22
)

// KindName maps a snapshot kind byte to the backend name Stats()
// reports ("subspace", "ewma", ...), or "" for an unknown byte.
func KindName(kind byte) string {
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
	case SnapKindHybrid, snapKindHybridV1:
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

// SnapshotWriter serializes snapshot payload fields. It latches the
// first write error; callers check Err once at the end.
type SnapshotWriter struct {
	w       io.Writer
	err     error
	scratch [8]byte
}

// NewSnapshotWriter wraps w. Most callers use EncodeSnapshot instead,
// which frames the payload in an envelope.
func NewSnapshotWriter(w io.Writer) *SnapshotWriter { return &SnapshotWriter{w: w} }

// Err returns the first error any write hit.
func (sw *SnapshotWriter) Err() error { return sw.err }

func (sw *SnapshotWriter) write(b []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(b)
}

// U8 writes one byte.
func (sw *SnapshotWriter) U8(v byte) {
	sw.scratch[0] = v
	sw.write(sw.scratch[:1])
}

// U32 writes a little-endian uint32.
func (sw *SnapshotWriter) U32(v uint32) {
	binary.LittleEndian.PutUint32(sw.scratch[:4], v)
	sw.write(sw.scratch[:4])
}

// U64 writes a little-endian uint64.
func (sw *SnapshotWriter) U64(v uint64) {
	binary.LittleEndian.PutUint64(sw.scratch[:8], v)
	sw.write(sw.scratch[:8])
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

// Floats writes a length-prefixed float64 slice.
func (sw *SnapshotWriter) Floats(v []float64) {
	sw.U32(uint32(len(v)))
	for _, f := range v {
		sw.F64(f)
	}
}

// Ints writes a length-prefixed int slice (as int64s).
func (sw *SnapshotWriter) Ints(v []int) {
	sw.U32(uint32(len(v)))
	for _, n := range v {
		sw.I64(int64(n))
	}
}

// String writes a length-prefixed UTF-8 string.
func (sw *SnapshotWriter) String(s string) {
	sw.U32(uint32(len(s)))
	sw.write([]byte(s))
}

// Bytes writes a length-prefixed byte blob.
func (sw *SnapshotWriter) Bytes(b []byte) {
	sw.U32(uint32(len(b)))
	sw.write(b)
}

// Matrix writes a possibly-nil dense matrix: a presence byte, then
// dims and row-major data.
func (sw *SnapshotWriter) Matrix(m *mat.Dense) {
	if m == nil {
		sw.U8(0)
		return
	}
	sw.U8(1)
	rows, cols := m.Dims()
	sw.U32(uint32(rows))
	sw.U32(uint32(cols))
	for _, f := range m.RawData() {
		sw.F64(f)
	}
}

// RowRing writes a sliding window: its capacity plus the buffered rows
// oldest-first, so a restore rebuilds an equivalent ring by pushing
// them back in order.
func (sw *SnapshotWriter) RowRing(r *mat.RowRing) {
	sw.U32(uint32(r.Cap()))
	sw.Matrix(r.Matrix())
}

// Nested hands the writer to write so a composite backend (multiflow,
// hybrid) can embed a stage detector's self-framed envelope inside its
// own payload. The child's error latches like any other write error.
func (sw *SnapshotWriter) Nested(write func(io.Writer) error) {
	if sw.err != nil {
		return
	}
	sw.err = write(sw.w)
}

// SnapshotReader deserializes snapshot payload fields, latching the
// first error (classified per the package taxonomy). Reads after an
// error return zero values.
type SnapshotReader struct {
	r       io.Reader
	err     error
	scratch [8]byte
}

// Err returns the first error any read hit.
func (sr *SnapshotReader) Err() error { return sr.err }

func (sr *SnapshotReader) fail(err error) {
	if sr.err == nil {
		sr.err = err
	}
}

func (sr *SnapshotReader) read(b []byte) bool {
	if sr.err != nil {
		return false
	}
	if _, err := io.ReadFull(sr.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		sr.err = fmt.Errorf("core: snapshot truncated: %w", err)
		return false
	}
	return true
}

// U8 reads one byte.
func (sr *SnapshotReader) U8() byte {
	if !sr.read(sr.scratch[:1]) {
		return 0
	}
	return sr.scratch[0]
}

// U32 reads a little-endian uint32.
func (sr *SnapshotReader) U32() uint32 {
	if !sr.read(sr.scratch[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(sr.scratch[:4])
}

// U64 reads a little-endian uint64.
func (sr *SnapshotReader) U64() uint64 {
	if !sr.read(sr.scratch[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(sr.scratch[:8])
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

// Floats reads a length-prefixed float64 slice.
func (sr *SnapshotReader) Floats() []float64 {
	n := sr.sliceLen("float slice")
	if sr.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = sr.F64()
	}
	if sr.err != nil {
		return nil
	}
	return out
}

// Ints reads a length-prefixed int slice.
func (sr *SnapshotReader) Ints() []int {
	n := sr.sliceLen("int slice")
	if sr.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = sr.Int()
	}
	if sr.err != nil {
		return nil
	}
	return out
}

// String reads a length-prefixed UTF-8 string.
func (sr *SnapshotReader) String() string {
	n := sr.sliceLen("string")
	if sr.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	if !sr.read(b) {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed byte blob.
func (sr *SnapshotReader) Bytes() []byte {
	n := sr.sliceLen("byte blob")
	if sr.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	if !sr.read(b) {
		return nil
	}
	return b
}

// Matrix reads a possibly-nil dense matrix.
func (sr *SnapshotReader) Matrix() *mat.Dense {
	switch p := sr.U8(); p {
	case 0:
		return nil
	case 1:
	default:
		sr.fail(snapshotFormatf("matrix presence byte %#x", p))
		return nil
	}
	rows, cols := sr.U32(), sr.U32()
	if sr.err != nil {
		return nil
	}
	if rows == 0 || cols == 0 {
		sr.fail(snapshotFormatf("matrix dims %dx%d", rows, cols))
		return nil
	}
	if uint64(rows)*uint64(cols) > maxSnapshotElems {
		sr.fail(snapshotFormatf("matrix %dx%d exceeds element limit", rows, cols))
		return nil
	}
	data := make([]float64, int(rows)*int(cols))
	for i := range data {
		data[i] = sr.F64()
	}
	if sr.err != nil {
		return nil
	}
	return mat.NewDense(int(rows), int(cols), data)
}

// RowRing reads a sliding window serialized by SnapshotWriter.RowRing
// into a fresh ring with the serialized capacity, validating the column
// count against cols.
func (sr *SnapshotReader) RowRing(cols int) *mat.RowRing { return sr.rowRing(cols, false) }

// rowRing is RowRing; finite also refuses a NaN or infinite value as
// corruption, checked before the rows are copied into the ring.
func (sr *SnapshotReader) rowRing(cols int, finite bool) *mat.RowRing {
	capacity := sr.U32()
	m := sr.Matrix()
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
	ring := mat.NewRowRing(int(capacity), cols)
	if m == nil {
		return ring
	}
	rows, c := m.Dims()
	if c != cols {
		sr.fail(SnapshotMismatchf("ring has %d columns, detector expects %d", c, cols))
		return nil
	}
	if rows > int(capacity) {
		sr.fail(snapshotFormatf("ring holds %d rows over capacity %d", rows, capacity))
		return nil
	}
	if finite && !mat.AllFinite(m.RawData()) {
		sr.fail(snapshotFormatf("ring holds a non-finite value"))
		return nil
	}
	for b := 0; b < rows; b++ {
		ring.Push(m.RowView(b))
	}
	return ring
}

// Nested hands the remaining payload stream to read so a composite
// backend can restore a stage detector from the envelope embedded at
// this position. The child's (already classified) error latches like
// any other read error.
func (sr *SnapshotReader) Nested(read func(io.Reader) error) {
	if sr.err != nil {
		return
	}
	sr.err = read(sr.r)
}

// EncodeSnapshot buffers the payload encode writes, then frames it in a
// NAMS envelope on w. The payload is buffered (not streamed) because
// the envelope's length prefix must be exact — it is what lets
// envelopes nest and concatenate.
func EncodeSnapshot(w io.Writer, kind byte, encode func(*SnapshotWriter)) error {
	var buf bytes.Buffer
	sw := NewSnapshotWriter(&buf)
	encode(sw)
	if err := sw.Err(); err != nil {
		return err
	}
	var hdr [snapshotHeaderLen]byte
	copy(hdr[:4], snapshotMagic)
	hdr[4] = snapshotVersion
	hdr[5] = kind
	binary.LittleEndian.PutUint64(hdr[6:], uint64(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readSnapshotHeader validates the envelope header and returns the kind
// byte and payload length.
func readSnapshotHeader(r io.Reader) (kind byte, payloadLen uint64, err error) {
	var hdr [snapshotHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, 0, fmt.Errorf("core: snapshot header truncated: %w", io.ErrUnexpectedEOF)
		}
		return 0, 0, err
	}
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
	payloadLen = binary.LittleEndian.Uint64(hdr[6:])
	if payloadLen > maxSnapshotPayload {
		return 0, 0, snapshotFormatf("payload length %d exceeds limit", payloadLen)
	}
	return kind, payloadLen, nil
}

// ReadSnapshotEnvelope consumes exactly one envelope from r and returns
// its kind and the complete envelope bytes (header included), so a
// caller can route the blob to the right detector's Restore without
// understanding the payload. Errors follow the package taxonomy.
func ReadSnapshotEnvelope(r io.Reader) (kind byte, envelope []byte, err error) {
	var hdr [snapshotHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, err // clean end-of-stream: caller distinguishes
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("core: snapshot header truncated: %w", err)
		}
		return 0, nil, err
	}
	kind, payloadLen, err := readSnapshotHeader(bytes.NewReader(hdr[:]))
	if err != nil {
		return 0, nil, err
	}
	envelope = make([]byte, snapshotHeaderLen+int(payloadLen))
	copy(envelope, hdr[:])
	if _, err := io.ReadFull(r, envelope[snapshotHeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("core: snapshot payload truncated: %w", err)
	}
	return kind, envelope, nil
}

// DecodeSnapshot strips one envelope from r, verifies the kind matches
// wantKind (a mismatch wraps ErrSnapshotMismatch — the caller offered
// the snapshot to the wrong detector), and hands the payload to decode.
// The payload must be consumed exactly: trailing bytes are corruption,
// which is what keeps accepted snapshots canonical.
func DecodeSnapshot(r io.Reader, wantKind byte, decode func(*SnapshotReader) error) error {
	kind, payloadLen, err := readSnapshotHeader(r)
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
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("core: snapshot payload truncated: %w", err)
	}
	br := bytes.NewReader(payload)
	sr := &SnapshotReader{r: br}
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
	if br.Len() > 0 {
		return snapshotFormatf("%d trailing bytes after payload", br.Len())
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
// detector, recomputing P^T means with the same arithmetic Build uses so
// restored detection matches the original to the bit.
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
	model := &Model{
		rank:           rank,
		means:          means,
		p:              pm,
		pmeans:         mat.MulTVec(pm, means),
		residVariances: resid,
	}
	det, err := NewDetector(model, confidence)
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
