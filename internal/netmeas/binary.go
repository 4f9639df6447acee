package netmeas

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"netanomaly/internal/mat"
)

// hostLittleEndian reports whether float64 values lie in memory in the
// wire's byte order, which lets the raw codec read a batch payload
// straight into the destination floats and skip both the staging copy
// and the per-value byte shuffle. Every platform Go targets that this
// project runs on is little-endian; the probe keeps the big-endian
// fallback honest rather than silently corrupt.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Binary wire format for link-load streams. The format replaces CSV on
// the hot ingest path: frames decode with a fixed number of reads and no
// parsing, field widths are fixed, and the decoder can deserialize
// straight into reused buffers — zero heap allocation per bin at steady
// state.
//
// Version 1 layout (all integers little-endian):
//
//	header  (12 bytes)  "NAMB" | version=1 | 3 reserved zero bytes | uint32 link count
//	frame   (4+8m bytes) uint32 payload length (must equal 8*links) | links float64 loads
//
// One frame per time bin, two reads per bin. Version 2 amortizes the
// framing over a whole batch of bins and adds codec negotiation in the
// formerly reserved header bytes:
//
//	header  (12 bytes)  "NAMB" | version=2 | codec (1 byte) | uint16 batch capacity | uint32 link count
//	frame   (8+p bytes) uint32 bin count n | uint32 payload length p | payload
//
// so a stream costs two reads per batch instead of two per bin. Every
// frame except the last must carry exactly the header's batch capacity
// of bins (the decoder rejects a frame after a short one), which keeps
// the serialization canonical: a matrix has exactly one v2 encoding per
// (codec, capacity) choice. The codec byte selects the payload encoding:
// CodecRaw is bin-major LE float64 (8*n*links bytes, the batch image of
// the v1 payload); CodecXOR is the link-major XOR-compressed layout of
// codec.go. Frames in stream order, no trailer: a clean EOF at a frame
// boundary ends the stream. Non-finite loads are rejected on both sides
// of the wire under every version and codec.
const (
	binaryMagic = "NAMB"
	// BinaryVersion is the wire-format version written by default
	// (NewBinaryEncoder, WriteMatrixBinary) and the lowest version the
	// decoder accepts.
	BinaryVersion = 1
	// BinaryVersion2 is the batch-framed wire format with codec
	// negotiation. Written by NewBinaryEncoderFormat; the decoder sniffs
	// the version byte and accepts both.
	BinaryVersion2 = 2
	// MaxBinaryLinks caps the header's link count. The decoder sizes its
	// frame buffer from the header, so the cap bounds what a corrupt or
	// hostile stream can make it allocate.
	MaxBinaryLinks = 1 << 20
	// MaxBatchBins caps a v2 header's batch capacity.
	MaxBatchBins = 4096
	// DefaultBatchBins is the v2 batch capacity used when WireFormat
	// leaves it zero. It matches the engine's default BatchSize so one
	// decoded frame fills one pooled batch.
	DefaultBatchBins = 64

	binaryHeaderSize = 12
	// maxBatchFrameBytes bounds a v2 raw batch payload (8 * capacity *
	// links). Checked at header time, so a hostile header cannot combine
	// an in-range capacity with an in-range link count into a huge
	// buffer allocation.
	maxBatchFrameBytes = 1 << 25
)

// Codec identifies a v2 payload encoding, negotiated via the header's
// codec byte.
type Codec uint8

const (
	// CodecRaw stores each batch as bin-major LE float64 — fastest to
	// decode, 8 bytes per load on the wire.
	CodecRaw Codec = 0
	// CodecXOR stores each batch link-major with consecutive loads
	// XOR-delta compressed (see codec.go) — smooth traffic counts cost
	// a fraction of 8 bytes per load, at a modest decode premium.
	CodecXOR Codec = 1
)

// String returns the flag-friendly codec name.
func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecXOR:
		return "xor"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// ParseCodec maps a flag value to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "raw":
		return CodecRaw, nil
	case "xor":
		return CodecXOR, nil
	}
	return 0, fmt.Errorf("netmeas: unknown codec %q (want raw or xor)", s)
}

// WireFormat selects the version, codec, and batch framing of an encoded
// stream. The zero value means version 1 (per-bin frames, raw payload).
type WireFormat struct {
	// Version is the wire-format version: BinaryVersion (default when 0)
	// or BinaryVersion2.
	Version int
	// Codec is the v2 payload encoding; must be CodecRaw under v1.
	Codec Codec
	// BatchBins is the v2 batch capacity in bins per frame, in
	// [1, MaxBatchBins]; 0 means DefaultBatchBins. Must be 0 under v1.
	BatchBins int
}

func (f WireFormat) normalize(links int) (WireFormat, error) {
	if f.Version == 0 {
		f.Version = BinaryVersion
	}
	switch f.Version {
	case BinaryVersion:
		if f.Codec != CodecRaw {
			return f, fmt.Errorf("netmeas: wire format v1 supports only the raw codec, got %v", f.Codec)
		}
		if f.BatchBins != 0 {
			return f, fmt.Errorf("netmeas: wire format v1 has no batch framing (BatchBins %d)", f.BatchBins)
		}
	case BinaryVersion2:
		if f.Codec != CodecRaw && f.Codec != CodecXOR {
			return f, fmt.Errorf("netmeas: unsupported codec %v", f.Codec)
		}
		if f.BatchBins == 0 {
			f.BatchBins = DefaultBatchBins
		}
		if f.BatchBins < 0 || f.BatchBins > MaxBatchBins {
			return f, fmt.Errorf("netmeas: batch capacity %d out of range [1, %d]", f.BatchBins, MaxBatchBins)
		}
		if 8*f.BatchBins*links > maxBatchFrameBytes {
			return f, fmt.Errorf("netmeas: batch frame %d bins x %d links exceeds %d bytes", f.BatchBins, links, maxBatchFrameBytes)
		}
	default:
		return f, fmt.Errorf("netmeas: unsupported wire format version %d", f.Version)
	}
	return f, nil
}

// ErrBinaryFormat is wrapped by every structural decode error (bad
// magic, unsupported version or codec, oversized link count or batch
// capacity, mismatched frame length, non-canonical XOR section,
// non-finite load). Truncation errors wrap io.ErrUnexpectedEOF instead,
// so a reader can distinguish "garbage" from "cut short".
var ErrBinaryFormat = errors.New("malformed binary measurement stream")

// BinaryEncoder writes the binary wire format. The stream header is
// emitted by NewBinaryEncoder / NewBinaryEncoderFormat; WriteFrame then
// appends one bin per call, reusing internal buffers so encoding does
// not allocate. A v1 encoder writes each bin through immediately; a v2
// encoder buffers BatchBins bins and emits one Write per batch frame —
// call Flush after the last bin to emit the final short frame.
type BinaryEncoder struct {
	w      io.Writer
	links  int
	format WireFormat
	buf    []byte // v1: one frame; v2: one batch frame (+8 slack for PutUint64 overshoot)

	// v2 batching state: pending bins accumulated bin-major.
	bins    []float64
	pending int
}

// NewBinaryEncoder writes a version-1 stream header for links-wide
// frames to w and returns an encoder for the frames that follow.
func NewBinaryEncoder(w io.Writer, links int) (*BinaryEncoder, error) {
	return NewBinaryEncoderFormat(w, links, WireFormat{})
}

// NewBinaryEncoderFormat writes the stream header for the requested
// wire format and returns an encoder for the frames that follow.
func NewBinaryEncoderFormat(w io.Writer, links int, format WireFormat) (*BinaryEncoder, error) {
	if links <= 0 || links > MaxBinaryLinks {
		return nil, fmt.Errorf("netmeas: binary encoder: link count %d out of range [1, %d]", links, MaxBinaryLinks)
	}
	format, err := format.normalize(links)
	if err != nil {
		return nil, fmt.Errorf("netmeas: binary encoder: %w", err)
	}
	var hdr [binaryHeaderSize]byte
	copy(hdr[:4], binaryMagic)
	hdr[4] = byte(format.Version)
	if format.Version == BinaryVersion2 {
		hdr[5] = byte(format.Codec)
		binary.LittleEndian.PutUint16(hdr[6:8], uint16(format.BatchBins))
	}
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(links))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("netmeas: binary encoder: writing header: %w", err)
	}
	e := &BinaryEncoder{w: w, links: links, format: format}
	if format.Version == BinaryVersion {
		e.buf = make([]byte, 4+8*links)
	} else {
		e.bins = make([]float64, format.BatchBins*links)
		e.buf = make([]byte, 8+maxPayloadBytes(format.Codec, format.BatchBins, links)+8)
	}
	return e, nil
}

// maxPayloadBytes is the largest payload a batch frame of the codec can
// carry: raw is exactly 8 bytes per load; XOR is bounded by 8 bytes for
// each link's first load, a 2-byte section header, and at worst 8 bytes
// per subsequent load.
func maxPayloadBytes(codec Codec, bins, links int) int {
	if codec == CodecRaw {
		return 8 * bins * links
	}
	per := 8
	if bins > 1 {
		per += 2 + 8*(bins-1)
	}
	return per * links
}

// Links returns the per-frame link count fixed at construction.
func (e *BinaryEncoder) Links() int { return e.links }

// Format returns the negotiated wire format being written.
func (e *BinaryEncoder) Format() WireFormat { return e.format }

// WriteFrame appends one bin of link loads. Under v2 the bin is buffered
// until a full batch frame accumulates; call Flush after the last bin.
func (e *BinaryEncoder) WriteFrame(loads []float64) error {
	if len(loads) != e.links {
		return fmt.Errorf("netmeas: binary encoder: frame has %d links, want %d", len(loads), e.links)
	}
	if e.format.Version == BinaryVersion {
		binary.LittleEndian.PutUint32(e.buf[:4], uint32(8*e.links))
		for j, v := range loads {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("netmeas: binary encoder: non-finite load %v at link %d: %w", v, j, ErrBinaryFormat)
			}
			binary.LittleEndian.PutUint64(e.buf[4+8*j:], math.Float64bits(v))
		}
		if _, err := e.w.Write(e.buf); err != nil {
			return fmt.Errorf("netmeas: binary encoder: writing frame: %w", err)
		}
		return nil
	}
	row := e.bins[e.pending*e.links:]
	for j, v := range loads {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("netmeas: binary encoder: non-finite load %v at link %d: %w", v, j, ErrBinaryFormat)
		}
		row[j] = v
	}
	e.pending++
	if e.pending == e.format.BatchBins {
		return e.flushBatch()
	}
	return nil
}

// Flush emits any buffered bins as a final (possibly short) batch frame.
// It is a no-op under v1 and after everything has been flushed, so it is
// always safe to call once more.
func (e *BinaryEncoder) Flush() error {
	if e.format.Version == BinaryVersion || e.pending == 0 {
		return nil
	}
	return e.flushBatch()
}

func (e *BinaryEncoder) flushBatch() error {
	n := e.pending
	e.pending = 0
	var plen int
	if e.format.Codec == CodecRaw {
		plen = 8 * n * e.links
		payload := e.buf[8:]
		for i, v := range e.bins[:n*e.links] {
			binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
		}
	} else {
		plen = encodeXORFrame(e.buf[8:], e.bins[:n*e.links], n, e.links)
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(n))
	binary.LittleEndian.PutUint32(e.buf[4:8], uint32(plen))
	if _, err := e.w.Write(e.buf[:8+plen]); err != nil {
		return fmt.Errorf("netmeas: binary encoder: writing batch frame: %w", err)
	}
	return nil
}

// WriteMatrixBinary encodes a bins x links matrix as one version-1
// binary stream, one frame per row.
func WriteMatrixBinary(w io.Writer, y *mat.Dense) error {
	return WriteMatrixBinaryFormat(w, y, WireFormat{})
}

// WriteMatrixBinaryFormat encodes a bins x links matrix as one binary
// stream in the requested wire format, flushing the final short batch
// frame under v2. Each accepted (version, codec, capacity) choice has
// exactly one canonical serialization of the matrix, and it is the one
// this function writes.
func WriteMatrixBinaryFormat(w io.Writer, y *mat.Dense, format WireFormat) error {
	enc, err := NewBinaryEncoderFormat(w, y.Cols(), format)
	if err != nil {
		return err
	}
	for i := 0; i < y.Rows(); i++ {
		if err := enc.WriteFrame(y.RowView(i)); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// BinaryDecoder reads the binary wire format, sniffing the version from
// the header: v1 per-bin streams and v2 batch-framed streams (either
// codec) decode through the same API. The header is validated by
// NewBinaryDecoder; ReadFrame and ReadBatch then decode into
// caller-owned buffers without allocating (ReadFrame on a v2 stream
// lazily allocates one internal batch buffer on first use).
type BinaryDecoder struct {
	r      *bufio.Reader
	links  int
	format WireFormat
	raw    []byte // v1: one frame; v2: one batch payload (+8 slack for Uint64 overshoot)
	reads  int64  // io.ReadFull calls issued — the stream's syscall proxy

	// v2 state.
	short bool // a short batch frame was seen; the stream must end
	// pend buffers a decoded batch for per-bin ReadFrame consumption.
	pend               []float64
	pendRows, pendNext int
}

// NewBinaryDecoder validates the stream header on r and returns a
// decoder for the frames that follow. The link count and batch capacity
// are bounds-checked before any length-proportional allocation happens.
func NewBinaryDecoder(r io.Reader) (*BinaryDecoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	d := &BinaryDecoder{r: br}
	var hdr [binaryHeaderSize]byte
	d.reads++
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netmeas: binary stream: truncated header: %w", io.ErrUnexpectedEOF)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("netmeas: binary stream: bad magic %q: %w", hdr[:4], ErrBinaryFormat)
	}
	links := binary.LittleEndian.Uint32(hdr[8:12])
	if links == 0 || links > MaxBinaryLinks {
		return nil, fmt.Errorf("netmeas: binary stream: link count %d out of range [1, %d]: %w", links, MaxBinaryLinks, ErrBinaryFormat)
	}
	d.links = int(links)
	switch hdr[4] {
	case BinaryVersion:
		if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
			return nil, fmt.Errorf("netmeas: binary stream: nonzero reserved bytes: %w", ErrBinaryFormat)
		}
		d.format = WireFormat{Version: BinaryVersion, Codec: CodecRaw}
		d.raw = make([]byte, 4+8*d.links)
	case BinaryVersion2:
		if hdr[5] > uint8(CodecXOR) {
			return nil, fmt.Errorf("netmeas: binary stream: unsupported codec %d: %w", hdr[5], ErrBinaryFormat)
		}
		cap16 := binary.LittleEndian.Uint16(hdr[6:8])
		if cap16 == 0 || int(cap16) > MaxBatchBins {
			return nil, fmt.Errorf("netmeas: binary stream: batch capacity %d out of range [1, %d]: %w", cap16, MaxBatchBins, ErrBinaryFormat)
		}
		if 8*int(cap16)*d.links > maxBatchFrameBytes {
			return nil, fmt.Errorf("netmeas: binary stream: batch frame %d bins x %d links exceeds %d bytes: %w", cap16, d.links, maxBatchFrameBytes, ErrBinaryFormat)
		}
		d.format = WireFormat{Version: BinaryVersion2, Codec: Codec(hdr[5]), BatchBins: int(cap16)}
		d.raw = make([]byte, maxPayloadBytes(d.format.Codec, d.format.BatchBins, d.links)+8)
	default:
		return nil, fmt.Errorf("netmeas: binary stream: unsupported version %d (want %d or %d): %w", hdr[4], BinaryVersion, BinaryVersion2, ErrBinaryFormat)
	}
	return d, nil
}

// Links returns the per-frame link count declared by the stream header.
func (d *BinaryDecoder) Links() int { return d.links }

// Version returns the sniffed wire-format version (1 or 2).
func (d *BinaryDecoder) Version() int { return d.format.Version }

// Codec returns the negotiated payload codec (CodecRaw for v1 streams).
func (d *BinaryDecoder) Codec() Codec { return d.format.Codec }

// BatchBins returns the v2 batch capacity declared by the header, or 0
// for a v1 stream.
func (d *BinaryDecoder) BatchBins() int { return d.format.BatchBins }

// Format returns the full sniffed wire format; re-encoding an accepted
// stream with WriteMatrixBinaryFormat under this format reproduces it
// byte for byte.
func (d *BinaryDecoder) Format() WireFormat { return d.format }

// ReadCalls reports how many io.ReadFull calls the decoder has issued —
// a proxy for syscalls on an unbuffered source. A v1 stream costs two
// per bin; a v2 stream two per batch frame.
func (d *BinaryDecoder) ReadCalls() int64 { return d.reads }

// ReadFrame decodes the next bin into dst (len must equal Links). It
// returns io.EOF at a clean end of stream, an io.ErrUnexpectedEOF-
// wrapping error on truncation mid-frame, and an ErrBinaryFormat-
// wrapping error on structural corruption. On a v1 stream it does not
// allocate; on a v2 stream it decodes a whole batch frame into an
// internal buffer (allocated once, on first use) and serves bins from
// it.
func (d *BinaryDecoder) ReadFrame(dst []float64) error {
	if len(dst) != d.links {
		return fmt.Errorf("netmeas: binary stream: frame buffer has %d links, want %d", len(dst), d.links)
	}
	if d.format.Version == BinaryVersion2 {
		if d.pendNext >= d.pendRows {
			if d.pend == nil {
				d.pend = make([]float64, d.format.BatchBins*d.links)
			}
			n, err := d.readBatchFrame(d.pend)
			if err != nil {
				return err
			}
			d.pendRows, d.pendNext = n, 0
		}
		copy(dst, d.pend[d.pendNext*d.links:(d.pendNext+1)*d.links])
		d.pendNext++
		return nil
	}
	if err := d.readFrameBytes(); err != nil {
		return err
	}
	return d.decodeFrameBytes(dst)
}

// readFrameBytes reads the next v1 frame, length prefix checked, into the
// decoder's frame buffer. It returns io.EOF at a clean end of stream.
func (d *BinaryDecoder) readFrameBytes() error {
	d.reads++
	if _, err := io.ReadFull(d.r, d.raw[:4]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("netmeas: binary stream: truncated frame length: %w", io.ErrUnexpectedEOF)
	}
	if n := binary.LittleEndian.Uint32(d.raw[:4]); int64(n) != int64(8*d.links) {
		return fmt.Errorf("netmeas: binary stream: frame length %d, want %d: %w", n, 8*d.links, ErrBinaryFormat)
	}
	d.reads++
	if _, err := io.ReadFull(d.r, d.raw[4:]); err != nil {
		return fmt.Errorf("netmeas: binary stream: truncated frame payload: %w", io.ErrUnexpectedEOF)
	}
	return nil
}

// decodeFrameBytes decodes the v1 frame readFrameBytes read into dst.
func (d *BinaryDecoder) decodeFrameBytes(dst []float64) error {
	payload := d.raw[4:]
	for j := range dst {
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload[8*j:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("netmeas: binary stream: non-finite load %v at link %d: %w", v, j, ErrBinaryFormat)
		}
		dst[j] = v
	}
	return nil
}

// readBatchFrame decodes the next v2 batch frame into dst, which must
// hold BatchBins*links values, and returns the frame's bin count. It
// returns io.EOF at a clean end of stream.
func (d *BinaryDecoder) readBatchFrame(dst []float64) (int, error) {
	n, plen, err := d.readBatchHeader()
	if err == nil {
		err = d.readBatchPayload(dst, n, plen)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// readBatchHeader reads and checks the next v2 frame header and returns
// the frame's bin count and payload length. It returns io.EOF at a clean
// end of stream.
func (d *BinaryDecoder) readBatchHeader() (n, plen int, err error) {
	// The 8-byte frame header parses before the payload overwrites it,
	// so it can borrow the front of the payload buffer — a local array
	// would escape through the io.ReadFull interface call and cost one
	// heap allocation per batch.
	hdr := d.raw[:8]
	d.reads++
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("netmeas: binary stream: truncated batch frame header: %w", io.ErrUnexpectedEOF)
	}
	if d.short {
		// Canonical framing: only the last frame may be short, so any
		// frame after a short one is structural corruption.
		return 0, 0, fmt.Errorf("netmeas: binary stream: batch frame after a short frame: %w", ErrBinaryFormat)
	}
	n = int(binary.LittleEndian.Uint32(hdr[0:4]))
	plen = int(binary.LittleEndian.Uint32(hdr[4:8]))
	return n, plen, d.checkBatchHeader(n, plen)
}

// checkBatchHeader checks a v2 frame header's bin count and payload
// length against the stream's batch capacity and codec.
func (d *BinaryDecoder) checkBatchHeader(n, plen int) error {
	if n == 0 || n > d.format.BatchBins {
		return fmt.Errorf("netmeas: binary stream: batch frame bin count %d out of range [1, %d]: %w", n, d.format.BatchBins, ErrBinaryFormat)
	}
	if d.format.Codec == CodecRaw {
		if plen != 8*n*d.links {
			return fmt.Errorf("netmeas: binary stream: batch payload length %d, want %d: %w", plen, 8*n*d.links, ErrBinaryFormat)
		}
	} else if plen < 8*d.links || plen > maxPayloadBytes(CodecXOR, n, d.links) {
		return fmt.Errorf("netmeas: binary stream: batch payload length %d out of range for %d bins x %d links: %w", plen, n, d.links, ErrBinaryFormat)
	}
	return nil
}

// readBatchPayload decodes the payload of the frame whose header
// readBatchHeader returned into dst, which must hold n*links values.
func (d *BinaryDecoder) readBatchPayload(dst []float64, n, plen int) error {
	d.reads++
	if d.format.Codec == CodecRaw && hostLittleEndian {
		// Zero-copy raw decode: the wire is little-endian float64 bits
		// and so is the host, so the payload reads straight into the
		// destination batch buffer — no staging copy, no per-value byte
		// shuffle — and only a load-and-test scan runs over the result.
		cnt := n * d.links
		out := dst[:cnt]
		buf := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), plen)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return fmt.Errorf("netmeas: binary stream: truncated batch payload: %w", io.ErrUnexpectedEOF)
		}
		const exp = 0x7ff0000000000000
		for i, v := range out {
			if math.Float64bits(v)&exp == exp { // NaN or Inf exponent
				return fmt.Errorf("netmeas: binary stream: non-finite load at bin %d link %d: %w", i/d.links, i%d.links, ErrBinaryFormat)
			}
		}
	} else {
		if _, err := io.ReadFull(d.r, d.raw[:plen]); err != nil {
			return fmt.Errorf("netmeas: binary stream: truncated batch payload: %w", io.ErrUnexpectedEOF)
		}
		if d.format.Codec == CodecRaw {
			// Big-endian fallback: decode each value through the
			// byte-order shim.
			cnt := n * d.links
			out := dst[:cnt]
			const exp = 0x7ff0000000000000
			for i := 0; i < cnt; i++ {
				bits := binary.LittleEndian.Uint64(d.raw[8*i:])
				if bits&exp == exp { // NaN or Inf exponent
					return fmt.Errorf("netmeas: binary stream: non-finite load at bin %d link %d: %w", i/d.links, i%d.links, ErrBinaryFormat)
				}
				out[i] = math.Float64frombits(bits)
			}
		} else if err := decodeXORFrame(d.raw, plen, dst, n, d.links); err != nil {
			return err
		}
	}
	if n < d.format.BatchBins {
		d.short = true
	}
	return nil
}

// ReadBatch fills fb with decoded bins and reports how many. On a v1
// stream it loops ReadFrame up to fb.Cap(); on a v2 stream it decodes
// one whole batch frame straight into the pooled buffer — no per-bin
// loop, no rebatch copy — so fb.Cap() must be at least BatchBins. err
// is nil when bins were decoded and the stream continues, io.EOF when
// the stream ended cleanly (possibly with rows > 0 decoded first), and
// a decode error otherwise; rows counts only fully decoded bins in
// every case.
func (d *BinaryDecoder) ReadBatch(fb *FrameBatch) (rows int, err error) {
	if fb.Links() != d.links {
		return 0, fmt.Errorf("netmeas: binary stream: batch buffer has %d links, want %d", fb.Links(), d.links)
	}
	if d.format.Version == BinaryVersion2 {
		// Serve bins already decoded by an interleaved ReadFrame first,
		// so mixed callers never lose or reorder bins.
		if d.pendNext < d.pendRows {
			n := d.pendRows - d.pendNext
			if n > fb.Cap() {
				n = fb.Cap()
			}
			copy(fb.full.RawData()[:n*d.links], d.pend[d.pendNext*d.links:(d.pendNext+n)*d.links])
			d.pendNext += n
			return n, nil
		}
		if fb.Cap() < d.format.BatchBins {
			return 0, fmt.Errorf("netmeas: binary stream: batch buffer holds %d bins, stream frames carry up to %d", fb.Cap(), d.format.BatchBins)
		}
		// A short frame is the stream's last, but the caller learns that
		// on its next call (io.EOF) rather than by peeking ahead here.
		return d.readBatchFrame(fb.full.RawData())
	}
	for rows < fb.Cap() {
		if err := d.ReadFrame(fb.full.RowView(rows)); err != nil {
			return rows, err
		}
		rows++
	}
	return rows, nil
}

// ReadMatrixBinary decodes an entire binary stream (either version) into
// a bins x links matrix. The stream must hold at least one frame. When r
// is an in-memory reader that reports its length and reads at an offset
// (*bytes.Reader, *strings.Reader), the matrix is allocated once at its
// final size: a v1 stream's bin count follows from the bytes left, and a
// v2 stream's frame headers are read in place to sum theirs. Any other
// reader grows the matrix as frames decode.
func ReadMatrixBinary(r io.Reader) (*mat.Dense, error) {
	sized, ok := r.(sizedReader)
	var start int64
	if ok {
		start = sized.Size() - int64(sized.Len())
	}
	dec, err := NewBinaryDecoder(r)
	if err != nil {
		return nil, err
	}
	var data []float64
	if ok {
		data = make([]float64, 0, dec.binsAt(sized, start+binaryHeaderSize, sized.Size())*dec.links)
	}
	for {
		data, err = dec.appendFrame(data)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("netmeas: binary stream: no frames: %w", ErrBinaryFormat)
	}
	return mat.NewDense(len(data)/dec.links, dec.links, data), nil
}

// sizedReader is an in-memory stream: it reports how many of its bytes
// are left unread and in all, and reads at an offset without moving its
// cursor.
type sizedReader interface {
	io.ReaderAt
	Len() int
	Size() int64
}

// binsAt counts the bins the frames in r between offsets off and end
// hold, without consuming the stream: from the length alone under v1,
// and under v2 by summing the frame headers, which it checks as the
// decoder does and stops at the first it would reject. The count sizes
// an allocation made before any payload is checked, so it is capped at
// eight bytes of matrix per byte of stream: a corrupt header cannot
// make the allocation outgrow its input by more, and a stream that
// legitimately compresses further grows as it decodes.
func (d *BinaryDecoder) binsAt(r io.ReaderAt, off, end int64) int {
	if d.format.Version == BinaryVersion {
		return int((end - off) / int64(4+8*d.links))
	}
	limit := int((end - off) / int64(d.links))
	var hdr [8]byte
	bins := 0
	for off+8 <= end && bins < limit {
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			break
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:4]))
		plen := int(binary.LittleEndian.Uint32(hdr[4:8]))
		if d.checkBatchHeader(n, plen) != nil || off+8+int64(plen) > end {
			break
		}
		bins += n
		off += 8 + int64(plen)
		if n < d.format.BatchBins {
			break
		}
	}
	return min(bins, limit)
}

// appendFrame decodes the next frame (one bin under v1, one batch under
// v2) onto the end of data, growing data only when its capacity falls
// short, and returns io.EOF at a clean end of stream. It reads the
// frame's header before it grows data, so a matrix sized to the stream
// is never grown by the end-of-stream probe.
func (d *BinaryDecoder) appendFrame(data []float64) ([]float64, error) {
	n, plen := 1, 0
	var err error
	if d.format.Version == BinaryVersion2 {
		n, plen, err = d.readBatchHeader()
	} else {
		err = d.readFrameBytes()
	}
	if err != nil {
		return data, err
	}
	k := len(data)
	data = slices.Grow(data, n*d.links)[:k+n*d.links]
	if d.format.Version == BinaryVersion2 {
		err = d.readBatchPayload(data[k:], n, plen)
	} else {
		err = d.decodeFrameBytes(data[k:])
	}
	return data, err
}

// FrameBatchPool recycles fixed-shape FrameBatch buffers between a
// binary decoder (which fills them) and the engine shard that consumes
// them (which Releases them). Get and Release counts are exposed so
// lifecycle tests can assert every buffer handed out came back exactly
// once.
type FrameBatchPool struct {
	bins, links int
	pool        sync.Pool
	gets, puts  atomic.Int64
}

// NewFrameBatchPool returns a pool of bins x links batch buffers.
func NewFrameBatchPool(bins, links int) *FrameBatchPool {
	if bins <= 0 || links <= 0 {
		panic(fmt.Sprintf("netmeas: invalid FrameBatchPool shape %dx%d", bins, links))
	}
	p := &FrameBatchPool{bins: bins, links: links}
	p.pool.New = func() any {
		return &FrameBatch{full: mat.Zeros(bins, links), pool: p}
	}
	return p
}

// Bins returns the pool's per-batch row capacity.
func (p *FrameBatchPool) Bins() int { return p.bins }

// Links returns the pool's per-batch column count.
func (p *FrameBatchPool) Links() int { return p.links }

// Get returns a batch buffer, recycled when one is available. The
// caller owns it until Release.
func (p *FrameBatchPool) Get() *FrameBatch {
	fb := p.pool.Get().(*FrameBatch)
	fb.released.Store(false)
	p.gets.Add(1)
	return fb
}

// Counters reports lifetime Get and Release counts. After a stream has
// fully quiesced (every consumer done), gets == puts means no buffer
// leaked and none was double-returned (Release panics on the latter).
func (p *FrameBatchPool) Counters() (gets, puts int64) {
	return p.gets.Load(), p.puts.Load()
}

// FrameBatch is one pooled bins x links buffer. Exactly one Release per
// Get: releasing twice panics, and a batch must not be touched after
// Release (the pool will hand it to another Get).
type FrameBatch struct {
	full     *mat.Dense
	pool     *FrameBatchPool
	released atomic.Bool
}

// Cap returns the batch's row capacity.
func (fb *FrameBatch) Cap() int { return fb.pool.bins }

// Links returns the batch's column count.
func (fb *FrameBatch) Links() int { return fb.pool.links }

// Rows returns the first rows rows as a matrix aliasing the pooled
// buffer. A full batch returns the preallocated matrix itself (no
// allocation); a partial batch allocates only a small header.
func (fb *FrameBatch) Rows(rows int) *mat.Dense {
	if rows == fb.pool.bins {
		return fb.full
	}
	return mat.NewDense(rows, fb.pool.links, fb.full.RawData()[:rows*fb.pool.links])
}

// Release returns the buffer to its pool. Calling it twice panics —
// a second owner may already be filling the buffer.
func (fb *FrameBatch) Release() {
	if fb.released.Swap(true) {
		panic("netmeas: FrameBatch released twice")
	}
	fb.pool.puts.Add(1)
	fb.pool.pool.Put(fb)
}

// StreamBinary decodes a binary measurement stream (either version) and
// replays it as LinkMeasurements, the source Monitor.IngestStream
// expects. Decoding is double-buffered: the producer alternates between
// two row buffers, which is safe because a channel consumer that
// finishes with one measurement before receiving the next (as
// IngestStream does — it copies the loads into its batch buffer) can
// never observe a buffer being rewritten. The channel closes at end of
// stream, on a decode error, or when ctx is cancelled; call the
// returned error function after the channel closes to learn whether the
// stream ended cleanly.
func StreamBinary(ctx context.Context, r io.Reader) (<-chan LinkMeasurement, func() error, error) {
	dec, err := NewBinaryDecoder(r)
	if err != nil {
		return nil, nil, err
	}
	out := make(chan LinkMeasurement)
	bufs := [2][]float64{make([]float64, dec.links), make([]float64, dec.links)}
	var streamErr error // written before close(out); read only after the channel closes
	go func() {
		defer close(out)
		for bin := 0; ; bin++ {
			dst := bufs[bin&1]
			err := dec.ReadFrame(dst)
			if err == io.EOF {
				return
			}
			if err != nil {
				streamErr = err
				return
			}
			select {
			case out <- LinkMeasurement{Bin: bin, Loads: dst}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, func() error { return streamErr }, nil
}
