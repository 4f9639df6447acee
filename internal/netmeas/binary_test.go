package netmeas

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"netanomaly/internal/mat"
)

func testMatrix(bins, links int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	y := mat.Zeros(bins, links)
	for i := 0; i < bins; i++ {
		for j := 0; j < links; j++ {
			y.Set(i, j, 1e6*rng.Float64())
		}
	}
	return y
}

func TestBinaryRoundTrip(t *testing.T) {
	y := testMatrix(97, 13, 1)
	var buf bytes.Buffer
	if err := WriteMatrixBinary(&buf, y); err != nil {
		t.Fatal(err)
	}
	wantLen := binaryHeaderSize + 97*(4+8*13)
	if buf.Len() != wantLen {
		t.Fatalf("encoded length %d, want %d", buf.Len(), wantLen)
	}
	got, err := ReadMatrixBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(got, y, 0) {
		t.Fatal("binary round trip is not bit-exact")
	}
}

func TestBinaryDecoderFrameByFrame(t *testing.T) {
	y := testMatrix(10, 5, 2)
	var buf bytes.Buffer
	if err := WriteMatrixBinary(&buf, y); err != nil {
		t.Fatal(err)
	}
	dec, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Links() != 5 {
		t.Fatalf("Links() = %d, want 5", dec.Links())
	}
	row := make([]float64, 5)
	for i := 0; i < 10; i++ {
		if err := dec.ReadFrame(row); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for j, v := range row {
			if v != y.At(i, j) {
				t.Fatalf("frame %d link %d: got %v want %v", i, j, v, y.At(i, j))
			}
		}
	}
	if err := dec.ReadFrame(row); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

func TestBinaryDecoderErrors(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		if err := WriteMatrixBinary(&buf, testMatrix(3, 4, 3)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantFmt bool // expect ErrBinaryFormat (else io.ErrUnexpectedEOF)
	}{
		{"empty", func(b []byte) []byte { return nil }, false},
		{"short header", func(b []byte) []byte { return b[:7] }, false},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, true},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }, true},
		{"nonzero reserved", func(b []byte) []byte { b[6] = 1; return b }, true},
		{"zero links", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 0)
			return b
		}, true},
		{"oversized links", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], MaxBinaryLinks+1)
			return b
		}, true},
		{"truncated frame length", func(b []byte) []byte { return b[:binaryHeaderSize+2] }, false},
		{"truncated payload", func(b []byte) []byte { return b[:binaryHeaderSize+4+9] }, false},
		{"frame length mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[binaryHeaderSize:], 8*4+8)
			return b
		}, true},
		{"nan load", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[binaryHeaderSize+4:], math.Float64bits(math.NaN()))
			return b
		}, true},
		{"inf load", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[binaryHeaderSize+4:], math.Float64bits(math.Inf(1)))
			return b
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadMatrixBinary(bytes.NewReader(tc.mangle(good())))
			if err == nil {
				t.Fatal("decode succeeded on mangled stream")
			}
			if tc.wantFmt && !errors.Is(err, ErrBinaryFormat) {
				t.Fatalf("error %v does not wrap ErrBinaryFormat", err)
			}
			if !tc.wantFmt && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("error %v does not wrap io.ErrUnexpectedEOF", err)
			}
		})
	}
}

func TestBinaryEncoderRejectsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewBinaryEncoder(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteFrame([]float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("encoder accepted NaN")
	}
	if err := enc.WriteFrame([]float64{1, 2}); err == nil {
		t.Fatal("encoder accepted mis-sized frame")
	}
}

// TestBinaryDecodeAllocFree is the zero-copy contract of the tentpole:
// once the decoder and its destination buffers exist, decoding a frame
// allocates nothing.
func TestBinaryDecodeAllocFree(t *testing.T) {
	const bins, links = 64, 120
	y := testMatrix(bins, links, 4)
	var buf bytes.Buffer
	if err := WriteMatrixBinary(&buf, y); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()

	dec, err := NewBinaryDecoder(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, links)
	rd := bytes.NewReader(payload)
	allocs := testing.AllocsPerRun(200, func() {
		if err := dec.ReadFrame(row); err == io.EOF {
			rd.Reset(payload[binaryHeaderSize:]) // skip header, rewind frames
			dec.r.Reset(rd)
		} else if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame allocates %v per frame, want 0", allocs)
	}

	// Batched path: ReadBatch into a pooled full batch is also clean.
	pool := NewFrameBatchPool(bins, links)
	fb := pool.Get()
	defer fb.Release()
	rd2 := bytes.NewReader(payload)
	dec2, err := NewBinaryDecoder(rd2)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		rows, err := dec2.ReadBatch(fb)
		if rows != bins || (err != nil && err != io.EOF) {
			t.Fatalf("rows=%d err=%v", rows, err)
		}
		if m := fb.Rows(rows); m.Rows() != bins {
			t.Fatal("full batch did not reuse the pooled matrix")
		}
		rd2.Reset(payload[binaryHeaderSize:])
		dec2.r.Reset(rd2)
	})
	if allocs != 0 {
		t.Fatalf("ReadBatch allocates %v per batch, want 0", allocs)
	}
}

func TestFrameBatchDoubleReleasePanics(t *testing.T) {
	pool := NewFrameBatchPool(4, 2)
	fb := pool.Get()
	fb.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	fb.Release()
}

func TestFrameBatchPartialRows(t *testing.T) {
	pool := NewFrameBatchPool(8, 3)
	fb := pool.Get()
	defer fb.Release()
	m := fb.Rows(5)
	if r, c := m.Dims(); r != 5 || c != 3 {
		t.Fatalf("partial batch dims %dx%d, want 5x3", r, c)
	}
	m.Set(4, 2, 42)
	if fb.full.At(4, 2) != 42 {
		t.Fatal("partial batch does not alias the pooled buffer")
	}
	gets, puts := pool.Counters()
	if gets != 1 || puts != 0 {
		t.Fatalf("counters gets=%d puts=%d, want 1,0", gets, puts)
	}
}

func TestStreamBinary(t *testing.T) {
	y := testMatrix(23, 6, 5)
	var buf bytes.Buffer
	if err := WriteMatrixBinary(&buf, y); err != nil {
		t.Fatal(err)
	}
	ch, errFn, err := StreamBinary(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for meas := range ch {
		if meas.Bin != n {
			t.Fatalf("bin %d out of order (want %d)", meas.Bin, n)
		}
		for j, v := range meas.Loads {
			if v != y.At(n, j) {
				t.Fatalf("bin %d link %d: got %v want %v", n, j, v, y.At(n, j))
			}
		}
		n++
	}
	if n != 23 {
		t.Fatalf("streamed %d bins, want 23", n)
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}

	// A truncated stream surfaces its decode error through errFn.
	trunc := buf.Bytes()[:buf.Len()-5]
	ch, errFn, err = StreamBinary(context.Background(), bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	for range ch {
		n++
	}
	if n != 22 {
		t.Fatalf("truncated stream yielded %d bins, want 22", n)
	}
	if err := errFn(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("errFn() = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestStreamBinaryCancel(t *testing.T) {
	y := testMatrix(1000, 4, 6)
	var buf bytes.Buffer
	if err := WriteMatrixBinary(&buf, y); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, errFn, err := StreamBinary(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	cancel()
	for range ch { // drain until the producer notices
	}
	if err := errFn(); err != nil {
		t.Fatal(err)
	}
}

// --- wire format v2: batch frames and codec negotiation ---

// wholeByteMatrix renders integral byte counts with diurnal structure —
// the load shape the XOR codec is built for (integer-valued float64s
// share long runs of trailing zero bits, so consecutive XORs collapse).
func wholeByteMatrix(bins, links int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	y := mat.Zeros(bins, links)
	for j := 0; j < links; j++ {
		base := 2e6 * (1 + rng.Float64())
		for i := 0; i < bins; i++ {
			day := 2 * math.Pi * float64(i%144) / 144
			v := base * (1.2 + 0.8*math.Sin(day)) * (1 + 0.05*rng.NormFloat64())
			y.Set(i, j, math.Round(v))
		}
	}
	return y
}

func TestBinaryV2RoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecRaw, CodecXOR} {
		for _, tc := range []struct{ bins, links, cap int }{
			{1, 1, 1},    // minimal
			{1, 5, 64},   // single short frame
			{64, 5, 64},  // exactly one full frame
			{97, 13, 16}, // six full frames + one short
			{96, 13, 16}, // full frames only, no trailer
			{5, 3, 4},    // capacity smaller than default
		} {
			name := fmt.Sprintf("%s/%dx%d cap %d", codec, tc.bins, tc.links, tc.cap)
			t.Run(name, func(t *testing.T) {
				y := testMatrix(tc.bins, tc.links, 7)
				format := WireFormat{Version: BinaryVersion2, Codec: codec, BatchBins: tc.cap}
				var buf bytes.Buffer
				if err := WriteMatrixBinaryFormat(&buf, y, format); err != nil {
					t.Fatal(err)
				}
				if codec == CodecRaw {
					frames := (tc.bins + tc.cap - 1) / tc.cap
					if want := binaryHeaderSize + frames*8 + 8*tc.bins*tc.links; buf.Len() != want {
						t.Fatalf("encoded length %d, want %d", buf.Len(), want)
					}
				}
				dec, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if dec.Version() != 2 || dec.Codec() != codec || dec.BatchBins() != tc.cap {
					t.Fatalf("sniffed format %+v, want v2 %s x%d", dec.Format(), codec, tc.cap)
				}
				got, err := ReadMatrixBinary(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if !mat.EqualApprox(got, y, 0) {
					t.Fatal("v2 round trip is not bit-exact")
				}
				// Canonical per (version, codec, capacity): re-encoding the
				// decoded matrix under the sniffed format reproduces the
				// stream byte for byte.
				var re bytes.Buffer
				if err := WriteMatrixBinaryFormat(&re, got, dec.Format()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(re.Bytes(), buf.Bytes()) {
					t.Fatal("v2 stream is not canonical under its own format")
				}
			})
		}
	}
}

// TestBinaryV2XORCompressesIntegralCounts pins the codec's reason to
// exist: on integral byte counts (what SNMP-style counters carry) the
// XOR payload runs well under raw's 8 bytes per load, while arbitrary
// full-precision noise stays near raw (the codec never inflates past
// its declared envelope bound).
func TestBinaryV2XORCompressesIntegralCounts(t *testing.T) {
	const bins, links, cap = 288, 40, 64
	smooth := wholeByteMatrix(bins, links, 11)
	var raw, xor bytes.Buffer
	if err := WriteMatrixBinaryFormat(&raw, smooth, WireFormat{Version: 2, Codec: CodecRaw, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixBinaryFormat(&xor, smooth, WireFormat{Version: 2, Codec: CodecXOR, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	if ratio := float64(raw.Len()) / float64(xor.Len()); ratio < 2 {
		t.Fatalf("xor compresses integral counts only %.2fx vs raw (%d vs %d bytes), want >= 2x", ratio, xor.Len(), raw.Len())
	}
	got, err := ReadMatrixBinary(bytes.NewReader(xor.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !mat.EqualApprox(got, smooth, 0) {
		t.Fatal("xor decode of integral counts is not bit-exact")
	}
	// A constant (idle) link costs a fixed 10 bytes per batch section.
	idle := mat.Zeros(cap, 2)
	var idleBuf bytes.Buffer
	if err := WriteMatrixBinaryFormat(&idleBuf, idle, WireFormat{Version: 2, Codec: CodecXOR, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	if want := binaryHeaderSize + 8 + 2*10; idleBuf.Len() != want {
		t.Fatalf("idle-link batch is %d bytes, want %d", idleBuf.Len(), want)
	}
}

func TestBinaryV2ReadCalls(t *testing.T) {
	const bins, links, cap = 200, 7, 64
	y := testMatrix(bins, links, 8)
	var v1, v2 bytes.Buffer
	if err := WriteMatrixBinary(&v1, y); err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixBinaryFormat(&v2, y, WireFormat{Version: 2, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	count := func(payload []byte) int64 {
		dec, err := NewBinaryDecoder(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		pool := NewFrameBatchPool(cap, links)
		for {
			fb := pool.Get()
			_, err := dec.ReadBatch(fb)
			fb.Release()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return dec.ReadCalls()
	}
	// v1: header + 2 per bin + the EOF probe; v2: header + 2 per batch
	// frame (200 bins = 3 full + 1 short) + the EOF probe.
	if got, want := count(v1.Bytes()), int64(1+2*bins+1); got != want {
		t.Fatalf("v1 stream issued %d reads, want %d", got, want)
	}
	if got, want := count(v2.Bytes()), int64(1+2*4+1); got != want {
		t.Fatalf("v2 stream issued %d reads, want %d", got, want)
	}
}

func TestBinaryV2DecoderErrors(t *testing.T) {
	const bins, links, cap = 40, 4, 16
	encode := func(codec Codec) []byte {
		var buf bytes.Buffer
		if err := WriteMatrixBinaryFormat(&buf, testMatrix(bins, links, 9), WireFormat{Version: 2, Codec: codec, BatchBins: cap}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	frameHdr := binaryHeaderSize // offset of the first batch frame header
	cases := []struct {
		name    string
		codec   Codec
		mangle  func([]byte) []byte
		wantFmt bool // else io.ErrUnexpectedEOF
	}{
		{"bad codec byte", CodecRaw, func(b []byte) []byte { b[5] = 7; return b }, true},
		{"zero batch capacity", CodecRaw, func(b []byte) []byte { b[6], b[7] = 0, 0; return b }, true},
		{"oversized batch capacity", CodecRaw, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], MaxBatchBins+1)
			return b
		}, true},
		{"truncated batch header", CodecRaw, func(b []byte) []byte { return b[:frameHdr+3] }, false},
		{"truncated batch payload", CodecRaw, func(b []byte) []byte { return b[:frameHdr+8+11] }, false},
		{"zero bin count", CodecRaw, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frameHdr:], 0)
			return b
		}, true},
		{"bin count beyond capacity", CodecRaw, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frameHdr:], cap+1)
			return b
		}, true},
		{"raw payload length mismatch", CodecRaw, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frameHdr+4:], uint32(8*cap*links+8))
			return b
		}, true},
		{"nan load in raw batch", CodecRaw, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[frameHdr+8:], math.Float64bits(math.NaN()))
			return b
		}, true},
		{"xor payload overrun", CodecXOR, func(b []byte) []byte {
			// Shrink the declared payload so the last section overruns.
			plen := binary.LittleEndian.Uint32(b[frameHdr+4:])
			binary.LittleEndian.PutUint32(b[frameHdr+4:], plen-1)
			return b[:len(b)-1]
		}, true},
		{"nan first load in xor section", CodecXOR, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[frameHdr+8:], math.Float64bits(math.NaN()))
			return b
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadMatrixBinary(bytes.NewReader(tc.mangle(encode(tc.codec))))
			if err == nil {
				t.Fatal("decode succeeded on mangled v2 stream")
			}
			if tc.wantFmt && !errors.Is(err, ErrBinaryFormat) {
				t.Fatalf("error %v does not wrap ErrBinaryFormat", err)
			}
			if !tc.wantFmt && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("error %v does not wrap io.ErrUnexpectedEOF", err)
			}
			// Every mangle hits the first frame: ReadBatch fails it and
			// counts no bins decoded.
			dec, err := NewBinaryDecoder(bytes.NewReader(tc.mangle(encode(tc.codec))))
			if err != nil {
				return // a header the decoder refuses
			}
			fb := NewFrameBatchPool(cap, links).Get()
			defer fb.Release()
			if rows, err := dec.ReadBatch(fb); err == nil || rows != 0 {
				t.Fatalf("ReadBatch on a mangled first frame: %d rows, error %v; want 0 rows and an error", rows, err)
			}
		})
	}
}

// TestBinaryV2FrameAfterShortRejected pins the canonical framing rule:
// only the final batch frame may carry fewer than the header's capacity,
// so any frame following a short one is structural corruption.
func TestBinaryV2FrameAfterShortRejected(t *testing.T) {
	const links, cap = 3, 8
	y := testMatrix(4, links, 10) // one short frame (4 < 8)
	var buf bytes.Buffer
	if err := WriteMatrixBinaryFormat(&buf, y, WireFormat{Version: 2, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	// Append the same short frame again: bins would still be rectangular
	// and finite, so only the framing rule can reject it.
	stream := append(buf.Bytes(), buf.Bytes()[binaryHeaderSize:]...)
	_, err := ReadMatrixBinary(bytes.NewReader(stream))
	if !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("frame after short frame: got %v, want ErrBinaryFormat", err)
	}
}

func TestBinaryV2NonCanonicalXOREnvelopeRejected(t *testing.T) {
	const links, cap = 1, 4
	y := mat.NewDense(4, 1, []float64{2, 3, 2, 3}) // varying column
	var buf bytes.Buffer
	if err := WriteMatrixBinaryFormat(&buf, y, WireFormat{Version: 2, Codec: CodecXOR, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	canonical := buf.Bytes()
	section := binaryHeaderSize + 8 // skip stream header + batch frame header
	trail, width := canonical[section+8], canonical[section+9]
	if width == 0 {
		t.Fatal("test column unexpectedly constant")
	}
	widen := append([]byte(nil), canonical...)
	// Re-encode the section with width+1: same values, fatter deltas —
	// a valid-looking but non-minimal envelope the decoder must refuse.
	old := int(width) * 3 // three deltas
	var fat []byte
	fat = append(fat, widen[:section+8]...)
	fat = append(fat, trail, width+1)
	deltas := canonical[section+10 : section+10+old]
	for i := 0; i < 3; i++ {
		fat = append(fat, deltas[i*int(width):(i+1)*int(width)]...)
		fat = append(fat, 0) // widened top byte
	}
	binary.LittleEndian.PutUint32(fat[binaryHeaderSize+4:], uint32(len(fat)-binaryHeaderSize-8))
	_, err := ReadMatrixBinary(bytes.NewReader(fat))
	if !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("non-minimal width accepted: %v", err)
	}
	// All-zero deltas with width > 0 must also be refused (the canonical
	// encoding of a constant column is width = 0, no delta bytes).
	constY := mat.NewDense(4, 1, []float64{5, 5, 5, 5})
	var constBuf bytes.Buffer
	if err := WriteMatrixBinaryFormat(&constBuf, constY, WireFormat{Version: 2, Codec: CodecXOR, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	cb := constBuf.Bytes()
	bloat := append([]byte(nil), cb[:section+8]...)
	bloat = append(bloat, 0, 1, 0, 0, 0) // trail 0, width 1, three zero deltas
	binary.LittleEndian.PutUint32(bloat[binaryHeaderSize+4:], uint32(len(bloat)-binaryHeaderSize-8))
	_, err = ReadMatrixBinary(bytes.NewReader(bloat))
	if !errors.Is(err, ErrBinaryFormat) {
		t.Fatalf("all-zero deltas with width 1 accepted: %v", err)
	}
}

func TestBinaryWireFormatValidation(t *testing.T) {
	var buf bytes.Buffer
	cases := []WireFormat{
		{Version: 3},                              // unknown version
		{Version: 1, Codec: CodecXOR},             // v1 has no codec byte
		{Version: 1, BatchBins: 4},                // v1 has no batch framing
		{Version: 2, Codec: Codec(9)},             // unknown codec
		{Version: 2, BatchBins: MaxBatchBins + 1}, // capacity out of range
		{Version: 2, BatchBins: -1},               // negative capacity
	}
	for _, f := range cases {
		if _, err := NewBinaryEncoderFormat(&buf, 4, f); err == nil {
			t.Fatalf("encoder accepted invalid format %+v", f)
		}
	}
	// Oversized batch frame: capacity x links beyond the frame byte cap.
	if _, err := NewBinaryEncoderFormat(&buf, MaxBinaryLinks, WireFormat{Version: 2, BatchBins: MaxBatchBins}); err == nil {
		t.Fatal("encoder accepted a batch frame beyond maxBatchFrameBytes")
	}
}

func TestBinaryV2EncoderFlush(t *testing.T) {
	const links, cap = 3, 8
	var buf bytes.Buffer
	enc, err := NewBinaryEncoderFormat(&buf, links, WireFormat{Version: 2, BatchBins: cap})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteFrame([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	headerOnly := buf.Len()
	if headerOnly != binaryHeaderSize {
		t.Fatalf("v2 encoder wrote %d bytes before Flush, want just the %d-byte header", headerOnly, binaryHeaderSize)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	afterFlush := buf.Len()
	if afterFlush == headerOnly {
		t.Fatal("Flush emitted nothing for a pending bin")
	}
	if err := enc.Flush(); err != nil { // idempotent: nothing pending
		t.Fatal(err)
	}
	if buf.Len() != afterFlush {
		t.Fatal("second Flush emitted bytes with nothing pending")
	}
	got, err := ReadMatrixBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 1 || got.At(0, 2) != 3 {
		t.Fatalf("flushed stream decoded to %dx%d", got.Rows(), got.Cols())
	}
}

// TestBinaryV2ReadFrameInterop drives a v2 batch-framed stream through
// the per-bin ReadFrame API (what StreamBinary uses) and through a
// ReadFrame/ReadBatch mix: bins must arrive in order with none lost at
// the batch boundaries.
func TestBinaryV2ReadFrameInterop(t *testing.T) {
	const bins, links, cap = 37, 5, 8
	y := testMatrix(bins, links, 12)
	var buf bytes.Buffer
	if err := WriteMatrixBinaryFormat(&buf, y, WireFormat{Version: 2, Codec: CodecXOR, BatchBins: cap}); err != nil {
		t.Fatal(err)
	}
	dec, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, links)
	for i := 0; i < bins; i++ {
		if err := dec.ReadFrame(row); err != nil {
			t.Fatalf("bin %d: %v", i, err)
		}
		for j, v := range row {
			if v != y.At(i, j) {
				t.Fatalf("bin %d link %d: got %v want %v", i, j, v, y.At(i, j))
			}
		}
	}
	if err := dec.ReadFrame(row); err != io.EOF {
		t.Fatalf("after last bin: got %v, want io.EOF", err)
	}

	// Mixed consumption: three bins via ReadFrame, the rest via
	// ReadBatch — the pending buffer must hand over cleanly.
	dec2, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dec2.ReadFrame(row); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewFrameBatchPool(cap, links)
	seen := 3
	for {
		fb := pool.Get()
		rows, err := dec2.ReadBatch(fb)
		for r := 0; r < rows; r++ {
			for j := 0; j < links; j++ {
				if got := fb.Rows(rows).At(r, j); got != y.At(seen+r, j) {
					t.Fatalf("mixed read: bin %d link %d got %v want %v", seen+r, j, got, y.At(seen+r, j))
				}
			}
		}
		seen += rows
		fb.Release()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if seen != bins {
		t.Fatalf("mixed read consumed %d bins, want %d", seen, bins)
	}
}

// TestBinaryV2DecodeAllocFree is the v2 image of the zero-copy
// contract: once the decoder and the pooled batch exist, decoding a
// whole batch frame — either codec — allocates nothing.
func TestBinaryV2DecodeAllocFree(t *testing.T) {
	const bins, links, cap = 256, 120, 64
	y := wholeByteMatrix(bins, links, 13)
	for _, codec := range []Codec{CodecRaw, CodecXOR} {
		t.Run(codec.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMatrixBinaryFormat(&buf, y, WireFormat{Version: 2, Codec: codec, BatchBins: cap}); err != nil {
				t.Fatal(err)
			}
			payload := buf.Bytes()
			pool := NewFrameBatchPool(cap, links)
			fb := pool.Get()
			defer fb.Release()
			rd := bytes.NewReader(payload)
			dec, err := NewBinaryDecoder(rd)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				rows, err := dec.ReadBatch(fb)
				if err == io.EOF {
					rd.Reset(payload[binaryHeaderSize:]) // rewind past the header
					dec.r.Reset(rd)
					return
				}
				if err != nil || rows != cap {
					t.Fatalf("rows=%d err=%v", rows, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("v2 %s ReadBatch allocates %v per batch, want 0", codec, allocs)
			}
		})
	}
}

// TestReadMatrixBinaryAllocatesOnce pins the cold-start load: a week at
// 120 links read from an in-memory reader is decoded into a matrix
// allocated once at its final size, under every version and codec (the
// last v2 frame is short: 1008 is not a multiple of 64). The budget,
// 1.25x the matrix, covers the decoder's read buffer and frame buffer;
// a matrix grown frame by frame allocated 6.5x. A reader that reports
// no length decodes the same matrix through the growth path.
func TestReadMatrixBinaryAllocatesOnce(t *testing.T) {
	const bins, links = 1008, 120
	y := wholeByteMatrix(bins, links, 21)
	budget := uint64(1.25 * 8 * bins * links)
	for _, f := range []WireFormat{{}, {Version: 2, Codec: CodecRaw}, {Version: 2, Codec: CodecXOR}} {
		t.Run(fmt.Sprintf("v%d-%s", max(f.Version, 1), f.Codec), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMatrixBinaryFormat(&buf, y, f); err != nil {
				t.Fatal(err)
			}
			least := uint64(1 << 62)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				got, err := ReadMatrixBinary(bytes.NewReader(buf.Bytes()))
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if !mat.EqualApprox(got, y, 0) {
					t.Fatal("decoded matrix differs from the encoded one")
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > budget {
				t.Fatalf("reading a %dx%d matrix allocated %d bytes, budget %d", bins, links, least, budget)
			}
			t.Logf("reading a %dx%d matrix allocated %d bytes", bins, links, least)
			unsized, err := ReadMatrixBinary(io.MultiReader(bytes.NewReader(buf.Bytes())))
			if err != nil {
				t.Fatal(err)
			}
			if !mat.EqualApprox(unsized, y, 0) {
				t.Fatal("a reader without a length decodes a different matrix")
			}
		})
	}
}
