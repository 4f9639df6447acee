package netanomaly_test

// Go-native fuzzing of the binary ingestion boundary, the mirror of
// FuzzReadMatrixCSV for the wire format (run continuously with
// `go test -fuzz=FuzzDecodeBinaryFrames .`; the seed corpus in
// testdata/fuzz runs as an ordinary test in CI). The decoder feeds
// pooled buffers sized from attacker-controlled header fields, so the
// properties checked are load-bearing: every accepted stream is a
// rectangular matrix of finite values, every rejection is classified —
// structural corruption wraps ErrBinaryFormat, truncation wraps
// io.ErrUnexpectedEOF — and an accepted stream re-encodes to the
// identical bytes under its own negotiated wire format (v1 per-bin
// frames, or v2 batch frames with the raw or xor codec), because each
// accepted (version, codec, capacity) choice has exactly one canonical
// serialization per matrix.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"netanomaly"
)

// binSeed renders a valid two-frame v1 stream the mutator can start from.
func binSeed() []byte {
	var buf bytes.Buffer
	m := netanomaly.NewMatrix(2, 3, []float64{1, 2.5, -3e9, 0, 5e-300, 6})
	if err := netanomaly.WriteMatrixBinary(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// binSeedV2 renders a valid v2 stream — one full batch frame plus a
// short trailer — under the given codec. The values mix integral
// counts (long xor delta runs), a constant column (width-0 section),
// and full-precision noise.
func binSeedV2(codec netanomaly.Codec, batch int) []byte {
	var buf bytes.Buffer
	data := []float64{
		1e6, 7, 0.125, 2e6, 7, 0.25, 1.5e6, 7, -0.5, 2.5e6, 7, 1e-9,
		3e6, 7, 64, 1e6, 7, -3e9, 9e5, 7, 5e-300, 8e5, 7, 42,
	}
	m := netanomaly.NewMatrix(8, 3, data)
	wf := netanomaly.WireFormat{Version: 2, Codec: codec, BatchBins: batch}
	if err := netanomaly.WriteMatrixBinaryFormat(&buf, m, wf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzDecodeBinaryFrames(f *testing.F) {
	valid := binSeed()
	f.Add(valid)
	f.Add([]byte{})                             // empty stream
	f.Add(valid[:12])                           // header only, no frames
	f.Add(valid[:len(valid)-5])                 // truncated mid-payload
	f.Add(valid[:13])                           // truncated mid-length-prefix
	f.Add(append([]byte("XAMB"), valid[4:]...)) // bad magic
	mut := func(b []byte, i int, v byte) []byte {
		c := append([]byte(nil), b...)
		c[i] = v
		return c
	}
	f.Add(mut(valid, 4, 9))    // unsupported version
	f.Add(mut(valid, 5, 1))    // nonzero reserved byte
	f.Add(mut(valid, 8, 0))    // link count 0 (low byte of little-endian u32)
	f.Add(mut(valid, 11, 255)) // link count far beyond MaxBinaryLinks
	f.Add(mut(valid, 12, 7))   // frame length prefix != 8*links
	// NaN payload: all-ones exponent with a mantissa bit set.
	nan := append([]byte(nil), valid...)
	for i := 16; i < 24; i++ {
		nan[i] = 0xff
	}
	f.Add(nan)

	// v2 batch frames, both codecs: valid streams (full frame + short
	// trailer, a capacity-1 degenerate, a single short frame), then the
	// v2-specific mutations — codec byte, batch capacity, bin count,
	// payload length, xor envelope bytes.
	v2raw := binSeedV2(netanomaly.CodecRaw, 5)
	v2xor := binSeedV2(netanomaly.CodecXOR, 5)
	f.Add(v2raw)
	f.Add(v2xor)
	f.Add(binSeedV2(netanomaly.CodecRaw, 1))                    // every frame full at capacity 1
	f.Add(binSeedV2(netanomaly.CodecXOR, 64))                   // single short frame
	f.Add(v2raw[:len(v2raw)-3])                                 // truncated mid-batch-payload
	f.Add(v2raw[:14])                                           // truncated mid-batch-header
	f.Add(mut(v2raw, 5, 9))                                     // unsupported codec
	f.Add(mut(v2raw, 6, 0))                                     // batch capacity 0
	f.Add(mut(v2raw, 7, 255))                                   // batch capacity beyond MaxBatchBins
	f.Add(mut(v2raw, 12, 0))                                    // bin count 0
	f.Add(mut(v2raw, 12, 9))                                    // bin count beyond capacity
	f.Add(mut(v2raw, 16, 77))                                   // raw payload length mismatch
	f.Add(mut(v2xor, 16, 255))                                  // xor payload length out of range
	f.Add(mut(v2xor, 28, 65))                                   // xor trail byte > 63
	f.Add(mut(v2xor, 29, 9))                                    // xor width byte > 8
	f.Add(append(append([]byte(nil), v2xor...), v2xor[12:]...)) // frame after short frame

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := netanomaly.ReadMatrixBinary(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, netanomaly.ErrBinaryFormat) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("unclassified decode error %v: rejections must wrap ErrBinaryFormat (corrupt) or io.ErrUnexpectedEOF (truncated)", err)
			}
			return
		}
		rows, cols := m.Dims()
		if rows <= 0 || cols <= 0 {
			t.Fatalf("accepted stream produced a %dx%d matrix", rows, cols)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if v := m.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite value %v at %d,%d slipped past the decoder", v, i, j)
				}
			}
		}
		// Canonical form: under its own (version, codec, capacity) the
		// format has no padding, optional fields or alternate encodings,
		// so re-serializing an accepted stream must reproduce it byte
		// for byte. The header already decoded once, so sniffing the
		// format again cannot fail.
		dec, err := netanomaly.NewBinaryDecoder(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-sniffing an accepted header failed: %v", err)
		}
		var buf bytes.Buffer
		if err := netanomaly.WriteMatrixBinaryFormat(&buf, m, dec.Format()); err != nil {
			t.Fatalf("re-encoding accepted matrix: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), b) {
			t.Fatalf("accepted stream is not canonical: %d input bytes re-encode to %d different bytes under %+v", len(b), buf.Len(), dec.Format())
		}
	})
}
