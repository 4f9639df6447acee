package main

import (
	"bytes"
	"io"
	"testing"

	"netanomaly"
)

// decodeAll reads a whole binary stream into rows.
func decodeAll(t *testing.T, r io.Reader) [][]float64 {
	t.Helper()
	m, err := netanomaly.ReadMatrixBinary(r)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

func TestSplitFramesRoundTrip(t *testing.T) {
	for _, codec := range []netanomaly.Codec{netanomaly.CodecRaw, netanomaly.CodecXOR} {
		// 150 bins in frames of 64: two full frames and a short one.
		const bins, links = 150, 5
		m := netanomaly.NewMatrix(bins, links, nil)
		for i := 0; i < bins; i++ {
			for j := 0; j < links; j++ {
				m.Set(i, j, float64(1000*i+7*j))
			}
		}
		var buf bytes.Buffer
		format := netanomaly.WireFormat{Version: 2, Codec: codec, BatchBins: frameBins}
		if err := netanomaly.WriteMatrixBinaryFormat(&buf, m, format); err != nil {
			t.Fatal(err)
		}
		header, frames, err := splitFrames(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if len(header) != wireHeaderSize || len(frames) != 3 {
			t.Fatalf("%s: header %d bytes, %d frames; want 12 and 3", codec, len(header), len(frames))
		}
		total := len(header)
		for _, f := range frames {
			total += len(f)
		}
		if total != buf.Len() {
			t.Errorf("%s: pieces add up to %d bytes, stream has %d", codec, total, buf.Len())
		}
		// Every frame stands alone behind the header, which is what lets a
		// replay repeat frames: the second frame decodes to bins 64..127.
		rows := decodeAll(t, io.MultiReader(bytes.NewReader(header), bytes.NewReader(frames[1])))
		if len(rows) != frameBins || rows[0][0] != 64000 || rows[63][4] != 127028 {
			t.Errorf("%s: frame 1 alone decodes to %d rows starting %v", codec, len(rows), rows[0])
		}
		// Full frames repeated behind one header decode as the bins repeated.
		rows = decodeAll(t, io.MultiReader(bytes.NewReader(header), bytes.NewReader(frames[0]), bytes.NewReader(frames[0])))
		if len(rows) != 2*frameBins || rows[64][1] != 7 || rows[127][0] != 63000 {
			t.Errorf("%s: a repeated frame decodes to %d rows", codec, len(rows))
		}
	}
}

func TestSplitFramesRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	m := netanomaly.NewMatrix(64, 3, nil)
	if err := netanomaly.WriteMatrixBinaryFormat(&buf, m, netanomaly.WireFormat{Version: 2, BatchBins: frameBins}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, bad := range map[string][]byte{
		"truncated payload": good[:len(good)-1],
		"truncated frame":   good[:wireHeaderSize+5],
		"v1 stream":         append([]byte("NAMB\x01"), good[5:]...),
		"short":             good[:6],
	} {
		if _, _, err := splitFrames(bad); err == nil {
			t.Errorf("%s: splitFrames accepted it", name)
		}
	}
}

func TestGenerateIsDeterministicInSeed(t *testing.T) {
	w, err := workloadByName("abilene-hybrid-storm")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.generate(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.generate(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.generate(4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.wire, b.wire) {
		t.Error("the same seed gave different wire bytes")
	}
	if bytes.Equal(a.wire, c.wire) {
		t.Error("different seeds gave the same wire bytes")
	}
	if len(a.frames) != streamFrames || len(a.anomalies) != streamFrames {
		t.Fatalf("%d frames, %d anomalies; want %d of each", len(a.frames), len(a.anomalies), streamFrames)
	}
	for f, an := range a.anomalies {
		if an.len != 8 || an.start < f*frameBins+8 || an.start+an.len > (f+1)*frameBins-8 {
			t.Errorf("frame %d: anomaly %+v strays from the middle of its frame", f, an)
		}
	}
	// The reader yields exactly what a replay writes: the stream twice
	// decodes to the stream matrix twice.
	rows := decodeAll(t, a.reader(2))
	if len(rows) != 2*streamBins {
		t.Fatalf("reader(2) decodes to %d bins, want %d", len(rows), 2*streamBins)
	}
	for _, bin := range []int{0, 777, streamBins - 1} {
		for j, v := range a.stream.Row(bin) {
			if rows[bin][j] != v || rows[streamBins+bin][j] != v {
				t.Fatalf("bin %d link %d: decoded %v and %v, generated %v", bin, j, rows[bin][j], rows[streamBins+bin][j], v)
			}
		}
	}
}
