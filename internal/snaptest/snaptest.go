// Package snaptest is the shared body of the TestSnapshotGoldenEnvelopes
// and TestSnapshotDecodePathsAgree tests: NAMS envelopes written by an
// earlier commit are committed under each package's testdata/, and every
// later commit must restore them, re-encode them byte-for-byte and raise
// the recorded alarms on the next batch. The committed files were written
// by commit ca50b80 (the last one with three separate subspace detector
// types), except hybrid's, rewritten when the hybrid payload moved to a
// new kind byte; regenerate a file with -update-golden only together
// with a snapshot version or kind-byte bump.
package snaptest

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
)

var update = flag.Bool("update-golden", false, "rewrite the golden snapshot envelopes from the current code")

// HistoryBins is the length of the seed history Golden expects fresh
// detectors to be built on: Traffic(HistoryBins, cols, 0).
const HistoryBins = 96

const batchBins = 8

// Traffic returns bins x cols of deterministic link loads starting at
// absolute bin offset: a shared diurnal triangle wave scaled per column
// plus hash noise. Every value is an integer, so the matrix is identical
// on every platform.
func Traffic(bins, cols, offset int) *mat.Dense {
	m := mat.Zeros(bins, cols)
	for b := 0; b < bins; b++ {
		t := b + offset
		wave := t%24 - 12
		if wave < 0 {
			wave = -wave
		}
		for c := 0; c < cols; c++ {
			noise := (uint32(t*131+c*31+7) * 2654435761 >> 8) % 997
			m.Set(b, c, float64(1000*(c+1)*(20+wave))+float64(noise))
		}
	}
	return m
}

// batch is the k-th stream batch after the history, with one spiked
// cell so alarmed-bin exclusion is part of the recorded state.
func batch(cols, k int) *mat.Dense {
	y := Traffic(batchBins, cols, HistoryBins+k*batchBins)
	y.Set(3+k%4, 2, 3*y.At(3+k%4, 2))
	return y
}

// Golden restores testdata/<name>.nams into the detector fresh builds,
// requires Snapshot to reproduce the file byte-for-byte, and requires
// the next batch's alarms to equal testdata/<name>.alarms.json.
func Golden(t *testing.T, name string, fresh func() (core.ViewDetector, error), cols int) {
	t.Helper()
	envPath := filepath.Join("testdata", name+".nams")
	alarmPath := filepath.Join("testdata", name+".alarms.json")
	const streamed = 4
	if *update {
		det, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < streamed; k++ {
			if _, err := det.ProcessBatch(batch(cols, k)); err != nil {
				t.Fatal(err)
			}
			if k == streamed-2 {
				if err := det.Refit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var env bytes.Buffer
		if err := det.Snapshot(&env); err != nil {
			t.Fatal(err)
		}
		alarms, err := det.ProcessBatch(batch(cols, streamed))
		if err != nil {
			t.Fatal(err)
		}
		recorded, _ := json.MarshalIndent(alarms, "", "\t")
		if err := os.WriteFile(envPath, env.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(alarmPath, append(recorded, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	env, err := os.ReadFile(envPath)
	if err != nil {
		t.Fatal(err)
	}
	det, err := fresh()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Restore(bytes.NewReader(env)); err != nil {
		t.Fatalf("%s: restore: %v", name, err)
	}
	var again bytes.Buffer
	if err := det.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), env) {
		t.Fatalf("%s: restore→snapshot is not byte-identical: %d vs %d bytes", name, again.Len(), len(env))
	}
	if got := det.Stats(); got.Processed != streamed*batchBins || got.Refits != 1 {
		t.Fatalf("%s: restored stats %+v, want %d processed and 1 refit", name, got, streamed*batchBins)
	}

	raw, err := os.ReadFile(alarmPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []core.Alarm
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("%s: recorded alarm list is empty; the comparison would prove nothing", name)
	}
	got, err := det.ProcessBatch(batch(cols, streamed))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d alarms after restore, recorded %d:\n got %+v\nwant %+v", name, len(got), len(want), got, want)
	}
	// Counters and attribution must match exactly; the float fields are
	// recomputed from the restored model and may differ in the last bits
	// on platforms that fuse multiply-adds.
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for i, g := range got {
		w := want[i]
		if g.Seq != w.Seq || g.Bin != w.Bin || g.Flow != w.Flow ||
			!near(g.SPE, w.SPE) || !near(g.Threshold, w.Threshold) || !near(g.Bytes, w.Bytes) {
			t.Fatalf("%s: alarm %d after restore is %+v, recorded %+v", name, i, g, w)
		}
	}
}

// DecodePathsAgree decodes testdata/<name>.nams, every strict prefix of
// it and a one-bit mutation of every byte of it (bit i mod 8 of byte i)
// along both restore paths: in place from a bytes.Buffer, and streamed through
// iotest.OneByteReader, one byte per Read. For each input the two must
// fail with the same error, classification and message alike, or both
// restore, into states that re-checkpoint byte for byte alike.
func DecodePathsAgree(t *testing.T, name string, fresh func() (core.ViewDetector, error)) {
	t.Helper()
	env, err := os.ReadFile(filepath.Join("testdata", name+".nams"))
	if err != nil {
		t.Fatal(err)
	}
	inPlace, err := fresh()
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := fresh()
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	check := func(what string, data []byte) {
		t.Helper()
		errIn := inPlace.Restore(bytes.NewBuffer(data))
		errStream := streamed.Restore(iotest.OneByteReader(bytes.NewReader(data)))
		if class(errIn) != class(errStream) || errIn != nil && errIn.Error() != errStream.Error() {
			t.Fatalf("%s, %s: in place: %v; streamed: %v", name, what, errIn, errStream)
		}
		if errIn != nil {
			return
		}
		restored++
		var a, b bytes.Buffer
		if err := inPlace.Snapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := streamed.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s, %s: the two paths restored different states", name, what)
		}
	}
	check("whole file", env)
	for cut := 0; cut < len(env); cut++ {
		check(fmt.Sprintf("%d-byte prefix", cut), env[:cut])
	}
	mutated := bytes.Clone(env)
	for i := range env {
		bit := byte(1) << (i % 8)
		mutated[i] = env[i] ^ bit
		check(fmt.Sprintf("byte %d ^ %#x", i, bit), mutated)
		mutated[i] = env[i]
	}
	t.Logf("%s: %d of %d inputs restored on both paths", name, restored, 1+2*len(env))
}

// class names the taxonomy bucket of a restore error.
func class(err error) string {
	switch {
	case err == nil:
		return "restored"
	case errors.Is(err, core.ErrSnapshotFormat):
		return "format"
	case errors.Is(err, core.ErrSnapshotMismatch):
		return "mismatch"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncation"
	}
	return "unclassified"
}
