package core_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/snaptest"
)

// TestSnapshotGoldenEnvelopes loads checkpoints written by the commit
// before the subspace family collapsed into one detector type (see
// package snaptest): each must restore into a freshly built detector,
// re-encode byte-for-byte, and raise the recorded alarms on the next
// batch.
func TestSnapshotGoldenEnvelopes(t *testing.T) {
	const links = 6
	history := snaptest.Traffic(snaptest.HistoryBins, links, 0)
	routing := mat.Identity(links)
	// The detectors come from the one kind→detector builder, so the
	// envelopes pin what a monitor view of each kind restores into.
	cases := map[string]backend.Spec{
		"subspace":    {Kind: "subspace", Window: 64},
		"incremental": {Kind: "incremental", Lambda: 0.995},
		"sketch":      {Kind: "sketch"},
		"hybrid":      {Kind: "hybrid", Window: 64},
	}
	for name, spec := range cases {
		fresh := func() (core.ViewDetector, error) { return backend.Build(spec, history, routing) }
		t.Run(name, func(t *testing.T) { snaptest.Golden(t, name, fresh, links) })
	}
}

// TestRetiredHybridEnvelopeRejected restores hybrid envelopes in the
// retired layouts into today's hybrid: kind byte 8, which carried the
// escalation run and hysteresis state, and kind byte 10, which carried a
// clean-bin window of the hybrid's own beside the subspace stage's (each
// written by the last commit that had it). Each must be refused as a
// mismatch that asks for a re-seed — not classified as corruption, and
// never decoded.
func TestRetiredHybridEnvelopeRejected(t *testing.T) {
	const links = 6
	history := snaptest.Traffic(snaptest.HistoryBins, links, 0)
	for _, name := range []string{"hybrid-v1", "hybrid-v2"} {
		env, err := os.ReadFile("testdata/" + name + ".nams")
		if err != nil {
			t.Fatal(err)
		}
		det, err := backend.Build(backend.Spec{Kind: "hybrid", Window: 64}, history, mat.Identity(links))
		if err != nil {
			t.Fatal(err)
		}
		err = det.Restore(bytes.NewReader(env))
		if !errors.Is(err, core.ErrSnapshotMismatch) || errors.Is(err, core.ErrSnapshotFormat) || !strings.Contains(err.Error(), "re-seed") {
			t.Fatalf("retired %s envelope: got %v, want a re-seed ErrSnapshotMismatch", name, err)
		}
		if got := det.Stats().Processed; got != 0 {
			t.Fatalf("rejected %s restore advanced the detector to %d bins", name, got)
		}
	}
}

// TestSnapshotDecodePathsAgree: every committed envelope, each of its
// prefixes and single-bit mutations restore alike in place and streamed
// one byte per Read (see snaptest.DecodePathsAgree). The retired hybrid
// layouts are offered to today's hybrid, as a warm start would offer
// them.
func TestSnapshotDecodePathsAgree(t *testing.T) {
	const links = 6
	history := snaptest.Traffic(snaptest.HistoryBins, links, 0)
	routing := mat.Identity(links)
	cases := map[string]backend.Spec{
		"subspace":    {Kind: "subspace", Window: 64},
		"incremental": {Kind: "incremental", Lambda: 0.995},
		"sketch":      {Kind: "sketch"},
		"hybrid":      {Kind: "hybrid", Window: 64},
		"hybrid-v1":   {Kind: "hybrid", Window: 64},
		"hybrid-v2":   {Kind: "hybrid", Window: 64},
	}
	for name, spec := range cases {
		fresh := func() (core.ViewDetector, error) { return backend.Build(spec, history, routing) }
		t.Run(name, func(t *testing.T) { snaptest.DecodePathsAgree(t, name, fresh) })
	}
}
