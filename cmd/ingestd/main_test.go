package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"netanomaly"
)

// TestMain lets a test re-run this binary as the ingestd command: with
// INGESTD_MAIN set, the process is ingestd itself.
func TestMain(m *testing.M) {
	if os.Getenv("INGESTD_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ingestd runs the command with args and an empty stdin, returning its
// stdout, stderr and exit error.
func ingestd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	return ingestdIn(t, nil, args...)
}

// ingestdIn is ingestd with stdin as the command's standard input.
func ingestdIn(t *testing.T, stdin []byte, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "INGESTD_MAIN=1")
	cmd.Stdin = bytes.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestMetricsFlagRefusals pins that a -metrics value the detector
// cannot consume is refused before any work: exit status 1, a message
// naming the flag on stderr, nothing on stdout, and no panic. The
// history is a valid Abilene week, so a refusal that came too late
// would seed the view and drain the empty stdin with exit status 0.
func TestMetricsFlagRefusals(t *testing.T) {
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(3)
	cfg.Bins = 200
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	history := filepath.Join(t.TempDir(), "week.csv")
	if err := netanomaly.SaveMatrixCSV(history, netanomaly.LinkLoads(topo, od), nil); err != nil {
		t.Fatal(err)
	}
	base := []string{"-history", history, "-stdin", "-listen", ""}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"negative metrics", []string{"-metrics", "-2"}},
		{"multiflow with zero metrics", []string{"-metrics", "0", "-detector", "multiflow"}},
		{"multiflow with one metric", []string{"-detector", "multiflow"}},
		{"stacked metrics on sketch", []string{"-detector", "sketch", "-metrics", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := ingestd(t, append(base, tc.args...)...)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("ingestd %v: err = %v, want exit status 1\nstderr:\n%s", tc.args, err, stderr)
			}
			if stdout != "" || !strings.HasPrefix(stderr, "ingestd: -") || !strings.Contains(stderr, "-metrics") {
				t.Fatalf("ingestd %v: stdout %q, stderr %q; want only a -metrics refusal", tc.args, stdout, stderr)
			}
			if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine") {
				t.Fatalf("ingestd %v panicked:\n%s", tc.args, stderr)
			}
		})
	}
}

// TestWarmStartReadsNoHistory pins that a warm start never reads
// -history: with a checkpoint in place, a -history path that does not
// exist restores and prints the same "model restored" line as the
// real week does, while a cold start with that path still fails.
func TestWarmStartReadsNoHistory(t *testing.T) {
	const weekBins, streamBins = 1008, 64
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(5)
	cfg.Bins = weekBins + streamBins
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := netanomaly.LinkLoads(topo, od)
	links := loads.Cols()
	dir := t.TempDir()
	week := filepath.Join(dir, "week.csv")
	if err := netanomaly.SaveMatrixCSV(week, netanomaly.NewMatrix(weekBins, links, loads.RawData()[:weekBins*links]), nil); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := netanomaly.WriteMatrixBinary(&stream, netanomaly.NewMatrix(streamBins, links, loads.RawData()[weekBins*links:])); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "no-such-week.csv")
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	args := []string{"-stdin", "-listen", "", "-detector", "sketch", "-checkpoint", ckpt}

	if _, stderr, err := ingestdIn(t, stream.Bytes(), append([]string{"-history", week}, args...)...); err != nil {
		t.Fatalf("cold start: %v\nstderr:\n%s", err, stderr)
	}
	restored := func(history string) string {
		t.Helper()
		stdout, stderr, err := ingestd(t, append([]string{"-history", history}, args...)...)
		if err != nil {
			t.Fatalf("warm start with -history %s: %v\nstderr:\n%s", history, err, stderr)
		}
		line, _, _ := strings.Cut(stdout, "\n")
		if !strings.HasPrefix(line, "ingestd: sketch model restored from ") || !strings.Contains(line, fmt.Sprintf(" at bin %d ", streamBins)) {
			t.Fatalf("warm start with -history %s printed %q first", history, line)
		}
		return line
	}
	if real, absent := restored(week), restored(missing); real != absent {
		t.Fatalf("restore line depends on -history:\n%s\n%s", real, absent)
	}

	stdout, stderr, err := ingestd(t, "-history", missing, "-stdin", "-listen", "", "-detector", "sketch")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || stdout != "" || !strings.Contains(stderr, "no-such-week.csv") {
		t.Fatalf("cold start on a missing history: err %v, stdout %q, stderr %q; want exit 1 naming the file", err, stdout, stderr)
	}
}

// TestAlarmLineMatchesFmt holds appendAlarmLine to the fmt format it
// replaced, byte for byte, on one reused buffer: zeros of both signs,
// the extremes of the float range, integral values that %.4g prints
// with and without an exponent, rounding at the fourth digit, negative
// byte estimates and the non-finite values.
func TestAlarmLineMatchesFmt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []float64{0, negZero, 1e-300, 1e300, 5e-324, math.MaxFloat64, 1, 12, 1234, 12345, 1e4, 9.9995e7,
		123456789, 0.1, 2.5e-5, -3, -9.1e7, -1e-300, math.Inf(1), math.Inf(-1), math.NaN()}
	var buf []byte
	for i, spe := range values {
		for j, volume := range values {
			threshold := values[(i+j)%len(values)]
			seq := []int{0, 96, 4031, 1 << 40, -1}[(i+j)%5]
			flow := []string{"-", "wash->nycm"}[j%2]
			want := fmt.Sprintf("alarm bin %d: SPE %.4g > %.4g, flow %s, %.4g bytes\n", seq, spe, threshold, flow, volume)
			buf = appendAlarmLine(buf[:0], seq, spe, threshold, flow, volume)
			if string(buf) != want {
				t.Fatalf("appendAlarmLine = %q, fmt = %q", buf, want)
			}
		}
	}
}
