package main

import (
	"bytes"
	"errors"
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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "INGESTD_MAIN=1")
	cmd.Stdin = bytes.NewReader(nil)
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
