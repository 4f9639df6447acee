package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"netanomaly"
)

// TestMain lets a test re-run this binary as the diagnose command:
// with DIAGNOSE_MAIN set, the process is diagnose itself.
func TestMain(m *testing.M) {
	if os.Getenv("DIAGNOSE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// diagnose runs the command with args and stdin, returning its stdout,
// stderr and exit error.
func diagnose(t *testing.T, stdin []byte, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DIAGNOSE_MAIN=1")
	cmd.Stdin = bytes.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// spikedWeek is what trafficgen -seed 5 -bins 1152 -anomaly 30,1090,9e7
// writes: Abilene traffic with 9e7 bytes injected into flow 30
// (wash->losa) at bin 1090.
func spikedWeek(t *testing.T) *netanomaly.Matrix {
	t.Helper()
	topo := netanomaly.Abilene()
	cfg := netanomaly.DefaultTrafficConfig(5)
	cfg.Bins = 1152
	od, err := netanomaly.GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	netanomaly.InjectAnomalies(od, []netanomaly.Anomaly{{Flow: 30, Bin: 1090, Delta: 9e7}})
	return netanomaly.LinkLoads(topo, od)
}

// TestOneShotFindsInjectedAnomaly runs the offline fit on a CSV matrix
// and on the same matrix piped in the binary wire format: both name the
// injected bin and flow, and the two outputs are identical.
func TestOneShotFindsInjectedAnomaly(t *testing.T) {
	links := spikedWeek(t)
	csvPath := filepath.Join(t.TempDir(), "links.csv")
	if err := netanomaly.SaveMatrixCSV(csvPath, links, nil); err != nil {
		t.Fatal(err)
	}
	fromCSV, stderr, err := diagnose(t, nil, "-topology", "abilene", "-links", csvPath)
	if err != nil {
		t.Fatalf("diagnose %s: %v\n%s", csvPath, err, stderr)
	}
	if !regexp.MustCompile(`(?m)^  1090 .* wash->losa `).MatchString(fromCSV) {
		t.Fatalf("injected bin 1090 on wash->losa not reported:\n%s", fromCSV)
	}

	var bin bytes.Buffer
	if err := netanomaly.WriteMatrixBinary(&bin, links); err != nil {
		t.Fatal(err)
	}
	fromBinary, stderr, err := diagnose(t, bin.Bytes(), "-topology", "abilene", "-links", "-")
	if err != nil {
		t.Fatalf("diagnose -links -: %v\n%s", err, stderr)
	}
	if fromBinary != fromCSV {
		t.Fatalf("binary stdin output differs from CSV output:\n%s\nwant:\n%s", fromBinary, fromCSV)
	}
}

// TestStreamFlagGone pins that the streaming mode lives only in
// ingestd: -stream is an unknown flag, which the flag package rejects
// with exit status 2.
func TestStreamFlagGone(t *testing.T) {
	_, stderr, err := diagnose(t, nil, "-stream")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("diagnose -stream: err = %v, want exit status 2\n%s", err, stderr)
	}
}
