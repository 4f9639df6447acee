package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netanomaly"
)

// TestMain lets a test re-run this binary as the trafficgen command:
// with TRAFFICGEN_MAIN set, the process is trafficgen itself.
func TestMain(m *testing.M) {
	if os.Getenv("TRAFFICGEN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// trafficgen runs the command with args and returns its combined
// output and exit error.
func trafficgen(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRAFFICGEN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestSyntheticNameIsOneNetwork pins that -topology names a network
// independently of -seed: trafficgen given synthetic:30:45:7 and a
// different traffic seed writes loads for exactly the network
// ParseTopology builds from that name — which is what ingestd and
// diagnose build from it — with the same name, links and routing.
func TestSyntheticNameIsOneNetwork(t *testing.T) {
	const name = "synthetic:30:45:7"
	want, err := netanomaly.ParseTopology(name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	odPath, linksPath := filepath.Join(dir, "od.csv"), filepath.Join(dir, "links.csv")
	out, err := trafficgen(t, "-topology", name, "-seed", "2", "-bins", "16", "-od", odPath, "-links", linksPath)
	if err != nil {
		t.Fatalf("trafficgen: %v\n%s", err, out)
	}
	if !strings.Contains(out, "("+want.Name()+": ") {
		t.Fatalf("banner does not name %s:\n%s", want.Name(), out)
	}

	od, flows := readCSV(t, odPath)
	links, linkNames := readCSV(t, linksPath)
	wantFlows := make([]string, want.NumFlows())
	for f := range wantFlows {
		wantFlows[f] = want.FlowName(f)
	}
	wantLinks := make([]string, want.NumLinks())
	for i, l := range want.Links() {
		wantLinks[i] = want.PoPs()[l.Src].Name + "-" + want.PoPs()[l.Dst].Name
	}
	if !reflect.DeepEqual(flows, wantFlows) || !reflect.DeepEqual(linkNames, wantLinks) {
		t.Fatalf("trafficgen wrote a %d-flow, %d-link network; %s has %d flows, %d links",
			len(flows), len(linkNames), name, len(wantFlows), len(wantLinks))
	}
	// Random OD traffic through the wrong routing matrix cannot land on
	// the same link loads.
	expect := netanomaly.LinkLoads(want, od)
	for i, v := range links.RawData() {
		if e := expect.RawData()[i]; math.Abs(v-e) > 1e-9*math.Max(1, math.Abs(e)) {
			t.Fatalf("link load %d = %v, routing %s through the OD matrix gives %v", i, v, name, e)
		}
	}
}

// TestSyntheticThreeFieldNameRejected pins that the old seedless form
// fails with an error naming the four-field grammar.
func TestSyntheticThreeFieldNameRejected(t *testing.T) {
	out, err := trafficgen(t, "-topology", "synthetic:30:45", "-bins", "4", "-links", filepath.Join(t.TempDir(), "l.csv"))
	if err == nil {
		t.Fatalf("three-field synthetic name accepted:\n%s", out)
	}
	if !strings.Contains(out, "synthetic:<pops>:<edges>:<seed>") {
		t.Fatalf("error does not name the four-field form:\n%s", out)
	}
}

func readCSV(t *testing.T, path string) (*netanomaly.Matrix, []string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, names, err := netanomaly.ReadMatrixCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	return m, names
}
