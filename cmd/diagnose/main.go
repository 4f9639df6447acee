// Command diagnose is the paper's offline tool: it fits the subspace
// model on a whole link-load matrix (as written by cmd/trafficgen, or
// exported from an SNMP collector) and runs detection, identification
// and quantification (Sections 5.1–5.3) over every bin, printing each
// diagnosed volume anomaly: when it happened, the OD flow responsible,
// and the estimated byte count.
//
//	diagnose -topology abilene -links links.csv -confidence 0.999
//
// -topology is abilene, sprint, or synthetic:<pops>:<edges>:<seed>, the
// grammar trafficgen and ingestd share: the same name is the same
// network in all three commands. -rank pins the normal-subspace rank
// instead of the 3-sigma rule.
//
// The link matrix may be CSV or the binary wire format of cmd/ingestd
// (the encoding is sniffed from the leading bytes), and -links - reads
// it from stdin — so a binary generator pipes straight in with no CSV
// anywhere:
//
//	trafficgen -format binary -links - -anomaly 24,500,9e7 |
//	    diagnose -links -
//
// The online mode of Section 7.1 — a model seeded on a history week,
// bins streamed through any of the nine detector backends, background
// refits, incidents, checkpoints — is cmd/ingestd; replay a file
// through it with trafficgen -format binary -skip <history bins> … |
// ingestd -history week.csv -stdin -listen "".
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"netanomaly"
)

func main() {
	topoName := flag.String("topology", "abilene", "abilene, sprint, or synthetic:<pops>:<edges>:<seed>")
	linksPath := flag.String("links", "links.csv", "link-load matrix, CSV or binary (sniffed; - for stdin)")
	confidence := flag.Float64("confidence", 0.999, "detection confidence level")
	rank := flag.Int("rank", 0, "fixed normal-subspace rank (0 = 3-sigma rule)")
	flag.Parse()

	topo, err := netanomaly.ParseTopology(*topoName)
	if err != nil {
		fatal(err)
	}
	links, err := loadLinks(*linksPath)
	if err != nil {
		fatal(err)
	}
	diag, err := netanomaly.NewDiagnoser(links, topo, netanomaly.Options{Confidence: *confidence, Rank: *rank})
	if err != nil {
		fatal(err)
	}
	model := diag.Detector().Model()
	fmt.Printf("model: %d links, normal subspace rank %d, SPE limit %.4g at %.2f%%\n",
		model.NumLinks(), model.Rank(), diag.Detector().Limit(), 100*diag.Detector().Confidence())
	results := diag.DiagnoseSeries(links)
	if len(results) == 0 {
		fmt.Println("no anomalies detected")
		return
	}
	fmt.Printf("%6s %14s %14s %-16s %14s\n", "bin", "SPE", "threshold", "flow", "bytes")
	for _, d := range results {
		flow := "-" // identification names no flow when none routes through the residual
		if d.Flow >= 0 {
			flow = topo.FlowName(d.Flow)
		}
		fmt.Printf("%6d %14.4g %14.4g %-16s %14.4g\n", d.Bin, d.SPE, d.Threshold, flow, d.Bytes)
	}
	fmt.Printf("%d anomalies over %d bins\n", len(results), links.Rows())
}

// loadLinks reads the link matrix from a file or stdin, sniffing the
// encoding from the binary format's magic bytes.
func loadLinks(path string) (*netanomaly.Matrix, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[:4]) == "NAMB" {
		return netanomaly.ReadMatrixBinary(bytes.NewReader(data))
	}
	m, _, err := netanomaly.ReadMatrixCSV(bytes.NewReader(data))
	return m, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diagnose:", err)
	os.Exit(1)
}
