package core

import (
	"math"
	"math/rand"
	"testing"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// fitPipeline builds model + identifier on a simulated dataset.
func fitPipeline(t *testing.T, seed int64, bins int) (*topology.Topology, *mat.Dense, *Model, *Identifier, float64) {
	t.Helper()
	topo, x, y := testDataset(t, seed, bins)
	p, err := Fit(y)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(p, SeparateAxes(p, DefaultSigma))
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewIdentifier(m, topo.RoutingMatrix())
	if err != nil {
		t.Fatal(err)
	}
	limit, err := m.QLimit(0.999)
	if err != nil {
		t.Fatal(err)
	}
	return topo, x, m, id, limit
}

// spikedLinkLoad returns the link-load vector at bin with a spike of size
// bytes added to the given flow.
func spikedLinkLoad(topo *topology.Topology, x *mat.Dense, bin, flow int, size float64) []float64 {
	row := x.Row(bin)
	row[flow] += size
	return traffic.LinkLoadAt(topo, row)
}

func TestNewIdentifierDimensionMismatch(t *testing.T) {
	_, _, y := testDataset(t, 1, 288)
	p, _ := Fit(y)
	m, _ := Build(p, 4)
	if _, err := NewIdentifier(m, mat.Zeros(5, 7)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestIdentifyRecoversInjectedFlow(t *testing.T) {
	topo, x, m, id, limit := fitPipeline(t, 20, 1008)
	const size = 5e7 // comfortably detectable
	hits := 0
	trials := 0
	for flow := 3; flow < topo.NumFlows(); flow += 17 {
		for _, bin := range []int{111, 555, 901} {
			y := spikedLinkLoad(topo, x, bin, flow, size)
			if m.SPE(y) <= limit {
				continue // skip rare undetected combinations
			}
			trials++
			if res := id.Identify(y); res.Flow == flow {
				hits++
			}
		}
	}
	if trials < 10 {
		t.Fatalf("too few detectable trials: %d", trials)
	}
	if rate := float64(hits) / float64(trials); rate < 0.9 {
		t.Fatalf("identification rate %v too low (%d/%d)", rate, hits, trials)
	}
}

func TestIdentifyAgreesWithNaive(t *testing.T) {
	topo, x, _, id, _ := fitPipeline(t, 21, 432)
	for _, bin := range []int{50, 200, 400} {
		for _, flow := range []int{5, 40, 77} {
			y := spikedLinkLoad(topo, x, bin, flow, 4e7)
			fast := id.Identify(y)
			naive := id.IdentifyNaive(y)
			if fast.Flow != naive.Flow {
				t.Fatalf("bin %d flow %d: fast chose %d, naive chose %d", bin, flow, fast.Flow, naive.Flow)
			}
			if math.Abs(fast.Magnitude-naive.Magnitude) > 1e-6*(1+math.Abs(naive.Magnitude)) {
				t.Fatalf("magnitudes disagree: %v vs %v", fast.Magnitude, naive.Magnitude)
			}
			if math.Abs(fast.ResidualSq-naive.ResidualSq) > 1e-4*(1+naive.ResidualSq) {
				t.Fatalf("residuals disagree: %v vs %v", fast.ResidualSq, naive.ResidualSq)
			}
		}
	}
}

// TestIdentifyTieTakesLowestFlow: at rank m-1 the anomalous subspace is a
// single axis, every flow's theta~ is collinear with it, and with identity
// routing every hypothesis explains y~ exactly. The tie must go to flow 0,
// not to whichever flow rounding happens to favour.
func TestIdentifyTieTakesLowestFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const links = 6
	y := lowRankTrace(rng, 60, links)
	m := fitModel(t, y, links-1)
	id, err := NewIdentifier(m, mat.Identity(links))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 20; b++ {
		row := y.Row(b)
		row[2] *= 3
		if got := id.Identify(row).Flow; got != 0 {
			t.Fatalf("bin %d: Identify chose flow %d of an exact tie, want 0", b, got)
		}
		if got := id.IdentifyNaive(row).Flow; got != 0 {
			t.Fatalf("bin %d: IdentifyNaive chose flow %d of an exact tie, want 0", b, got)
		}
	}
}

func TestQuantificationAccuracy(t *testing.T) {
	topo, x, m, id, limit := fitPipeline(t, 22, 1008)
	const size = 6e7
	var relErrSum float64
	var n int
	for flow := 1; flow < topo.NumFlows(); flow += 23 {
		y := spikedLinkLoad(topo, x, 300, flow, size)
		if m.SPE(y) <= limit {
			continue
		}
		res := id.Identify(y)
		if res.Flow != flow {
			continue
		}
		relErrSum += math.Abs(res.Bytes-size) / size
		n++
	}
	if n < 3 {
		t.Fatalf("too few identified trials: %d", n)
	}
	if mare := relErrSum / float64(n); mare > 0.25 {
		t.Fatalf("mean quantification error %v exceeds 25%% (paper reports 15-33%%)", mare)
	}
}

func TestQuantifyUnitPath(t *testing.T) {
	// Hand-built check of Abar^T y': one flow over k links of equal
	// magnitude f/sqrt(k) must quantify to f/sqrt(k).
	_, _, y := testDataset(t, 23, 288)
	p, _ := Fit(y)
	m, _ := Build(p, 4)
	// Routing matrix with a single flow over 4 links.
	a := mat.Zeros(m.NumLinks(), 1)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, 1)
	}
	id, err := NewIdentifier(m, a)
	if err != nil {
		t.Fatal(err)
	}
	got := id.quantify(0, 10)
	want := 10.0 / 2.0 // fhat / ||A_i||, k=4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("quantify = %v want %v", got, want)
	}
}

func TestIdentifySkipsUnroutableFlows(t *testing.T) {
	_, _, y := testDataset(t, 24, 288)
	p, _ := Fit(y)
	m, _ := Build(p, 4)
	// Two flows: one unroutable (zero column), one real.
	a := mat.Zeros(m.NumLinks(), 2)
	a.Set(0, 1, 1)
	a.Set(1, 1, 1)
	id, err := NewIdentifier(m, a)
	if err != nil {
		t.Fatal(err)
	}
	yv := make([]float64, m.NumLinks())
	copy(yv, m.Means())
	yv[0] += 1e8
	res := id.Identify(yv)
	if res.Flow != 1 {
		t.Fatalf("Identify chose %d, must skip unroutable flow 0", res.Flow)
	}
}

func TestDetectabilityThresholdOrdersDetection(t *testing.T) {
	// A spike at 2.5x the sufficient threshold must always be detected;
	// the guarantee bound itself must hold (spikes above it detected).
	topo, x, m, id, limit := fitPipeline(t, 25, 1008)
	delta := math.Sqrt(limit)
	for flow := 2; flow < topo.NumFlows(); flow += 31 {
		th := id.DetectabilityThreshold(flow, delta)
		if math.IsInf(th, 1) {
			continue
		}
		y := spikedLinkLoad(topo, x, 404, flow, 2.5*th)
		if m.SPE(y) <= limit {
			t.Fatalf("flow %d: spike at 2.5x detectability threshold %v not detected", flow, th)
		}
	}
}

func TestDetectabilityThresholdInfForUnroutable(t *testing.T) {
	_, _, y := testDataset(t, 26, 288)
	p, _ := Fit(y)
	m, _ := Build(p, 4)
	a := mat.Zeros(m.NumLinks(), 1) // unroutable flow
	id, _ := NewIdentifier(m, a)
	if th := id.DetectabilityThreshold(0, 1); !math.IsInf(th, 1) {
		t.Fatalf("threshold = %v want +Inf", th)
	}
}

func TestDetectabilityThresholdPanics(t *testing.T) {
	_, _, _, id, _ := fitPipeline(t, 27, 288)
	for _, fn := range []func(){
		func() { id.DetectabilityThreshold(-1, 1) },
		func() { id.DetectabilityThreshold(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIdentifyMultiTwoFlowAnomaly(t *testing.T) {
	// A DDoS-like anomaly on two flows with different intensities must be
	// preferred over single-flow candidates and its magnitudes recovered.
	topo, x, _, id, _ := fitPipeline(t, 28, 1008)
	f1 := topo.FlowID(0, 5)
	f2 := topo.FlowID(3, 5)
	row := x.Row(250)
	row[f1] += 8e7
	row[f2] += 4e7
	y := traffic.LinkLoadAt(topo, row)

	candidates := [][]int{
		{f1},
		{f2},
		{f1, f2},
		{topo.FlowID(1, 2), topo.FlowID(4, 8)},
	}
	res := id.IdentifyMulti(y, candidates)
	if res.Candidate != 2 {
		t.Fatalf("IdentifyMulti chose candidate %d, want 2 (the true pair)", res.Candidate)
	}
	// Recovered byte estimates should be near the injected sizes.
	byFlow := map[int]float64{}
	for i, f := range res.Flows {
		byFlow[f] = res.Bytes[i]
	}
	if math.Abs(byFlow[f1]-8e7)/8e7 > 0.35 {
		t.Fatalf("flow %d bytes = %v want ~8e7", f1, byFlow[f1])
	}
	if math.Abs(byFlow[f2]-4e7)/4e7 > 0.35 {
		t.Fatalf("flow %d bytes = %v want ~4e7", f2, byFlow[f2])
	}
}

func TestIdentifyMultiMatchesSingleForSingleton(t *testing.T) {
	topo, x, _, id, _ := fitPipeline(t, 29, 432)
	y := spikedLinkLoad(topo, x, 111, 7, 6e7)
	single := id.Identify(y)
	candidates := make([][]int, id.NumFlows())
	for i := range candidates {
		candidates[i] = []int{i}
	}
	multi := id.IdentifyMulti(y, candidates)
	if multi.Candidate != single.Flow {
		t.Fatalf("multi chose %d, single chose %d", multi.Candidate, single.Flow)
	}
	if math.Abs(multi.Magnitudes[0]-single.Magnitude) > 1e-6*(1+math.Abs(single.Magnitude)) {
		t.Fatal("singleton magnitudes disagree")
	}
}

func TestIdentifyMultiEmptyAndInvalid(t *testing.T) {
	_, x, _, id, _ := fitPipeline(t, 30, 288)
	_ = x
	y := make([]float64, id.model.NumLinks())
	res := id.IdentifyMulti(y, nil)
	if res.Candidate != -1 {
		t.Fatalf("no candidates must yield -1, got %d", res.Candidate)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range flow")
		}
	}()
	id.IdentifyMulti(y, [][]int{{99999}})
}
