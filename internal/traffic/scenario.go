package traffic

// The attack-scenario library: labeled traffic-anomaly compositions
// that go beyond the single-bin spikes and level shifts of the paper's
// Section 6.3 injections. Each scenario mutates an OD-flow matrix in
// place — so it composes onto any topology's routing via LinkLoads
// exactly like organic traffic — and emits flow-attributed ground
// truth, deterministic in the seed. The shapes follow the taxonomies
// of the flow-monitoring identification and DoS-analysis literature:
// low-rate periodic C2 beaconing, port/host scans that move flow
// counts but not bytes, volumetric floods versus equally sized but
// dispersed flash crowds, slow data exfiltration, and lateral
// movement walking a sequence of OD pairs.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
)

// LabeledBin is one ground-truth anomaly label: the bin it lands in
// and, when known, the responsible OD flow (Flow < 0 scores detection
// only). Scenario results carry absolute bin indices; rebase with
// StreamTruth before scoring a post-history stream. The eval package
// aliases this type, so scenario truth feeds eval.EvaluateStreamingFlows
// directly.
type LabeledBin struct {
	Bin, Flow int
}

// StreamTruth rebases absolute-bin truth labels onto a stream that
// starts at bin start, dropping labels before it.
func StreamTruth(truth []LabeledBin, start int) []LabeledBin {
	out := make([]LabeledBin, 0, len(truth))
	for _, tb := range truth {
		if tb.Bin < start {
			continue
		}
		out = append(out, LabeledBin{Bin: tb.Bin - start, Flow: tb.Flow})
	}
	return out
}

// FlowCountAnomaly is extra IP flows (with no byte movement) along one
// OD flow's path at one bin — the wire signature of a scan. Apply to a
// derived LinkMetricSet with InjectFlowCountAnomaly; byte-only
// pipelines ignore it, which is the point: only a multi-metric
// detector can see it.
type FlowCountAnomaly struct {
	Flow, Bin int
	// Extra is the added IP-flow count on every link of the flow's path.
	Extra float64
}

// ScenarioResult is what applying a scenario produced: the ground
// truth to score detectors against, any metric-level injections the
// byte matrix cannot carry, and the set of OD flows the scenario
// touched (for routing-consistency checks and reporting).
type ScenarioResult struct {
	// Truth labels every anomalous bin with the responsible flow,
	// absolute bin indices, ascending. Control scenarios (flashcrowd)
	// emit no labels: every alarm they draw is a false alarm.
	Truth []LabeledBin
	// FlowCountAnomalies carry scan-shaped injections that live in the
	// IP-flow-count metric, not in bytes.
	FlowCountAnomalies []FlowCountAnomaly
	// AffectedFlows lists the OD flows whose traffic (bytes or flow
	// counts) the scenario altered, ascending and unique.
	AffectedFlows []int
}

// Scenario is one labeled attack scenario. Apply composes it onto an
// OD-flow matrix whose first start bins are clean history: every
// mutation lands in [start, bins), deterministic in seed.
type Scenario struct {
	// Name is the registry key (trafficgen -scenario <name>).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	apply   func(c *scenarioContext) (*ScenarioResult, error)
}

// MinScenarioStreamBins is the smallest post-history stream a scenario
// fits its event sequence into.
const MinScenarioStreamBins = 96

// Scenarios returns the registry in stable order.
func Scenarios() []Scenario {
	return []Scenario{
		{"beacon", "C2 beaconing: low-rate periodic spikes on one flow", applyBeacon},
		{"scan", "port/host scan: flow counts up, bytes flat (multi-metric only)", applyScan},
		{"synflood", "volumetric flood: abrupt sustained surge on one victim flow", applySynFlood},
		{"flashcrowd", "control: the flood's volume, dispersed and ramped — no labels", applyFlashCrowd},
		{"exfil", "slow exfiltration: small sustained level shift on one flow", applyExfil},
		{"lateral", "lateral movement: short spikes walking a chain of OD pairs", applyLateral},
	}
}

// ScenarioByName resolves a registry name.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(Scenarios()))
	for _, s := range Scenarios() {
		names = append(names, s.Name)
	}
	return Scenario{}, fmt.Errorf("traffic: unknown scenario %q (have %v)", name, names)
}

// scenarioContext bundles what every scenario generator needs: the
// matrix to mutate, the clean-history boundary, a seeded RNG, per-flow
// history means, and the network scale factor that keeps absolute
// injection sizes proportional to the configured traffic level.
type scenarioContext struct {
	topo        *topology.Topology
	od          *mat.Dense
	start, bins int
	rng         *rand.Rand
	means       []float64
	scale       float64
}

// Apply composes the scenario onto od (bins x flows) in place. start
// is the first attackable bin — everything before it stays clean
// history for seeding detectors. Deterministic in seed.
func (s Scenario) Apply(topo *topology.Topology, od *mat.Dense, start int, seed int64) (*ScenarioResult, error) {
	bins, flows := od.Dims()
	if flows != topo.NumFlows() {
		return nil, fmt.Errorf("traffic: scenario %s: OD matrix has %d flows, topology %d", s.Name, flows, topo.NumFlows())
	}
	if start < 1 || start >= bins {
		return nil, fmt.Errorf("traffic: scenario %s: start %d outside (0,%d)", s.Name, start, bins)
	}
	if stream := bins - start; stream < MinScenarioStreamBins {
		return nil, fmt.Errorf("traffic: scenario %s: %d stream bins after start, need >= %d", s.Name, stream, MinScenarioStreamBins)
	}
	c := &scenarioContext{
		topo:  topo,
		od:    od,
		start: start,
		bins:  bins,
		rng:   rand.New(rand.NewSource(seed)),
		means: historyFlowMeans(od, start),
	}
	var total float64
	for _, m := range c.means {
		total += m
	}
	// Injection sizes are calibrated against the default network-wide
	// rate (8e8 bytes/bin); scale keeps them proportional when the
	// generator runs hotter or colder.
	c.scale = total / 8e8
	if c.scale <= 0 || math.IsNaN(c.scale) || math.IsInf(c.scale, 0) {
		return nil, fmt.Errorf("traffic: scenario %s: history carries no traffic to scale against", s.Name)
	}
	res, err := s.apply(c)
	if err != nil {
		return nil, err
	}
	sort.Slice(res.Truth, func(i, j int) bool { return res.Truth[i].Bin < res.Truth[j].Bin })
	sort.Ints(res.AffectedFlows)
	return res, nil
}

// historyFlowMeans returns each flow's mean rate over the clean
// history bins [0, start).
func historyFlowMeans(od *mat.Dense, start int) []float64 {
	_, flows := od.Dims()
	means := make([]float64, flows)
	for b := 0; b < start; b++ {
		row := od.RowView(b)
		for f, v := range row {
			means[f] += v
		}
	}
	for f := range means {
		means[f] /= float64(start)
	}
	return means
}

// pickRanked draws a flow whose history mean sits between the lo and
// hi quantiles of the flow-size distribution — e.g. (0.5, 0.75) picks
// an upper-middle flow, avoiding both the near-idle tail (too small to
// matter) and the heavy flows whose structured variance the normal
// subspace absorbs (Section 5.4).
func (c *scenarioContext) pickRanked(lo, hi float64) int {
	n := len(c.means)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if c.means[idx[a]] != c.means[idx[b]] {
			return c.means[idx[a]] < c.means[idx[b]]
		}
		return idx[a] < idx[b]
	})
	loI, hiI := int(lo*float64(n)), int(hi*float64(n))
	if hiI <= loI {
		hiI = loI + 1
	}
	if hiI > n {
		hiI = n
	}
	return idx[loI+c.rng.Intn(hiI-loI)]
}

// bump adds delta bytes to (bin, flow), clipping at zero.
func (c *scenarioContext) bump(bin, flow int, delta float64) {
	v := c.od.At(bin, flow) + delta
	if v < 0 {
		v = 0
	}
	c.od.Set(bin, flow, v)
}

// applyBeacon models command-and-control beaconing: one compromised
// host's flow emits a modest burst on a fixed period — individually
// small, collectively a low-rate periodic signature.
func applyBeacon(c *scenarioContext) (*ScenarioResult, error) {
	flow := c.pickRanked(0.50, 0.75)
	first := c.start + 4 + c.rng.Intn(4)
	const period = 12
	delta := 4e7 * c.scale
	res := &ScenarioResult{AffectedFlows: []int{flow}}
	for b := first; b < c.bins; b += period {
		c.bump(b, flow, delta)
		res.Truth = append(res.Truth, LabeledBin{Bin: b, Flow: flow})
	}
	return res, nil
}

// applyScan models a port/host scan: the scanner opens thousands of
// probe flows that carry almost no payload, so IP-flow counts surge
// along the path while byte counts stay flat. The OD byte matrix is
// deliberately untouched — only a multi-metric detector can see this
// scenario, which is exactly what it exercises.
func applyScan(c *scenarioContext) (*ScenarioResult, error) {
	flow := c.pickRanked(0.25, 0.75)
	first := c.start + 30 + c.rng.Intn(8)
	const duration = 24
	extra := 6000 * c.scale
	res := &ScenarioResult{AffectedFlows: []int{flow}}
	for b := first; b < first+duration && b < c.bins; b++ {
		res.FlowCountAnomalies = append(res.FlowCountAnomalies, FlowCountAnomaly{Flow: flow, Bin: b, Extra: extra})
		res.Truth = append(res.Truth, LabeledBin{Bin: b, Flow: flow})
	}
	return res, nil
}

// floodVolume is the per-bin byte surge shared by synflood and
// flashcrowd — same volume, different dispersion is the whole
// comparison.
func floodVolume(scale float64) float64 { return 1.5e8 * scale }

// floodOnset places the flood's first bin two thirds into the stream,
// leaving room for the flash crowd's symmetric ramp.
func floodOnset(start, bins int) int { return start + 2*(bins-start)/3 }

// applySynFlood models a volumetric SYN/UDP flood: an abrupt surge
// concentrated on one attacker→victim flow, sustained for over an
// hour. Concentration is what makes it detectable — the added traffic
// points far outside the normal subspace.
func applySynFlood(c *scenarioContext) (*ScenarioResult, error) {
	p := c.topo.NumPoPs()
	victim := c.rng.Intn(p)
	attacker := (victim + 1 + c.rng.Intn(p-1)) % p
	flow := c.topo.FlowID(attacker, victim)
	first := floodOnset(c.start, c.bins)
	const duration = 8
	delta := floodVolume(c.scale)
	res := &ScenarioResult{AffectedFlows: []int{flow}}
	for b := first; b < first+duration && b < c.bins; b++ {
		c.bump(b, flow, delta)
		res.Truth = append(res.Truth, LabeledBin{Bin: b, Flow: flow})
	}
	return res, nil
}

// applyFlashCrowd is the flood's control: the same peak volume toward
// the same victim (the first RNG draw matches applySynFlood's, so a
// given seed targets the same PoP), but dispersed across every
// origin's flow into it in proportion to their normal shares, rising
// and falling on a raised-cosine ramp over eight hours. Legitimate
// demand growth, not an attack: it emits no truth labels, so every
// alarm a detector raises here is scored as a false alarm.
func applyFlashCrowd(c *scenarioContext) (*ScenarioResult, error) {
	p := c.topo.NumPoPs()
	victim := c.rng.Intn(p)
	stream := c.bins - c.start
	width := 48
	if width > stream/2 {
		width = stream / 2
	}
	center := floodOnset(c.start, c.bins) + 4
	peak := floodVolume(c.scale)

	// Per-origin shares of traffic into the victim, from history means.
	flows := make([]int, 0, p-1)
	var total float64
	for o := 0; o < p; o++ {
		if o == victim {
			continue
		}
		f := c.topo.FlowID(o, victim)
		flows = append(flows, f)
		total += c.means[f]
	}
	res := &ScenarioResult{AffectedFlows: append([]int(nil), flows...)}
	if total <= 0 {
		return res, nil
	}
	for b := center - width; b <= center+width; b++ {
		if b < c.start || b >= c.bins {
			continue
		}
		w := (1 + math.Cos(math.Pi*float64(b-center)/float64(width))) / 2
		for _, f := range flows {
			c.bump(b, f, peak*w*c.means[f]/total)
		}
	}
	return res, nil
}

// applyExfil models slow data exfiltration: a small constant byte
// shift on one flow, sustained for sixteen hours — too small for a
// spike detector bin by bin, visible only as a level shift.
func applyExfil(c *scenarioContext) (*ScenarioResult, error) {
	flow := c.pickRanked(0.50, 0.90)
	first := c.start + 40 + c.rng.Intn(6)
	duration := 96
	if max := c.bins - first; duration > max {
		duration = max
	}
	delta := 2.5e7 * c.scale
	res := &ScenarioResult{AffectedFlows: []int{flow}}
	for b := first; b < first+duration; b++ {
		c.bump(b, flow, delta)
		res.Truth = append(res.Truth, LabeledBin{Bin: b, Flow: flow})
	}
	return res, nil
}

// applyLateral models lateral movement: a chain of short transfers
// hopping PoP to PoP — each hop a two-bin spike on the flow from the
// previously compromised PoP to the next, a stepping-stone walk
// across OD pairs.
func applyLateral(c *scenarioContext) (*ScenarioResult, error) {
	p := c.topo.NumPoPs()
	hops := 6
	if hops > p {
		hops = p
	}
	walk := c.rng.Perm(p)[:hops]
	first := c.start + 20 + c.rng.Intn(4)
	const gap, duration = 6, 2
	delta := 8e7 * c.scale
	res := &ScenarioResult{}
	for h := 0; h+1 < len(walk); h++ {
		flow := c.topo.FlowID(walk[h], walk[h+1])
		res.AffectedFlows = append(res.AffectedFlows, flow)
		for i := 0; i < duration; i++ {
			b := first + h*gap + i
			if b >= c.bins {
				break
			}
			c.bump(b, flow, delta)
			res.Truth = append(res.Truth, LabeledBin{Bin: b, Flow: flow})
		}
	}
	return res, nil
}
