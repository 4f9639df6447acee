// Package traffic synthesizes network-wide OD-flow traffic with the
// statistical structure the subspace method relies on, computes link loads
// through the routing matrix (y = Ax, Section 4.1), and injects volume
// anomalies into OD flows (Section 6.3).
//
// The generator substitutes for the paper's proprietary Sprint/Abilene
// traces (see DESIGN.md). It produces: heavy-tailed flow means from a
// gravity model; diurnal and weekly cycles shared across flows (which
// gives the measurement matrix its low effective dimensionality, Figure
// 3); and multiplicative, temporally correlated noise whose absolute
// magnitude grows with the flow mean (which drives the detection-rate
// versus flow-size effect of Figure 9).
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"netanomaly/internal/mat"
	"netanomaly/internal/topology"
)

// Config parameterizes the OD-flow generator.
type Config struct {
	// Bins is the number of time bins (the paper uses 1008 ten-minute
	// bins, one week).
	Bins int
	// BinDuration is the duration of each bin.
	BinDuration time.Duration
	// Seed makes generation deterministic.
	Seed int64
	// TotalMeanRate is the network-wide mean traffic per bin, in bytes.
	TotalMeanRate float64
	// WeightSigma is the lognormal sigma of the gravity-model PoP weights;
	// larger values give a heavier-tailed flow size distribution.
	WeightSigma float64
	// DiurnalAmplitude scales the shared 24-hour cycle (0..1).
	DiurnalAmplitude float64
	// AmplitudeJitter is the lognormal sigma of per-flow diurnal amplitude
	// variation; it spreads the daily cycle's energy over several
	// principal components, as in real backbone traffic.
	AmplitudeJitter float64
	// SemiDiurnalWeight scales a per-flow 12-hour harmonic relative to the
	// flow's diurnal amplitude; real backbone traffic carries such
	// harmonics (the paper's own Fourier labeler includes a 12 h basis).
	SemiDiurnalWeight float64
	// HeavyFlows is the number of largest flows that carry an extra slow
	// multi-day trend of their own. Their large structured variance makes
	// the normal subspace align with them, which is why fixed-size
	// anomalies are harder to detect in large flows (Section 5.4 and
	// Figure 9 of the paper).
	HeavyFlows int
	// HeavyTrendAmplitude is that trend's amplitude relative to the flow
	// mean.
	HeavyTrendAmplitude float64
	// HeavyTrendPeriodHours is the trend period (default 72 h — three
	// days, one of the paper's Fourier basis periods).
	HeavyTrendPeriodHours float64
	// WeeklyAmplitude scales the weekend dip (0..1).
	WeeklyAmplitude float64
	// PoPPhaseSigmaHours is the std-dev of per-PoP diurnal peak offsets
	// (regional time-of-day structure: a flow peaks according to its
	// endpoints' local busy hours).
	PoPPhaseSigmaHours float64
	// PhaseJitterHours is the std-dev of each flow's own diurnal peak
	// offset on top of its endpoints' regional offsets.
	PhaseJitterHours float64
	// NoiseSigma is the lognormal sigma of multiplicative per-bin noise.
	NoiseSigma float64
	// NoiseAR is the AR(1) coefficient of the noise process in (-1, 1).
	NoiseAR float64
}

// DefaultConfig returns the configuration used for the paper-scale
// simulated datasets: one week of 10-minute bins.
func DefaultConfig(seed int64) Config {
	return Config{
		Bins:                  1008,
		BinDuration:           10 * time.Minute,
		Seed:                  seed,
		TotalMeanRate:         8e8, // network-wide bytes per 10-minute bin
		WeightSigma:           1.0,
		DiurnalAmplitude:      0.45,
		AmplitudeJitter:       0.6,
		SemiDiurnalWeight:     0.35,
		WeeklyAmplitude:       0.25,
		PoPPhaseSigmaHours:    2.5,
		PhaseJitterHours:      0.5,
		NoiseSigma:            0.07,
		NoiseAR:               0.35,
		HeavyFlows:            6,
		HeavyTrendAmplitude:   0.3,
		HeavyTrendPeriodHours: 72,
	}
}

func (c Config) validate() error {
	switch {
	case c.Bins <= 0:
		return fmt.Errorf("traffic: Bins %d <= 0", c.Bins)
	case c.BinDuration <= 0:
		return fmt.Errorf("traffic: BinDuration %v <= 0", c.BinDuration)
	case c.TotalMeanRate <= 0:
		return fmt.Errorf("traffic: TotalMeanRate %v <= 0", c.TotalMeanRate)
	case c.NoiseAR <= -1 || c.NoiseAR >= 1:
		return fmt.Errorf("traffic: NoiseAR %v out of (-1,1)", c.NoiseAR)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude > 1:
		return fmt.Errorf("traffic: DiurnalAmplitude %v out of [0,1]", c.DiurnalAmplitude)
	case c.WeeklyAmplitude < 0 || c.WeeklyAmplitude > 1:
		return fmt.Errorf("traffic: WeeklyAmplitude %v out of [0,1]", c.WeeklyAmplitude)
	case c.NoiseSigma < 0:
		return fmt.Errorf("traffic: NoiseSigma %v < 0", c.NoiseSigma)
	case c.AmplitudeJitter < 0:
		return fmt.Errorf("traffic: AmplitudeJitter %v < 0", c.AmplitudeJitter)
	case c.SemiDiurnalWeight < 0:
		return fmt.Errorf("traffic: SemiDiurnalWeight %v < 0", c.SemiDiurnalWeight)
	case c.HeavyFlows < 0:
		return fmt.Errorf("traffic: HeavyFlows %d < 0", c.HeavyFlows)
	case c.HeavyTrendAmplitude < 0 || c.HeavyTrendAmplitude > 1:
		return fmt.Errorf("traffic: HeavyTrendAmplitude %v out of [0,1]", c.HeavyTrendAmplitude)
	case c.HeavyFlows > 0 && c.HeavyTrendPeriodHours <= 0:
		return fmt.Errorf("traffic: HeavyTrendPeriodHours %v <= 0", c.HeavyTrendPeriodHours)
	case c.PoPPhaseSigmaHours < 0:
		return fmt.Errorf("traffic: PoPPhaseSigmaHours %v < 0", c.PoPPhaseSigmaHours)
	}
	return nil
}

// Generator produces OD-flow matrices for a topology.
type Generator struct {
	topo *topology.Topology
	cfg  Config
}

// NewGenerator returns a generator for the topology, or an error for an
// invalid configuration.
func NewGenerator(topo *topology.Topology, cfg Config) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Generator{topo: topo, cfg: cfg}, nil
}

func (g *Generator) flowMeans(rng *rand.Rand) []float64 {
	p := g.topo.NumPoPs()
	w := make([]float64, p)
	var sum float64
	for i := range w {
		w[i] = math.Exp(g.cfg.WeightSigma * rng.NormFloat64())
		sum += w[i]
	}
	means := make([]float64, g.topo.NumFlows())
	for o := 0; o < p; o++ {
		for d := 0; d < p; d++ {
			means[g.topo.FlowID(o, d)] = g.cfg.TotalMeanRate * w[o] * w[d] / (sum * sum)
		}
	}
	return means
}

// Generate returns the t x n OD-flow matrix (bins by flows), in bytes per
// bin. The result is deterministic in the configured seed.
func (g *Generator) Generate() *mat.Dense {
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	means := g.flowMeans(rng)
	n := g.topo.NumFlows()
	p := g.topo.NumPoPs()
	t := g.cfg.Bins
	binHours := g.cfg.BinDuration.Hours()

	// Per-PoP regional peak offsets (hours): traffic between two PoPs
	// peaks according to its endpoints' local busy hours.
	popOffset := make([]float64, p)
	for i := range popOffset {
		popOffset[i] = g.cfg.PoPPhaseSigmaHours * rng.NormFloat64()
	}
	// Per-flow diurnal peak (hours), amplitudes (24 h and 12 h harmonics),
	// and noise state.
	phase := make([]float64, n)
	amp := make([]float64, n)
	amp2 := make([]float64, n)
	phase2 := make([]float64, n)
	noise := make([]float64, n)
	ampBias := g.cfg.AmplitudeJitter * g.cfg.AmplitudeJitter / 2
	for f := 0; f < n; f++ {
		o, d := g.topo.FlowEndpoints(f)
		phase[f] = 15 + (popOffset[o]+popOffset[d])/2 + g.cfg.PhaseJitterHours*rng.NormFloat64()
		a := g.cfg.DiurnalAmplitude * math.Exp(g.cfg.AmplitudeJitter*rng.NormFloat64()-ampBias)
		if a > 0.85 {
			a = 0.85
		}
		amp[f] = a
		amp2[f] = g.cfg.SemiDiurnalWeight * a * rng.Float64()
		phase2[f] = 24 * rng.Float64()
		noise[f] = rng.NormFloat64()
	}
	// The largest flows carry an extra slow trend of their own; its phase
	// is drawn per flow.
	heavyAmp := make([]float64, n)
	heavyPhase := make([]float64, n)
	if g.cfg.HeavyFlows > 0 && g.cfg.HeavyTrendAmplitude > 0 {
		for _, f := range topFlows(means, g.cfg.HeavyFlows) {
			heavyAmp[f] = g.cfg.HeavyTrendAmplitude
			heavyPhase[f] = g.cfg.HeavyTrendPeriodHours * rng.Float64()
		}
	}
	rho := g.cfg.NoiseAR
	innov := math.Sqrt(1 - rho*rho)

	x := mat.Zeros(t, n)
	for b := 0; b < t; b++ {
		hours := float64(b) * binHours
		dayFrac := math.Mod(hours, 24) / 24
		weekend := weekendFactor(hours, g.cfg.WeeklyAmplitude)
		row := x.RowView(b)
		for f := 0; f < n; f++ {
			diurnal := 1 + amp[f]*math.Cos(2*math.Pi*(dayFrac-phase[f]/24)) +
				amp2[f]*math.Cos(4*math.Pi*(dayFrac-phase2[f]/24))
			if heavyAmp[f] > 0 {
				diurnal += heavyAmp[f] * math.Cos(2*math.Pi*(hours-heavyPhase[f])/g.cfg.HeavyTrendPeriodHours)
			}
			noise[f] = rho*noise[f] + innov*rng.NormFloat64()
			// Noise is additive at a magnitude proportional to the flow's
			// mean (bigger flows are absolutely noisier, the effect behind
			// Figure 9) but independent of the instantaneous level, so the
			// residual process is homoscedastic as the Q-statistic assumes.
			v := means[f]*diurnal*weekend + means[f]*g.cfg.NoiseSigma*noise[f]
			if v < 0 {
				v = 0
			}
			row[f] = v
		}
	}
	return x
}

// topFlows returns the indices of the k largest values in means.
func topFlows(means []float64, k int) []int {
	idx := make([]int, len(means))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return means[idx[a]] > means[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// weekendFactor dips traffic over days 5 and 6 of the week (Sat/Sun when
// bin 0 is Monday 00:00), with smooth edges.
func weekendFactor(hours, amplitude float64) float64 {
	if amplitude == 0 {
		return 1
	}
	day := math.Mod(hours/24, 7)
	// Smooth indicator of the [5,7) interval via raised cosine ramps of
	// half a day at each edge.
	var w float64
	switch {
	case day >= 5.5 && day < 6.5:
		w = 1
	case day >= 5 && day < 5.5:
		w = (1 - math.Cos(2*math.Pi*(day-5))) / 2
	case day >= 6.5:
		w = (1 + math.Cos(2*math.Pi*(day-6.5))) / 2
	}
	return 1 - amplitude*w
}

// LinkLoads computes the t x m link-load matrix Y from the OD-flow matrix
// X via the topology's routes: Y = X A^T in the paper's notation, so that
// each row satisfies y = Ax.
func LinkLoads(topo *topology.Topology, x *mat.Dense) *mat.Dense {
	t, n := x.Dims()
	if n != topo.NumFlows() {
		panic(fmt.Sprintf("traffic: LinkLoads flow count %d != topology flows %d", n, topo.NumFlows()))
	}
	y := mat.Zeros(t, topo.NumLinks())
	for f := 0; f < n; f++ {
		route := topo.Route(f)
		if len(route) == 0 {
			continue
		}
		for b := 0; b < t; b++ {
			v := x.At(b, f)
			if v == 0 {
				continue
			}
			yrow := y.RowView(b)
			for _, li := range route {
				yrow[li] += v
			}
		}
	}
	return y
}

// LinkLoadAt computes a single link-load vector for the OD-flow vector x
// at one timestep (y = Ax).
func LinkLoadAt(topo *topology.Topology, x []float64) []float64 {
	if len(x) != topo.NumFlows() {
		panic(fmt.Sprintf("traffic: LinkLoadAt flow count %d != topology flows %d", len(x), topo.NumFlows()))
	}
	y := make([]float64, topo.NumLinks())
	for f, v := range x {
		if v == 0 {
			continue
		}
		for _, li := range topo.Route(f) {
			y[li] += v
		}
	}
	return y
}
