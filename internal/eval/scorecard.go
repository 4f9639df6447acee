package eval

// The nine-backend × attack-scenario detection scorecard. Where
// streaming.go scores one backend on one labeled stream, the scorecard
// runs the full backend family over every scenario in the attack
// library under identical seeds, producing the per-(backend, scenario)
// detection / false-alarm / identification table that CI pins: a
// committed SCORECARD.json baseline, regenerated by cmd/benchjson
// -scorecard, fails the build when any cell regresses beyond
// tolerance. Every future perf or backend change shows its detection
// cost here.

import (
	"fmt"
	"sort"

	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/incident"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// ScorecardConfig parameterizes RunScorecard. The zero value takes the
// defaults noted on each field.
type ScorecardConfig struct {
	// Seed drives the traffic generator, metric synthesis and every
	// scenario; the whole scorecard is deterministic in it.
	Seed int64
	// HistoryBins seed each detector's model (default 1024 — dyadic, so
	// the multiscale backend can seed).
	HistoryBins int
	// StreamBins follow the history and carry the scenarios
	// (default 256; at least traffic.MinScenarioStreamBins).
	StreamBins int
	// BatchSize chunks the stream through ProcessBatch (default 64).
	BatchSize int
}

func (c *ScorecardConfig) setDefaults() {
	if c.HistoryBins <= 0 {
		c.HistoryBins = 1024
	}
	if c.StreamBins <= 0 {
		c.StreamBins = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
}

// ScorecardCell is one (backend, scenario) evaluation: the raw
// streaming counts plus the three derived rates CompareScorecards
// gates on.
type ScorecardCell struct {
	Backend  string `json:"backend"`
	Scenario string `json:"scenario"`

	Detected      int `json:"detected"`
	TrueAnomalies int `json:"true_anomalies"`
	FalseAlarms   int `json:"false_alarms"`
	NormalBins    int `json:"normal_bins"`
	Identified    int `json:"identified"`
	IdentTrials   int `json:"ident_trials"`
	// Incidents counts what the correlation layer makes of the cell's
	// alarm stream under its default quiet period: a clean cell reports
	// one incident per labeled scenario window, so a count rising above
	// the baseline is fragmentation — the detector still fires, but in
	// scattered bursts an operator would page on separately.
	Incidents int `json:"incidents"`

	DetectionRate      float64 `json:"detection_rate"`
	FalseAlarmRate     float64 `json:"false_alarm_rate"`
	IdentificationRate float64 `json:"identification_rate"`
}

// Scorecard is the full matrix plus the provenance needed to
// regenerate it bit-for-bit.
type Scorecard struct {
	Topology    string          `json:"topology"`
	Seed        int64           `json:"seed"`
	HistoryBins int             `json:"history_bins"`
	StreamBins  int             `json:"stream_bins"`
	BatchSize   int             `json:"batch_size"`
	Backends    []string        `json:"backends"`
	Scenarios   []string        `json:"scenarios"`
	Cells       []ScorecardCell `json:"cells"`
}

// Cell returns the (backend, scenario) cell, or nil when absent.
func (s *Scorecard) Cell(backend, scenario string) *ScorecardCell {
	for i := range s.Cells {
		if s.Cells[i].Backend == backend && s.Cells[i].Scenario == scenario {
			return &s.Cells[i]
		}
	}
	return nil
}

// RunScorecard evaluates every backend against every scenario in the
// library. Per scenario: one synthetic trace is generated, the
// scenario composed onto its stream tail, link loads and the stacked
// multi-metric series derived (scan-shaped flow-count injections
// applied to the latter), and nine freshly seeded detectors replay the
// identical stream through EvaluateStreamingFlows against the
// scenario's ground truth. The table is deterministic in cfg.Seed.
// Automatic refits are disabled because the committed baseline was
// measured without them.
func RunScorecard(topo *topology.Topology, cfg ScorecardConfig) (*Scorecard, error) {
	cfg.setDefaults()
	scenarios := traffic.Scenarios()
	card := &Scorecard{
		Topology:    topo.Name(),
		Seed:        cfg.Seed,
		HistoryBins: cfg.HistoryBins,
		StreamBins:  cfg.StreamBins,
		BatchSize:   cfg.BatchSize,
		Backends:    append([]string(nil), backend.Kinds...),
	}
	for _, sc := range scenarios {
		card.Scenarios = append(card.Scenarios, sc.Name)
		cells, err := runScenario(topo, sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: scorecard %s: %w", sc.Name, err)
		}
		card.Cells = append(card.Cells, cells...)
	}
	return card, nil
}

// runScenario scores the full backend family on one scenario.
func runScenario(topo *topology.Topology, sc traffic.Scenario, cfg ScorecardConfig) ([]ScorecardCell, error) {
	bins := cfg.HistoryBins + cfg.StreamBins
	tcfg := traffic.DefaultConfig(cfg.Seed)
	tcfg.Bins = bins
	gen, err := traffic.NewGenerator(topo, tcfg)
	if err != nil {
		return nil, err
	}
	od := gen.Generate()
	res, err := sc.Apply(topo, od, cfg.HistoryBins, cfg.Seed)
	if err != nil {
		return nil, err
	}
	truth := traffic.StreamTruth(res.Truth, cfg.HistoryBins)

	links := topo.NumLinks()
	y := traffic.LinkLoads(topo, od)
	history := mat.NewDense(cfg.HistoryBins, links, y.RawData()[:cfg.HistoryBins*links])
	stream := mat.NewDense(cfg.StreamBins, links, y.RawData()[cfg.HistoryBins*links:])

	ms, err := netmeas.LinkMetrics(topo, od, netmeas.MetricConfig{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	for _, fa := range res.FlowCountAnomalies {
		ms.InjectFlowCountAnomaly(topo, fa.Flow, fa.Bin, fa.Extra)
	}
	stacked, err := ms.Stacked()
	if err != nil {
		return nil, err
	}
	cols := stacked.Cols()
	stackedHistory := mat.NewDense(cfg.HistoryBins, cols, stacked.RawData()[:cfg.HistoryBins*cols])
	stackedStream := mat.NewDense(cfg.StreamBins, cols, stacked.RawData()[cfg.HistoryBins*cols:])

	routing := topo.RoutingMatrix()
	cells := make([]ScorecardCell, 0, len(backend.Kinds))
	for _, kind := range backend.Kinds {
		// Automatic refits stay off: the committed baseline was
		// measured without them.
		// Multiscale runs two wavelet levels, the depth the committed
		// baseline was measured at.
		spec := backend.Spec{Kind: kind, Window: cfg.HistoryBins, Levels: 2}
		hist, in := history, stream
		if kind == "multiflow" {
			hist, in = stackedHistory, stackedStream
		}
		det, err := backend.Build(spec, hist, routing)
		if err != nil {
			return nil, err
		}
		r, alarms, err := EvaluateStreamingAlarms(det, in, cfg.BatchSize, truth)
		if err != nil {
			return nil, err
		}
		cells = append(cells, ScorecardCell{
			Backend:            kind,
			Scenario:           sc.Name,
			Detected:           r.Detected,
			TrueAnomalies:      r.TrueAnomalies,
			FalseAlarms:        r.FalseAlarms,
			NormalBins:         r.NormalBins,
			Identified:         r.Identified,
			IdentTrials:        r.IdentTrials,
			Incidents:          countIncidents(alarms, cfg.StreamBins),
			DetectionRate:      r.DetectionRate(),
			FalseAlarmRate:     r.FalseAlarmRate(),
			IdentificationRate: r.IdentificationRate(),
		})
	}
	return cells, nil
}

// countIncidents replays one cell's alarm stream through a
// default-configured correlator — single view, default quiet period,
// clock run out past the last bin so every incident closes — and
// returns how many incidents were opened. Alarms arrive in stream
// order from EvaluateStreamingAlarms, which is all Observe requires.
func countIncidents(alarms []core.Alarm, streamBins int) int {
	corr := incident.New(incident.Config{})
	for _, a := range alarms {
		corr.Observe("stream", a)
	}
	if streamBins > 0 {
		corr.Advance(streamBins - 1)
	}
	corr.Flush()
	return corr.Stats().Opened
}

// ScorecardTolerance sets how far a cell may drift from the baseline
// before CompareScorecards calls it a regression. Rates move in
// integer alarm steps over a few dozen bins, so tolerances are
// absolute-rate slack, not relative.
type ScorecardTolerance struct {
	// Detection allows the detection rate to drop this much.
	Detection float64
	// FalseAlarm allows the false-alarm rate to rise this much.
	FalseAlarm float64
	// Identification allows the identification rate to drop this much.
	Identification float64
	// Incidents allows the incident count to rise by this many before
	// the cell is called fragmented. Counts are small integers (a clean
	// cell is 0 or 1), so the slack is absolute.
	Incidents int
}

// DefaultScorecardTolerance absorbs one flipped bin in a typical cell
// while catching any real detection or attribution loss. The one-
// incident slack likewise absorbs a boundary alarm splitting off,
// while a window shattering into scattered bursts still fails.
func DefaultScorecardTolerance() ScorecardTolerance {
	return ScorecardTolerance{Detection: 0.10, FalseAlarm: 0.02, Identification: 0.10, Incidents: 1}
}

// CompareScorecards reports every way current regresses from baseline:
// missing cells, detection or identification rates dropping beyond
// tolerance, false-alarm rates rising beyond it. Improvements and new
// cells pass silently (run with a refreshed baseline to ratchet them
// in). An empty slice means no regression.
func CompareScorecards(baseline, current *Scorecard, tol ScorecardTolerance) []string {
	var regressions []string
	for i := range baseline.Cells {
		b := &baseline.Cells[i]
		c := current.Cell(b.Backend, b.Scenario)
		if c == nil {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s: cell missing from current scorecard", b.Backend, b.Scenario))
			continue
		}
		if drop := b.DetectionRate - c.DetectionRate; drop > tol.Detection {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s: detection rate %.3f -> %.3f (drop %.3f > %.3f)",
					b.Backend, b.Scenario, b.DetectionRate, c.DetectionRate, drop, tol.Detection))
		}
		if rise := c.FalseAlarmRate - b.FalseAlarmRate; rise > tol.FalseAlarm {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s: false-alarm rate %.3f -> %.3f (rise %.3f > %.3f)",
					b.Backend, b.Scenario, b.FalseAlarmRate, c.FalseAlarmRate, rise, tol.FalseAlarm))
		}
		if drop := b.IdentificationRate - c.IdentificationRate; drop > tol.Identification {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s: identification rate %.3f -> %.3f (drop %.3f > %.3f)",
					b.Backend, b.Scenario, b.IdentificationRate, c.IdentificationRate, drop, tol.Identification))
		}
		if rise := c.Incidents - b.Incidents; rise > tol.Incidents {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s: incidents %d -> %d (fragmentation: rise %d > %d)",
					b.Backend, b.Scenario, b.Incidents, c.Incidents, rise, tol.Incidents))
		}
	}
	sort.Strings(regressions)
	return regressions
}
