package netanomaly

import (
	"context"
	"fmt"
	"io"
	"time"

	"netanomaly/internal/backend"
	"netanomaly/internal/core"
	"netanomaly/internal/engine"
	"netanomaly/internal/incident"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
	"netanomaly/internal/topology"
	"netanomaly/internal/traffic"
)

// Topology is a PoP-level network with routing. Build one with
// NewTopologyBuilder or use the Abilene / SprintEurope / Synthetic
// presets.
type Topology = topology.Topology

// TopologyBuilder accumulates PoPs and duplex links.
type TopologyBuilder = topology.Builder

// PoP is a point of presence (node).
type PoP = topology.PoP

// Link is a directed link; intra-PoP links have Src == Dst.
type Link = topology.Link

// NewTopologyBuilder starts a topology definition.
func NewTopologyBuilder(name string) *TopologyBuilder { return topology.NewBuilder(name) }

// Abilene returns the 11-PoP Internet2 backbone of the paper (41 links).
func Abilene() *Topology { return topology.Abilene() }

// SprintEurope returns the 13-PoP European tier-1 backbone of the paper
// (49 links).
func SprintEurope() *Topology { return topology.SprintEurope() }

// SyntheticTopology returns a random connected topology with n PoPs and
// the given number of duplex edges, deterministic in seed.
func SyntheticTopology(n, edges int, seed int64) *Topology {
	return topology.Synthetic(n, edges, seed)
}

// ParseTopology resolves a topology name — "abilene", "sprint", or
// "synthetic:<pops>:<edges>:<seed>" (SyntheticTopology's arguments) —
// the grammar every command's -topology flag shares. Out-of-range
// synthetic specs are errors.
func ParseTopology(name string) (*Topology, error) { return topology.Parse(name) }

// Matrix is a dense row-major matrix of float64. Measurement matrices are
// bins x links; OD matrices are bins x flows.
type Matrix = mat.Dense

// NewMatrix returns a rows x cols matrix backed by data (nil allocates
// zeros).
func NewMatrix(rows, cols int, data []float64) *Matrix {
	return mat.NewDense(rows, cols, data)
}

// TrafficConfig parameterizes the synthetic OD-flow generator.
type TrafficConfig = traffic.Config

// DefaultTrafficConfig returns the paper-scale generator configuration:
// one week of ten-minute bins with diurnal and weekly structure.
func DefaultTrafficConfig(seed int64) TrafficConfig { return traffic.DefaultConfig(seed) }

// GenerateTraffic produces a bins x flows OD traffic matrix for the
// topology.
func GenerateTraffic(topo *Topology, cfg TrafficConfig) (*Matrix, error) {
	gen, err := traffic.NewGenerator(topo, cfg)
	if err != nil {
		return nil, err
	}
	return gen.Generate(), nil
}

// LinkLoads converts OD traffic to link loads through the topology's
// routing: y = Ax per bin.
func LinkLoads(topo *Topology, od *Matrix) *Matrix { return traffic.LinkLoads(topo, od) }

// Anomaly is a volume anomaly: Delta bytes added to (or, if negative,
// removed from) OD flow Flow at bin Bin.
type Anomaly = traffic.Anomaly

// InjectAnomalies adds the anomalies to the OD matrix in place.
func InjectAnomalies(od *Matrix, anomalies []Anomaly) { traffic.Inject(od, anomalies) }

// LabeledBin is one ground-truth anomaly label — the bin and, when
// known, the responsible OD flow (Flow < 0 scores detection only).
type LabeledBin = traffic.LabeledBin

// FlowCountAnomaly is a scan-shaped injection: extra IP flows, no
// extra bytes, along one OD flow's path at one bin. Apply it to a
// LinkMetricSet with InjectFlowCountAnomaly; only multi-metric
// detectors can see it.
type FlowCountAnomaly = traffic.FlowCountAnomaly

// Scenario is one entry of the labeled attack-scenario library:
// beaconing, scans, floods vs. flash crowds, exfiltration, lateral
// movement — each composing onto any topology's OD-flow routing,
// deterministic in its seed, and emitting flow-attributed ground
// truth.
type Scenario = traffic.Scenario

// ScenarioResult is a scenario application's ground truth, metric-level
// injections, and touched flows.
type ScenarioResult = traffic.ScenarioResult

// Scenarios returns the attack-scenario registry in stable order.
func Scenarios() []Scenario { return traffic.Scenarios() }

// ScenarioByName resolves a scenario registry name ("beacon", "scan",
// "synflood", "flashcrowd", "exfil", "lateral").
func ScenarioByName(name string) (Scenario, error) { return traffic.ScenarioByName(name) }

// StreamTruth rebases absolute-bin scenario truth onto a stream
// starting at bin start, dropping labels before it.
func StreamTruth(truth []LabeledBin, start int) []LabeledBin {
	return traffic.StreamTruth(truth, start)
}

// Options configure the diagnosis pipeline. The zero value gives the
// paper's defaults: 3-sigma subspace separation and a 99.9% confidence
// detection threshold.
type Options = core.Options

// Diagnosis is a detected, identified and quantified volume anomaly.
type Diagnosis = core.Diagnosis

// Diagnoser runs the subspace method's three steps over link
// measurements.
type Diagnoser = core.Diagnoser

// NewDiagnoser fits the subspace model on the measurement matrix
// (bins x links) for the given topology.
func NewDiagnoser(links *Matrix, topo *Topology, opts Options) (*Diagnoser, error) {
	_, m := links.Dims()
	if m != topo.NumLinks() {
		return nil, fmt.Errorf("netanomaly: measurements have %d links, topology has %d", m, topo.NumLinks())
	}
	return core.NewDiagnoser(links, topo.RoutingMatrix(), opts)
}

// OnlineDetector applies the method to a live measurement stream,
// refitting its model periodically (Section 7.1 of the paper).
type OnlineDetector = core.OnlineDetector

// OnlineConfig configures NewOnlineDetector.
type OnlineConfig = core.OnlineConfig

// Alarm is an anomaly raised by the online detector.
type Alarm = core.Alarm

// NewOnlineDetector fits an initial model on history (bins x links) and
// returns a streaming detector for the topology.
func NewOnlineDetector(history *Matrix, topo *Topology, cfg OnlineConfig) (*OnlineDetector, error) {
	_, m := history.Dims()
	if m != topo.NumLinks() {
		return nil, fmt.Errorf("netanomaly: history has %d links, topology has %d", m, topo.NumLinks())
	}
	det, err := core.NewOnlineDetector(topo.RoutingMatrix(), cfg)
	if err != nil {
		return nil, err
	}
	if err := det.Seed(history); err != nil {
		return nil, err
	}
	return det, nil
}

// Monitor is the concurrent streaming detection engine: one detector
// shard per registered traffic view, measurement batches fanned across a
// worker pool, each model refit run on its view's worker after the
// batch's alarms are out and swapped in atomically. Use it when monitoring several topologies or
// vantage points (or one high-rate stream in batches); for a single
// stream processed bin by bin, OnlineDetector is simpler.
type Monitor = engine.Monitor

// MonitorConfig configures NewMonitor; the zero value gives GOMAXPROCS
// workers, 64-bin batches, unbounded per-view queues and the paper's
// detection defaults.
type MonitorConfig = engine.Config

// MonitorAlarm is a diagnosed anomaly tagged with the view that raised
// it.
type MonitorAlarm = engine.Alarm

// OverloadPolicy selects what Monitor.Ingest does when a view's bounded
// queue is full: block the producer (backpressure), drop the oldest
// queued batch (freshness), or fail with ErrOverloaded (load shedding).
type OverloadPolicy = engine.OverloadPolicy

const (
	// OverloadBlock stalls the producer until workers drain space — the
	// default, and with Monitor.IngestStream the backpressure reaches
	// the measurement channel and its collector.
	OverloadBlock = engine.OverloadBlock
	// OverloadDropOldest evicts the oldest queued batches to make room;
	// dropped bins raise no alarms and are counted in the monitor's
	// Stats and per-view QueueStats.
	OverloadDropOldest = engine.OverloadDropOldest
	// OverloadError rejects the overflow and returns ErrOverloaded.
	OverloadError = engine.OverloadError
)

// ErrOverloaded is returned (wrapped) by Ingest/IngestStream under
// OverloadError when a view's queue is full; test with errors.Is.
var ErrOverloaded = engine.ErrOverloaded

// ParseOverloadPolicy maps "block", "dropoldest" or "error" to its
// policy — a convenience for flag plumbing.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	return engine.ParseOverloadPolicy(s)
}

// MonitorStats is the monitor's load snapshot: live and configured
// worker counts plus queue depth, drop and rejection counters summed
// over views. Retrieve with Monitor.Stats (works after Close too).
type MonitorStats = engine.Stats

// ViewQueueStats is one view's ingest-queue accounting (depth, accepted
// bins, bins lost to the overload policy); retrieve with
// Monitor.QueueStats. At quiescence EnqueuedBins - DroppedBins equals
// the view's ViewStats.Processed.
type ViewQueueStats = engine.QueueStats

// MonitorOption adjusts a MonitorConfig in NewMonitor — the load-safety
// knobs (WithMaxPending, WithOverloadPolicy) without
// spelling out engine configuration structs.
type MonitorOption func(*MonitorConfig)

// WithMaxPending bounds every view's queue to at most bins unprocessed
// bins; a full queue engages the overload policy. 0 (the default) is
// unbounded.
func WithMaxPending(bins int) MonitorOption {
	return func(c *MonitorConfig) { c.MaxPending = bins }
}

// WithOverloadPolicy selects the full-queue behavior (default
// OverloadBlock).
func WithOverloadPolicy(p OverloadPolicy) MonitorOption {
	return func(c *MonitorConfig) { c.Overload = p }
}

// NewMonitor starts a streaming detection engine with no views. Register
// views with AddView (or Monitor.AddDetectorView with a detector built
// by hand) and feed them with Monitor.Ingest. Options apply on top of
// cfg.
func NewMonitor(cfg MonitorConfig, opts ...MonitorOption) *Monitor {
	for _, o := range opts {
		o(&cfg)
	}
	return engine.NewMonitor(cfg)
}

// ViewDetector is the streaming contract every detector backend
// presents to a Monitor shard; see the Detector* kinds for the shipped
// implementations.
type ViewDetector = core.ViewDetector

// ViewStats is a snapshot of a shard's detector state, retrieved with
// Monitor.ViewStats.
type ViewStats = core.ViewStats

// DetectorKind selects the streaming backend AddView builds for a view.
type DetectorKind string

const (
	// DetectorSubspace is the windowed subspace method (the default):
	// sliding-window model, refits that re-solve the whole window,
	// per-bin flow identification.
	DetectorSubspace DetectorKind = "subspace"
	// DetectorIncremental maintains the model from a running
	// mean/covariance with forgetting factor lambda: no window
	// snapshots, refits solve only the m x m eigenproblem, and the
	// drift gate skips rebuilds when the subspace has not moved.
	DetectorIncremental DetectorKind = "incremental"
	// DetectorMultiscale applies one subspace model per wavelet scale
	// (Section 7.3), catching sustained anomalies single-bin detectors
	// miss; alarms report time regions without flow identification.
	DetectorMultiscale DetectorKind = "multiscale"
	// DetectorMultiFlow fans one subspace model per traffic metric
	// (bytes / flow counts / packet size, Section 7.2) over shared
	// routing and alarms when any metric flags a bin, catching scans
	// that move flow counts without moving bytes. History and batches carry the metric blocks
	// column-stacked (see StackMatrices and DeriveLinkMetrics).
	DetectorMultiFlow DetectorKind = "multiflow"
	// DetectorEWMA forecasts each link independently with exponential
	// smoothing and alarms on k-sigma residual exceedance against
	// adaptive per-link thresholds — the paper's Section 7.3 temporal
	// baseline, streaming. Alarms localize in time and link, not OD
	// flow (Diagnosis.Flow is -1).
	DetectorEWMA DetectorKind = "ewma"
	// DetectorHoltWinters is the level+trend double-exponential
	// forecasting baseline with the same adaptive residual thresholds.
	DetectorHoltWinters DetectorKind = "holtwinters"
	// DetectorFourier fits the paper's eight-period sinusoid basis on a
	// sliding window (refit on the refit cadence) and alarms on residuals
	// against adaptive per-link thresholds (Section 6.2's temporal
	// model, streaming).
	DetectorFourier DetectorKind = "fourier"
	// DetectorHybrid pairs an always-on ewma triage stage with a
	// subspace identification stage: every bin pays only the cheap
	// per-link recursion, and every bin the triage stage alarms is
	// escalated to a subspace model that attributes the responsible OD
	// flow — the paper's "temporal methods localize in time+link, the
	// subspace method identifies the flow" trade collapsed into one
	// view. See docs/BACKENDS.md for the full selection guide.
	DetectorHybrid DetectorKind = "hybrid"
	// DetectorSketch maintains the covariance as a Frequent-Directions
	// sketch of l rows (WithSketchSize, default 4x the model rank)
	// instead of the full m x m matrix: memory O(l x m) independent of
	// stream length, refits solve only the l x l sketch eigenproblem,
	// and the spectral-norm guarantee keeps the normal subspace — which
	// detection runs on — close to the exact fit's whenever l is at
	// least twice the model rank. The cheapest subspace-family refit on
	// wide (large-m) deployments.
	DetectorSketch DetectorKind = "sketch"
)

// newSpec applies opts over the default (subspace) kind, with the
// monitor's Window, RefitEvery and Options folded in.
func newSpec(cfg MonitorConfig, opts []ViewOption) backend.Spec {
	spec := backend.Spec{
		Kind:       string(DetectorSubspace),
		Window:     cfg.Window,
		RefitEvery: cfg.RefitEvery,
		Options:    cfg.Options,
	}
	for _, o := range opts {
		o(&spec)
	}
	return spec
}

// ViewOption customizes the backend AddView builds.
type ViewOption func(*backend.Spec)

// WithDetector selects the backend kind (default DetectorSubspace).
func WithDetector(kind DetectorKind) ViewOption {
	return func(s *backend.Spec) { s.Kind = string(kind) }
}

// WithSketchSize sets the sketch backend's Frequent-Directions sketch
// to l rows (memory O(l x links), refit cost O(l^2 x links)). The
// default is 4x the model rank; AddView rejects l below 2x the rank —
// under that the sketch cannot hold the normal subspace — or below 4.
// Without it, Restore takes the checkpoint's size.
func WithSketchSize(l int) ViewOption {
	return func(s *backend.Spec) { s.SketchSize = l }
}

// WithLambda sets the incremental backend's forgetting factor in
// (0, 1]; 1 weights all history equally, 0.999 forgets with roughly a
// one-week time constant at ten-minute bins.
func WithLambda(lambda float64) ViewOption {
	return func(s *backend.Spec) { s.Lambda = lambda }
}

// WithDriftTolerance sets the incremental backend's rebuild gate: an
// automatic refit only swaps the model in when the residual projector
// has moved at least tol in Frobenius norm.
func WithDriftTolerance(tol float64) ViewOption {
	return func(s *backend.Spec) { s.DriftTol = tol }
}

// WithMetrics names the multi-flow backend's stacked metric blocks in
// column order (default bytes, flows, pktsize).
func WithMetrics(names ...string) ViewOption {
	return func(s *backend.Spec) { s.Metrics = names }
}

// AddView registers a detector shard on the monitor for a topology's
// measurement stream, with the backend selected by options. history
// seeds the model: bins x links for the subspace, incremental, sketch,
// multiscale, forecast (ewma / holtwinters / fourier) and hybrid
// kinds, bins x (metrics x links) column-stacked for multiflow. The
// monitor's Window, RefitEvery and Options configure every kind
// uniformly (the forecast kinds alarm at a fixed 6-sigma residual
// rather than at Options.Confidence). See docs/BACKENDS.md for the
// backend selection guide.
func AddView(m *Monitor, name string, history *Matrix, topo *Topology, opts ...ViewOption) error {
	det, err := backend.Build(newSpec(m.Config(), opts), history, topo.RoutingMatrix())
	if err != nil {
		return fmt.Errorf("netanomaly: view %q: %w", name, err)
	}
	return m.AddDetectorView(name, det)
}

// HybridDetector is the triage→identification backend behind
// DetectorHybrid; retrieve it with Monitor.Detector and a type
// assertion to read its HybridStats. Its own Stats are its subspace
// detector's, which numbers every bin and counts the subspace refits.
type HybridDetector = core.HybridDetector

// HybridStats is a hybrid view's escalation breakdown: the triage
// stage's Stats plus the escalation counters (triage alarms, escalated
// bins, identified bins).
type HybridStats = core.HybridStats

// Correlator clusters the Monitor's per-bin alarm stream into
// deduplicated Incident records: alarms sharing an attributed OD flow
// (across views and metrics) or, when unattributed, an emitting view,
// merge into one incident while their bins overlap or gap by less than
// the quiet period. Feed it from the monitor's OnAlarm callback —
// c.Observe(a.View, a.Alarm) — or a TakeAlarms drain; it is safe under
// the callback's concurrency. See docs/BACKENDS.md's Incidents section.
type Correlator = incident.Correlator

// Incident is one correlated anomaly: merged bin span, peak SPE,
// attributed bytes, contributing views, and a severity of peak SPE ×
// duration × view agreement.
type Incident = incident.Incident

// IncidentKey is an incident's correlation identity: the attributed
// flow, or the emitting view (Region) for Flow = -1 alarms.
type IncidentKey = incident.Key

// IncidentEvent is one incident state transition (open → update →
// closed) delivered to the WithIncidentCallback observer.
type IncidentEvent = incident.Event

// IncidentStats is a correlator's lifetime transition counts.
type IncidentStats = incident.Stats

// Incident state transitions, as IncidentEvent.Type.
const (
	IncidentOpened  = incident.Opened
	IncidentUpdated = incident.Updated
	IncidentClosed  = incident.Closed
)

// CorrelatorOption configures NewCorrelator.
type CorrelatorOption func(*incident.Config)

// WithQuietPeriod sets the gap, in bins, that separates incidents: an
// alarm within the quiet period of an open incident's last alarm merges
// into it, and an incident closes once the stream advances a full quiet
// period past its last alarm (default 8).
func WithQuietPeriod(bins int) CorrelatorOption {
	return func(c *incident.Config) { c.QuietPeriod = bins }
}

// WithIncidentCallback installs the incident observer. It is invoked
// synchronously under the correlator's lock, possibly from several of
// the monitor's worker goroutines in turn, so it must be quick and must
// not call back into the correlator.
func WithIncidentCallback(fn func(IncidentEvent)) CorrelatorOption {
	return func(c *incident.Config) { c.OnEvent = fn }
}

// NewCorrelator builds the incident correlation stage. Wire it above a
// Monitor by observing every alarm, advance its clock with the
// processed-bin count when the stream pauses, and Flush at stream end:
//
//	corr := netanomaly.NewCorrelator(netanomaly.WithIncidentCallback(onIncident))
//	cfg.OnAlarm = func(a netanomaly.MonitorAlarm) { corr.Observe(a.View, a.Alarm) }
//	...
//	corr.Flush()
//
// Its Snapshot/Restore envelope (kind "incidents") concatenates after a
// Monitor checkpoint so a warm restart resumes open incidents without
// re-opening duplicates.
func NewCorrelator(opts ...CorrelatorOption) *Correlator {
	var cfg incident.Config
	for _, o := range opts {
		o(&cfg)
	}
	return incident.New(cfg)
}

// ErrSnapshotFormat classifies structurally corrupt detector or
// monitor snapshots (bad magic, impossible lengths, contradictory
// dimensions); truncation is classified separately as
// io.ErrUnexpectedEOF. Test with errors.Is.
var ErrSnapshotFormat = core.ErrSnapshotFormat

// ErrSnapshotMismatch classifies well-formed snapshots offered to the
// wrong detector or view: a different backend kind, link count, or
// incompatible construction parameters. Test with errors.Is.
var ErrSnapshotMismatch = core.ErrSnapshotMismatch

// ErrNonFinite classifies a bin the detector could not judge: a NaN or
// ±Inf load, or loads whose squares overflow, handed to a
// subspace-family detector (subspace, incremental, sketch), or a NaN or
// ±Inf load handed to a forecast kind (ewma, holtwinters, fourier) or
// the hybrid. The bin raises no alarm and stays out of the model — the
// subspace estimate, the forecasters and their thresholds, and every
// refit window — and the batch's other bins are detected as usual. A
// hybrid bin whose loads are finite but whose SPE overflows keeps its
// triage alarm, without a flow, and is reported the same way.
// Test with errors.Is.
var ErrNonFinite = core.ErrNonFinite

// ViewSpec tells Restore how to reconstruct one checkpointed view's
// detector: the topology and options the view was originally registered
// with (AddView's arguments, less the history). Construction parameters
// live here, not in the checkpoint — the snapshot then supplies the
// detector's whole state, model included, and validates that both sides
// agree on kind, link count and the rest.
type ViewSpec struct {
	// Name matches the view name in the checkpoint.
	Name string
	// Topo supplies the links and routing matrix.
	Topo *Topology
	// Options select and configure the backend, exactly as passed to
	// AddView.
	Options []ViewOption
}

// Restore rebuilds a Monitor from a Monitor.Checkpoint stream: every
// checkpointed view's detector is constructed from its ViewSpec alone —
// no history is read and no model is fitted — and its state and queue
// counters are restored from the checkpoint, so the new monitor's alarm
// stream — sequence offsets included — continues bin-for-bin where the
// checkpointed one stopped. A checkpointed view without a spec, a spec
// whose backend kind disagrees with the snapshot, or a corrupt stream
// fails the whole restore (classified per ErrSnapshotFormat /
// ErrSnapshotMismatch / io.ErrUnexpectedEOF) and leaves no monitor
// behind.
func Restore(cfg MonitorConfig, r io.Reader, views []ViewSpec, opts ...MonitorOption) (*Monitor, error) {
	for _, o := range opts {
		o(&cfg)
	}
	specs := make(map[string]ViewSpec, len(views))
	for _, v := range views {
		specs[v.Name] = v
	}
	factory := func(name, kind string, links int) (ViewDetector, error) {
		spec, ok := specs[name]
		if !ok {
			return nil, fmt.Errorf("netanomaly: checkpoint holds view %q but no ViewSpec describes it", name)
		}
		bs := newSpec(cfg, spec.Options)
		if bs.Kind != kind {
			return nil, fmt.Errorf("netanomaly: view %q: %w: spec builds a %s detector, checkpoint holds %s state",
				name, ErrSnapshotMismatch, bs.Kind, kind)
		}
		det, err := backend.New(bs, spec.Topo.RoutingMatrix())
		if err != nil {
			return nil, fmt.Errorf("netanomaly: view %q: %w", name, err)
		}
		return det, nil
	}
	return engine.NewMonitorFromCheckpoint(cfg, r, factory)
}

// LinkMeasurement is one bin of link loads delivered by a streaming
// collector; Monitor.IngestStream consumes channels of them.
type LinkMeasurement = netmeas.LinkMeasurement

// StreamMatrix replays the rows of a measurement matrix on a channel,
// one bin per interval (immediately when interval is zero), closing it
// after the last bin or when ctx is cancelled — the simulated SNMP
// poll feed of Section 7.1. Feed it to Monitor.IngestStream to drive a
// shard end-to-end from a live source.
func StreamMatrix(ctx context.Context, y *Matrix, interval time.Duration) <-chan LinkMeasurement {
	return netmeas.Stream(ctx, y, interval)
}

// LinkMetricSet holds the per-link metric series of Section 7.2
// (bytes, IP-flow counts, mean packet size) for one traffic matrix.
type LinkMetricSet = netmeas.LinkMetricSet

// LinkMetricConfig parameterizes DeriveLinkMetrics.
type LinkMetricConfig = netmeas.MetricConfig

// DeriveLinkMetrics synthesizes the alternative per-link metric series
// from OD traffic; LinkMetricSet.Stacked lays them out as the
// multi-flow backend's stacked history.
func DeriveLinkMetrics(topo *Topology, od *Matrix, cfg LinkMetricConfig) (*LinkMetricSet, error) {
	return netmeas.LinkMetrics(topo, od, cfg)
}

// StackMatrices column-stacks equal-row matrices — the layout the
// multi-flow backend consumes for history and measurement batches.
func StackMatrices(ms ...*Matrix) (*Matrix, error) {
	return netmeas.StackMatrices(ms...)
}

// MultiFlowCandidates builds the candidate sets for multi-flow anomaly
// identification (Section 7.2): one candidate per destination PoP,
// containing all flows converging on it — the natural hypothesis set for
// DDoS-style anomalies.
func MultiFlowCandidates(topo *Topology) [][]int {
	p := topo.NumPoPs()
	out := make([][]int, p)
	for dst := 0; dst < p; dst++ {
		for org := 0; org < p; org++ {
			if org == dst {
				continue
			}
			out[dst] = append(out[dst], topo.FlowID(org, dst))
		}
	}
	return out
}
