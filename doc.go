// Package netanomaly diagnoses network-wide traffic anomalies from link
// measurements using the PCA subspace method of Lakhina, Crovella and
// Diot, "Diagnosing Network-Wide Traffic Anomalies" (SIGCOMM 2004).
//
// The method separates the space of link traffic measurements into a
// normal subspace capturing the predictable, network-wide structure
// (diurnal cycles, weekly patterns) and an anomalous subspace containing
// the residual. Volume anomalies — sudden traffic changes in an
// origin-destination (OD) flow — barely perturb total traffic but stand
// out sharply in the residual. The library performs the paper's three
// diagnosis steps:
//
//   - Detection: flag timesteps whose squared prediction error exceeds
//     the Q-statistic threshold (Jackson & Mudholkar).
//   - Identification: choose the OD flow whose routing-matrix direction
//     best explains the residual.
//   - Quantification: estimate the anomalous byte count.
//
// # Quick start
//
//	topo := netanomaly.Abilene()
//	cfg := netanomaly.DefaultTrafficConfig(42)
//	od, _ := netanomaly.GenerateTraffic(topo, cfg)   // or load real data
//	links := netanomaly.LinkLoads(topo, od)
//	diag, _ := netanomaly.NewDiagnoser(links, topo, netanomaly.Options{})
//	for _, a := range diag.DiagnoseSeries(links) {
//	    fmt.Printf("bin %d: flow %s, ~%.0f bytes\n",
//	        a.Bin, topo.FlowName(a.Flow), a.Bytes)
//	}
//
// # Streaming and the concurrent engine
//
// Section 7.1 of the paper frames the subspace method as a first-level
// online monitor. Two layers serve that deployment:
//
// OnlineDetector is the single-stream primitive: it tests each arriving
// measurement against a model fitted on recent history. The active
// model lives behind an atomic pointer, so Process is lock-free with
// respect to model fitting; when the refit interval elapses a refit
// falls due, Settle (or else the next Process or ProcessBatch) solves it
// on a copy of the covariance estimate, and the new model is swapped in
// atomically. A failed refit keeps the previous model in force. The
// Monitor settles each view after its batch's alarms are out, so refits
// run between batches and a run repeats bit for bit. ProcessBatch pushes a whole bins x links block through
// the batched low-rank SPE kernel (O(m*rank) per bin instead of O(m^2)).
//
// Monitor (internal/engine, surfaced as NewMonitor/AddView) is the
// scale-out layer: one detector shard per registered traffic view
// (topology, vantage point, customer network), measurement batches
// fanned across a worker pool. Batches within a view are processed
// strictly in ingest order — sequence numbers match arrival — while
// different views run concurrently; a refit in one view never stalls
// ingestion in any view. Use Monitor when tracking several topologies or
// feeding one high-rate stream in batches; use OnlineDetector directly
// for a simple bin-by-bin loop. IngestStream consumes a live measurement
// channel (StreamMatrix, or any collector producing LinkMeasurement)
// and keeps the batched hot path hot for bin-at-a-time sources.
//
// The engine is load-safe: WithMaxPending bounds each view's queue,
// WithOverloadPolicy picks what a full queue does (OverloadBlock
// backpressure through IngestStream to the collector, OverloadDropOldest
// freshness under DoS-style surges, OverloadError shedding), and
// MonitorConfig.Workers fixes the size of the one worker pool every view
// shares. Monitor.Stats and Monitor.QueueStats report queue depth, drops
// and the pool size; see the "Operating under load" section of
// docs/BACKENDS.md for policy selection and sizing guidance.
//
//	mon := netanomaly.NewMonitor(netanomaly.MonitorConfig{
//	    RefitEvery: 1008,
//	    OnAlarm: func(a netanomaly.MonitorAlarm) {
//	        log.Printf("%s: bin %d flow %d ~%.0f bytes", a.View, a.Seq, a.Flow, a.Bytes)
//	    },
//	})
//	_ = netanomaly.AddView(mon, "backbone", history, topo)
//	_ = mon.Ingest("backbone", batch) // asynchronous; Flush() to drain
//
// # Detector backends
//
// The paper's method is a family, not one detector, and every member
// streams behind the same ViewDetector interface (Seed / ProcessBatch /
// Refit / Stats), so one Monitor can mix backends freely. AddView
// selects the implementation per view; docs/BACKENDS.md is the full
// selection guide (cost models, what each kind localizes, seed
// requirements, tuning knobs). One builder turns a kind and its view
// options into a detector for AddView, Restore, the scorecard and the
// benchmarks alike, so a restored or scored view is built exactly as a
// fresh one — seeded on history for AddView, and for Restore built from
// the topology and options alone and filled from the checkpoint, with
// no history read and no fit:
//
// The subspace family — DetectorSubspace, DetectorIncremental and
// DetectorSketch — is that one OnlineDetector with three interchangeable
// covariance estimators: a refit has to solve *some* estimate of the
// traffic covariance into P P^T, and the three kinds differ only in
// which. An estimator absorbs each batch minus its alarmed bins — the
// tracker and the sketch copy the rows aside and fold them into their
// covariance only once the batch's alarms are out (OnlineDetector.Settle,
// which the engine calls after delivering them) — hands out an
// independent copy of itself for a fit to solve outside the lock,
// solves it into a PCA and a rank, rebuilds itself from a seed history,
// and encodes/decodes its own state; numbering, alarmed-bin exclusion,
// the drift-gated swap, Stats and the snapshot framing are the
// detector's, and when and how a refit runs is core.RefitGate's, shared
// with every other backend.
//
//   - DetectorSubspace (default): the estimator is a sliding window of
//     raw bins, refitted through the window's centered m x m Gram and
//     re-resolving the rank each time. Pick it when you want the paper's
//     exact semantics, per-bin flow identification, and a window copy
//     per refit is acceptable.
//   - DetectorIncremental (WithLambda, WithDriftTolerance): maintains a
//     running mean/covariance with forgetting factor lambda instead of
//     a raw window — batch updates are rank-1, allocation-free and made
//     after the batch's alarms are delivered, and
//     a rebuild solves only the m x m eigenproblem, skipping the
//     window's Gram (see BenchmarkRefit), so it needs no
//     window copy and suits frequent refits. Lambda 1
//     reproduces the batch fit exactly (and flags the same bins as the
//     subspace backend on the same trace); 0.999 forgets with roughly a
//     one-week time constant at ten-minute bins — use it when traffic
//     drifts. WithDriftTolerance skips rebuild swaps while the residual
//     projector has moved less than the tolerance, exploiting the
//     paper's observation that P P^T is stable week to week.
//   - DetectorSketch (WithSketchSize, WithDriftTolerance): the estimator
//     is a Frequent-Directions sketch — O(ell*m) memory and an ell-sized
//     eigenproblem per rebuild, the cheapest refit in the family, for
//     very wide networks or near-continuous refresh. Its per-bin cost is
//     mostly the sketch's own upkeep (an ell x ell shrink every ell/2
//     bins), which runs after each batch's alarms are delivered.
//   - DetectorMultiscale: one subspace model per wavelet scale
//     (Section 7.3). Its three levels test 2-, 4- and 8-bin features;
//     the seed needs links * 2^3 bins at least, and detection lags by
//     up to 8 bins.
//     It catches sustained, slowly building anomalies that single-bin
//     detectors miss; alarms localize in time (Flow is -1), so pair it
//     with a subspace shard on the same view for identification.
//   - DetectorMultiFlow (WithMetrics): one subspace model per traffic
//     metric — bytes, IP-flow counts, mean packet size (Section 7.2) —
//     over shared routing, with history and batches column-stacked
//     (DeriveLinkMetrics / StackMatrices). It alarms when any metric
//     flags a bin, which is what catches port scans and small-flow
//     DDoS that move flow counts without moving bytes.
//   - DetectorEWMA / DetectorHoltWinters / DetectorFourier: the
//     paper's temporal forecasting baselines (Sections 6.2, 7.3),
//     streaming. Each link is forecast independently — incremental
//     EWMA (alpha grid-searched per link at seed) or level+trend
//     smoothing, or a sinusoid-basis fit refitted on a window
//     snapshot — and a link alarms when its residual exceeds an
//     adaptive threshold: mean + 6*sigma of its exponentially tracked
//     residuals, re-estimated from the retained window on every refit,
//     so thresholds follow the traffic level. Alarmed bins are withheld from forecaster state, which
//     suppresses the footnote-4 spike echo online. These are the
//     cheapest backends (no matrix pass for the smoothing kinds —
//     see BenchmarkForecastProcessBatch) and good per-link change
//     detectors, but they cannot identify the OD flow behind an alarm
//     (Diagnosis.Flow is -1) and their detection degrades as per-link
//     variability grows relative to anomaly size — the regime where
//     the subspace method's cross-link correlation wins (Section 7.3;
//     run examples/compare for the head-to-head on one scenario).
//   - DetectorHybrid: the triage→identification composition. An ewma
//     stage sees every bin at recursion cost and escalates every bin it
//     alarms to a windowed subspace stage that attributes the
//     responsible OD flow, so steady-state cost is forecast-level
//     (within ~1.1x on clean streams, BenchmarkHybridThroughput) while
//     alarms carry Flow and Bytes. The subspace stage is the view's own
//     windowed subspace detector: every bin but the escalated ones
//     enters its window, and it refits from that window of recent clean
//     bins on the refit cadence. This is the operating
//     point the paper's Section 6.2/7.3 trade points at: temporal
//     methods localize in time+link cheaply, the subspace method
//     identifies the flow — the hybrid does both.
//
// Everything is deterministic in the provided seeds and uses only the
// standard library. The subpackages under internal/ implement the
// substrates: dense linear algebra (internal/mat, with blocked and
// goroutine-parallel multiply kernels), scalar statistics
// (internal/stats), network topology and routing (internal/topology),
// the traffic model and its attack scenarios (internal/traffic), the
// measurement plane (SNMP-style link counters, derived link metrics and
// the binary wire format) with the multi-metric backend
// (internal/netmeas), offline temporal baselines (internal/timeseries)
// and their streaming detector forms (internal/forecast), the
// subspace method, the ViewDetector contract, the one streaming
// subspace detector with its three estimators and the refit policy
// (internal/core), the wavelet transform and the multiscale
// backend (internal/wavelet), construction of a backend from its kind
// name (internal/backend), the concurrent streaming engine
// (internal/engine), incident correlation (internal/incident), and the
// paper's full evaluation (internal/eval, internal/experiments).
package netanomaly
