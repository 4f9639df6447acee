package core

import "sync"

// RefitGate is the refit policy every streaming backend runs its model
// rebuilds under — the paper's online deployment (Section 7.1) refits
// only occasionally, because the projector is stable week to week, and
// this is the one description of what "occasionally" means here:
//
//   - Cadence. ProcessBatch reports each batch with DueLocked; once
//     refitEvery bins have accumulated (0 disables automatic refits) the
//     gate marks a refit due. The backend's Settle runs it, after the
//     batch's alarms are out; a backend whose caller does not settle
//     runs it at the start of its next ProcessBatch, before that batch
//     is tested. Either way every interval is fitted, on the same state,
//     so settling changes when a refit runs, never what it computes.
//   - Single flight. At most one fit holds the gate, from the moment its
//     inputs are captured to the moment its result is committed, so two
//     fits never run concurrently and a fit on an older snapshot can
//     never overwrite a newer model. A due refit and an explicit one
//     (Run) wait an in-flight fit out, and so does state transfer
//     (Quiesced).
//   - One run shape. Run and Settle capture a Refit under the mutex and
//     run it on the calling goroutine, outside the mutex, so Stats and
//     the lock-free detection paths never wait for a solve; a failed fit
//     leaves the previous model in force and returns its error, and a
//     committed one counts as a completed refit.
//
// The gate borrows the backend's own mutex: the due flag and the cadence
// counter must change under the same lock that guards the window or
// covariance estimate the fit snapshots, so the gate cannot own a lock
// of its own.
type RefitGate struct {
	mu     *sync.Mutex
	done   *sync.Cond
	active bool
	due    bool

	refitEvery int
	sinceRefit int
	refits     int
}

// Refit is one model fit. It runs outside the backend's mutex on inputs
// captured earlier and returns commit, which the gate then runs under the
// mutex to install the result; commit reports whether it replaced the
// active model (a drift-gated fit may decline to).
type Refit func() (commit func() bool, err error)

// NewRefitGate returns a gate serialized by the backend's own mutex that
// marks a refit due every refitEvery processed bins (0: never).
func NewRefitGate(mu *sync.Mutex, refitEvery int) *RefitGate {
	return &RefitGate{mu: mu, done: sync.NewCond(mu), refitEvery: refitEvery}
}

// DueLocked advances the cadence by n processed bins and marks a refit
// due once the interval has elapsed and the backend is ready to be
// fitted. The bins past the interval carry over, so the cadence keeps
// its phase when the batch size does not divide the interval: 48-bin
// batches under a 64-bin interval refit after bins 96, 144, 192, 288, ...
// — one refit per 64 bins on average. Callers hold the mutex.
func (g *RefitGate) DueLocked(n int, ready bool) {
	if g.refitEvery <= 0 {
		return
	}
	g.sinceRefit += n
	if g.sinceRefit >= g.refitEvery && ready {
		g.due = true
		g.sinceRefit %= g.refitEvery
	}
}

// Settle runs the refit DueLocked marked, if one is still due, through
// Run: capture is called under the mutex to snapshot the fit's inputs.
// It returns the fit's error, or nil when no refit was due.
func (g *RefitGate) Settle(capture func() Refit) error {
	g.mu.Lock()
	due := g.due
	g.mu.Unlock()
	if !due {
		return nil
	}
	return g.Run(func() Refit {
		if !g.due {
			return idle // a Seed or Restore restarted the cadence meanwhile
		}
		g.due = false
		return capture()
	})
}

// idle is the Refit of a Settle that finds nothing due: it commits
// nothing.
func idle() (func() bool, error) { return func() bool { return false }, nil }

// Run waits out any fit in flight, claims the gate, calls capture under
// the mutex to snapshot the fit's inputs, and runs the returned Refit on
// the calling goroutine.
func (g *RefitGate) Run(capture func() Refit) error {
	g.mu.Lock()
	g.beginLocked()
	fit := capture()
	g.mu.Unlock()
	commit, err := fit()
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.endLocked()
	if err == nil && (commit == nil || commit()) {
		g.refits++
	}
	return err
}

func (g *RefitGate) beginLocked() {
	for g.active {
		g.done.Wait()
	}
	g.active = true
}

func (g *RefitGate) endLocked() {
	g.active = false
	g.done.Broadcast()
}

// Quiesced runs f with the mutex held and the gate claimed — no fit in
// flight, none able to start — which is how Snapshot and Restore see or
// replace a model that is never half-swapped.
func (g *RefitGate) Quiesced(f func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.beginLocked()
	defer g.endLocked()
	return f()
}

// RestartLocked restarts the cadence and drops a refit still due; a
// Seed's commit calls it so the next interval is not spent refitting the
// history that was just fitted.
func (g *RefitGate) RestartLocked() { g.sinceRefit, g.due = 0, false }

// RefitsLocked returns the number of committed fits. Callers hold the
// mutex.
func (g *RefitGate) RefitsLocked() int { return g.refits }

// EncodeLocked writes the gate's portable state: the cadence position
// and the completed-refit count. Snapshots settle first, so no refit is
// due when it runs.
func (g *RefitGate) EncodeLocked(sw *SnapshotWriter) {
	sw.Int(g.sinceRefit)
	sw.Int(g.refits)
}

// DecodeLocked reads what EncodeLocked wrote and returns the function
// that installs it, so a Restore can validate its whole payload before
// committing anything.
func (g *RefitGate) DecodeLocked(sr *SnapshotReader) (commit func()) {
	since, refits := sr.NonNegInt(), sr.NonNegInt()
	return func() { g.sinceRefit, g.refits, g.due = since, refits, false }
}
