package core

import "sync"

// RefitGate is the refit policy every streaming backend runs its model
// rebuilds under — the paper's online deployment (Section 7.1) refits
// only occasionally, because the projector is stable week to week, and
// this is the one description of what "occasionally" means here:
//
//   - Cadence. ProcessBatch reports each batch with DueLocked; once
//     refitEvery bins have accumulated (0 disables automatic refits) the
//     gate claims a background fit, unless one is already in flight —
//     then the interval is skipped, never queued.
//   - Single flight. At most one fit holds the gate, from the moment its
//     inputs are captured to the moment its result is committed, so two
//     fits never run concurrently and a fit on an older snapshot can
//     never overwrite a newer model. Explicit fits (Run) and state
//     transfer (Quiesced) wait an in-flight fit out instead of skipping.
//   - Two run shapes. Go runs a claimed Refit on a background goroutine —
//     the only goroutine any backend starts — and parks its error for a
//     later ProcessBatch or TakeRefitError to report, since nobody is
//     waiting for it. Run captures and runs a Refit synchronously and
//     returns the error to the caller. Either way the fit itself runs
//     outside the backend's mutex (detection never blocks on fitting), a
//     failed fit leaves the previous model in force, and a committed one
//     counts as a completed refit.
//
// The gate borrows the backend's own mutex: the in-flight flag and the
// cadence counter must change under the same lock that guards the window
// or covariance estimate the fit snapshots, so the gate cannot own a lock
// of its own.
type RefitGate struct {
	mu     *sync.Mutex
	done   *sync.Cond
	active bool
	err    error

	refitEvery int
	sinceRefit int
	refits     int
	refitHook  func()
}

// Refit is one model fit. It runs outside the backend's mutex on inputs
// captured earlier and returns commit, which the gate then runs under the
// mutex to install the result; commit reports whether it replaced the
// active model (a drift-gated fit may decline to).
type Refit func() (commit func() bool, err error)

// NewRefitGate returns a gate serialized by the backend's own mutex that
// claims a background fit every refitEvery processed bins (0: never).
func NewRefitGate(mu *sync.Mutex, refitEvery int) *RefitGate {
	return &RefitGate{mu: mu, done: sync.NewCond(mu), refitEvery: refitEvery}
}

// SetHook installs a function that runs on the background goroutine
// before every automatic fit; tests use it to hold a refit open. Call
// before streaming starts.
func (g *RefitGate) SetHook(h func()) { g.refitHook = h }

// DueLocked advances the cadence by n processed bins and reports whether
// the caller must now capture a Refit and hand it to Go: the interval has
// elapsed, the backend is ready to be fitted, and no fit is in flight.
// A true result has claimed the gate. Callers hold the mutex.
func (g *RefitGate) DueLocked(n int, ready bool) bool {
	if g.refitEvery <= 0 {
		return false
	}
	g.sinceRefit += n
	if g.sinceRefit < g.refitEvery || !ready || g.active {
		return false
	}
	g.active, g.sinceRefit = true, 0
	return true
}

// Go runs a fit claimed by DueLocked in the background.
func (g *RefitGate) Go(fit Refit) {
	go func() {
		if g.refitHook != nil {
			g.refitHook()
		}
		g.finish(fit, true)
	}()
}

// Run waits out any fit in flight, claims the gate, calls capture under
// the mutex to snapshot the fit's inputs, and runs the returned Refit on
// the calling goroutine.
func (g *RefitGate) Run(capture func() Refit) error {
	g.mu.Lock()
	g.beginLocked()
	fit := capture()
	g.mu.Unlock()
	return g.finish(fit, false)
}

// finish runs a fit whose gate is already claimed, commits it, and
// releases the gate; park keeps a failure as the deferred error.
func (g *RefitGate) finish(fit Refit, park bool) error {
	commit, err := fit()
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.endLocked()
	if err == nil && (commit == nil || commit()) {
		g.refits++
	}
	if park && err != nil {
		g.err = err
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

// RestartLocked restarts the cadence; a Seed's commit calls it so the next
// interval is not spent refitting the history that was just fitted.
func (g *RefitGate) RestartLocked() { g.sinceRefit = 0 }

// RefitsLocked returns the number of committed fits. Callers hold the
// mutex.
func (g *RefitGate) RefitsLocked() int { return g.refits }

// EncodeLocked writes the gate's portable state: the cadence position
// and the completed-refit count.
func (g *RefitGate) EncodeLocked(sw *SnapshotWriter) {
	sw.Int(g.sinceRefit)
	sw.Int(g.refits)
}

// DecodeLocked reads what EncodeLocked wrote and returns the function
// that installs it, so a Restore can validate its whole payload before
// committing anything.
func (g *RefitGate) DecodeLocked(sr *SnapshotReader) (commit func()) {
	since, refits := sr.NonNegInt(), sr.NonNegInt()
	return func() { g.sinceRefit, g.refits = since, refits }
}

// Wait blocks until no fit is in flight. It does not prevent new fits
// from starting after it returns.
func (g *RefitGate) Wait() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.active {
		g.done.Wait()
	}
}

// TakeErrorLocked returns and clears the parked error of the last failed
// background fit, if any. Callers hold the mutex.
func (g *RefitGate) TakeErrorLocked() error {
	err := g.err
	g.err = nil
	return err
}

// TakeError is TakeErrorLocked for callers that do not hold the mutex:
// shutdown paths that stop processing and would otherwise never see the
// final refit's failure.
func (g *RefitGate) TakeError() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.TakeErrorLocked()
}
