// Package engine runs the paper's detector family as a concurrent
// streaming detection service. A Monitor owns one detector shard per
// traffic view (a topology, a vantage point, a customer network —
// anything with its own routing matrix and measurement stream) and fans
// measurement batches across a worker pool. A shard holds any
// core.ViewDetector — the windowed subspace method, the incremental
// covariance-tracking variant, the multiscale wavelet detector, the
// multi-metric voter, the forecast baselines, or the hybrid — so
// heterogeneous backends run side by side in one pool. Every backend is
// non-blocking by contract: detection inside a shard runs against an
// atomically swapped model, so a model refit in one view never stalls
// ingestion in any view. The batched hot path tests a whole bins x
// links block in one matrix pass, which is what makes the engine's
// per-bin cost a fraction of the serial per-vector loop.
//
// The engine is load-safe: per-view queues are bounded (Config.MaxPending)
// with a selectable overload policy — block the producer, drop the
// oldest queued batch, or fail the ingest — so a DoS-style burst on one
// view cannot balloon memory while other shards idle. The worker pool
// has a fixed size, Config.Workers; per-view FIFO holds at any size
// because a shard is only ever owned by one worker at a time.
//
// The Monitor is the scale-out layer the ROADMAP's "first-level online
// monitor" needs; for a single stream with no fan-out requirements, a
// core.ViewDetector alone is simpler.
package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"netanomaly/internal/core"
	"netanomaly/internal/mat"
	"netanomaly/internal/netmeas"
)

// ErrOverloaded is returned (wrapped, with the view name) by Ingest and
// IngestStream when a view's queue is full and the monitor runs the
// OverloadError policy. Test for it with errors.Is.
var ErrOverloaded = errors.New("view queue full")

// OverloadPolicy selects what Ingest does with a new batch when a
// view's queue already holds Config.MaxPending bins.
type OverloadPolicy int

const (
	// OverloadBlock (the default) blocks the ingesting goroutine until
	// workers drain enough queued bins — classic backpressure: a
	// too-fast producer is slowed to the service rate, and nothing is
	// lost. With IngestStream the blocking propagates to the
	// measurement channel, and from there to the collector feeding it.
	OverloadBlock OverloadPolicy = iota
	// OverloadDropOldest evicts the oldest queued batches until the new
	// one fits, preferring fresh data under sustained overload — the
	// right policy for live monitoring, where a stale bin's alarm is
	// worth less than keeping up with the present. Dropped bins are
	// never processed and raise no alarms, but they keep their place in
	// the stream's numbering: every queued chunk is tagged with the
	// stream offset of its first accepted bin, and alarm Seq/Bin are
	// rebased to that offset at processing time, so an alarm's Seq is
	// the bin's true position among the bins the view accepted even
	// after drops. Drops are counted in QueueStats.
	OverloadDropOldest
	// OverloadError rejects the batch: Ingest stops enqueueing and
	// returns ErrOverloaded, leaving already-queued work untouched.
	// Chunks of the batch admitted before the queue filled stay
	// queued; the error reports how many bins were rejected. The
	// caller decides whether to retry, shed, or fail.
	OverloadError
)

// String returns the policy's flag-style name.
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadDropOldest:
		return "dropoldest"
	case OverloadError:
		return "error"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// ParseOverloadPolicy maps a flag-style name ("block", "dropoldest",
// "error") to its policy.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "block", "":
		return OverloadBlock, nil
	case "dropoldest", "drop-oldest":
		return OverloadDropOldest, nil
	case "error":
		return OverloadError, nil
	default:
		return 0, fmt.Errorf("engine: unknown overload policy %q (want block, dropoldest, or error)", s)
	}
}

// Config parameterizes a Monitor. The zero value is usable: defaults are
// filled in by NewMonitor.
type Config struct {
	// Workers is the size of the processing pool, fixed for the
	// monitor's life; default GOMAXPROCS.
	Workers int
	// BatchSize is the number of bins per dispatched job: Ingest splits
	// larger batches into BatchSize chunks so one bulky view cannot
	// monopolize the pool. Default 64.
	BatchSize int
	// MaxPending bounds each view's queue of unprocessed bins; 0 means
	// unbounded (the pre-backpressure behavior). When a new chunk would
	// push a view past the bound, the Overload policy decides what
	// happens. A chunk larger than MaxPending is admitted alone into an
	// empty queue, so MaxPending < BatchSize degrades to
	// one-chunk-at-a-time rather than wedging. A view's memory is
	// bounded by MaxPending queued bins plus one chunk in flight.
	MaxPending int
	// Overload selects the full-queue behavior; default OverloadBlock.
	Overload OverloadPolicy
	// Window, RefitEvery and Options are the per-view detector defaults
	// that whoever builds this monitor's detectors applies (the root
	// package's AddView and Restore do); the engine only carries them.
	//
	// Window is the per-shard sliding window, in bins (the paper fits on
	// 1008); 0 uses each view's full seeding history.
	Window int
	// RefitEvery triggers a background model refit in a shard after this
	// many processed bins; 0 disables automatic refits.
	RefitEvery int
	// Options configure each shard's diagnoser.
	Options core.Options
	// OnAlarm, when set, is invoked for every raised alarm, possibly
	// concurrently from multiple workers. When nil, alarms accumulate
	// internally and are retrieved with TakeAlarms.
	OnAlarm func(Alarm)
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.MaxPending < 0 {
		c.MaxPending = 0
	}
}

// Alarm is a diagnosed anomaly tagged with the view that raised it. Seq
// is the per-view measurement sequence number assigned at processing
// time.
type Alarm struct {
	View string
	core.Alarm
}

// QueueStats is one view's ingest-queue accounting. At quiescence (after
// Flush or Close) the counters reconcile with the detector:
// EnqueuedBins - DroppedBins == ViewStats.Processed + QueuedBins, and
// bins rejected by OverloadError were never enqueued at all.
type QueueStats struct {
	// QueuedBins / QueuedBatches are the work currently waiting (a chunk
	// handed to the detector has already left the queue).
	QueuedBins    int
	QueuedBatches int
	// DepthHighWater is the most bins the queue has ever held at once —
	// how close the view came to its MaxPending bound.
	DepthHighWater int
	// EnqueuedBins counts every bin accepted into the queue.
	EnqueuedBins int64
	// DroppedBins / DroppedBatches count work evicted by
	// OverloadDropOldest.
	DroppedBins    int64
	DroppedBatches int64
	// RejectedBins counts bins refused by OverloadError.
	RejectedBins int64
	// DeliveredBins is the stream offset (drops included, the numbering
	// alarm Seqs use) one past the last queued bin whose alarms have all
	// been handed to OnAlarm or the TakeAlarms buffer. It trails the
	// detector's processed count while a batch's alarms are still being
	// emitted, so a clock advanced to DeliveredBins-1 — the incident
	// correlator's — never passes an alarm yet to arrive. Batches run
	// through the synchronous ProcessBatch do not move it.
	DeliveredBins int64
}

// Stats is a point-in-time snapshot of the monitor's load state: pool
// size, its high-water mark, and the queue counters summed over views.
type Stats struct {
	// Workers is the live pool size: Config.Workers until Close, 0
	// after. WorkersHighWater is the largest size the pool has reached,
	// which is Config.Workers.
	Workers          int
	WorkersHighWater int
	// Queue counters aggregated across every view; see QueueStats.
	QueuedBins     int
	QueuedBatches  int
	EnqueuedBins   int64
	DroppedBins    int64
	DroppedBatches int64
	RejectedBins   int64
}

// releaser is the slice of the pooled-buffer contract the queue needs:
// whoever consumes or evicts a queued chunk backed by a recycled buffer
// returns the buffer with exactly one Release call.
type releaser interface{ Release() }

// queued is one admitted chunk: its bins, the stream offset of its
// first bin among everything the view has accepted (drops included),
// and the pooled buffer to release once the chunk is processed or
// evicted (nil for caller-owned batches).
type queued struct {
	m    *mat.Dense
	base int64
	rel  releaser
}

// shard is one view's detector, its FIFO of queued batches, and its
// deferred-error log. A shard's batches are processed strictly in queue
// order by whichever worker owns the shard at the moment, so per-view
// sequence numbers always match arrival order; parallelism comes from
// different shards running on different workers. Ownership, not worker
// identity, serializes a shard, so the invariant holds at any pool size.
type shard struct {
	name  string
	links int
	det   core.ViewDetector

	// poolMu guards pools, the shard's cached FrameBatch pools keyed by
	// batch capacity. IngestBinary looks one up once per stream, so
	// reconnecting collectors recycle warm buffers instead of growing a
	// fresh pool per connection.
	poolMu sync.Mutex
	pools  map[int]*netmeas.FrameBatchPool

	// procMu serializes detector ProcessBatch calls between the owning
	// worker and synchronous Monitor.ProcessBatch, upholding the
	// one-ProcessBatch-caller-at-a-time guarantee the ViewDetector
	// contract promises backends even when a user mixes Ingest and
	// ProcessBatch on one view.
	procMu sync.Mutex

	qmu             sync.Mutex
	space           *sync.Cond // signaled when queued bins shrink; Block-policy waiters sleep here
	queue           []queued
	queuedBins      int
	queuedHighWater int  // most bins ever simultaneously queued
	owned           bool // a worker currently holds this shard

	enqueuedBins   int64
	droppedBins    int64
	droppedBatches int64
	rejectedBins   int64

	// delivered backs QueueStats.DeliveredBins: the owning worker
	// stores it once per batch, after the batch's last alarm is emitted.
	delivered atomic.Int64

	errMu sync.Mutex
	errs  []error
}

// batchPool returns the shard's FrameBatch pool for the capacity,
// creating it on first use.
func (s *shard) batchPool(bins int) *netmeas.FrameBatchPool {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	p, ok := s.pools[bins]
	if !ok {
		p = netmeas.NewFrameBatchPool(bins, s.links)
		if s.pools == nil {
			s.pools = make(map[int]*netmeas.FrameBatchPool, 1)
		}
		s.pools[bins] = p
	}
	return p
}

func (s *shard) recordErr(err error) {
	s.errMu.Lock()
	s.errs = append(s.errs, fmt.Errorf("engine: view %q: %w", s.name, err))
	s.errMu.Unlock()
}

// Monitor is a sharded, batched streaming detection engine. Create one
// with NewMonitor, register views with AddDetectorView, feed
// measurement batches with Ingest (asynchronous) or ProcessBatch
// (synchronous), and stop it with Close.
type Monitor struct {
	cfg Config

	// ingestMu holds Ingest's closed-check and enqueue together: Ingest
	// runs under the read side, Close flips the closed flag under the
	// write side, so a batch is either fully enqueued before Close
	// starts draining (and is therefore processed — no lost alarms) or
	// fails cleanly with a closed error. This is what makes Close safe
	// to call concurrently with Ingest and IngestStream.
	ingestMu sync.RWMutex

	mu     sync.Mutex
	shards map[string]*shard
	closed bool

	// ready holds shards with queued work that no worker owns yet;
	// workers round-robin over it (one batch per turn) so a busy view
	// cannot starve the others. The same mutex guards stopping and the
	// live worker count.
	dispatchMu  sync.Mutex
	dispatch    *sync.Cond
	ready       []*shard
	stopping    bool
	liveWorkers int

	workers sync.WaitGroup

	// pending counts queued-but-unprocessed batches. A mutex+cond pair
	// rather than a WaitGroup: Ingest may add while Flush waits, which
	// the WaitGroup contract forbids (Add on a zero counter concurrent
	// with Wait) but a cond handles naturally.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pendN    int

	alarmMu sync.Mutex
	alarms  []Alarm
}

func (m *Monitor) addPending(n int) {
	m.pendMu.Lock()
	m.pendN += n
	m.pendMu.Unlock()
}

func (m *Monitor) donePending() {
	m.pendMu.Lock()
	m.pendN--
	if m.pendN == 0 {
		m.pendCond.Broadcast()
	}
	m.pendMu.Unlock()
}

func (m *Monitor) waitPending() {
	m.pendMu.Lock()
	for m.pendN > 0 {
		m.pendCond.Wait()
	}
	m.pendMu.Unlock()
}

// Config returns the monitor's effective configuration (defaults filled
// in), so backend factories outside this package can seed detectors
// with the same window, refit cadence and diagnosis options the default
// subspace shards get.
func (m *Monitor) Config() Config { return m.cfg }

// NewMonitor starts a pool of cfg.Workers workers and returns an empty
// Monitor.
func NewMonitor(cfg Config) *Monitor {
	cfg.fillDefaults()
	m := &Monitor{
		cfg:         cfg,
		shards:      make(map[string]*shard),
		liveWorkers: cfg.Workers,
	}
	m.dispatch = sync.NewCond(&m.dispatchMu)
	m.pendCond = sync.NewCond(&m.pendMu)
	m.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

func (m *Monitor) worker() {
	defer m.workers.Done()
	for {
		m.dispatchMu.Lock()
		for {
			if m.stopping && len(m.ready) == 0 {
				m.liveWorkers--
				m.dispatchMu.Unlock()
				return
			}
			if len(m.ready) > 0 {
				break
			}
			m.dispatch.Wait()
		}
		s := m.ready[0]
		// Compact instead of advancing the slice header: the dispatch
		// list is short (at most one entry per shard), and keeping the
		// slice anchored at the front of its backing array lets
		// readyShard's append reuse it indefinitely — an advancing
		// header forces a fresh allocation every time append runs off
		// the array's end.
		n := copy(m.ready, m.ready[1:])
		m.ready[n] = nil
		m.ready = m.ready[:n]
		m.dispatchMu.Unlock()

		s.qmu.Lock()
		if len(s.queue) == 0 {
			s.owned = false
			// Ownership released with nothing queued: wake quiesce
			// waiters (CheckpointView) along with Block producers.
			s.space.Broadcast()
			s.qmu.Unlock()
			continue
		}
		batch := s.queue[0]
		batchEnd := batch.base + int64(batch.m.Rows())
		// Compact and zero the vacated tail slot: zeroing keeps the
		// processed batch unreachable (the per-view memory bound), and
		// compacting keeps the slice anchored at the front of its
		// backing array so enqueue's append reuses it instead of
		// reallocating — this pop runs once per batch on the hot path,
		// and the queue is at most MaxPending/BatchSize entries, so the
		// copy is a few words.
		qn := copy(s.queue, s.queue[1:])
		s.queue[qn] = queued{}
		s.queue = s.queue[:qn]
		s.queuedBins -= batch.m.Rows()
		// Space opened up: wake Block-policy producers.
		s.space.Broadcast()
		s.qmu.Unlock()

		s.procMu.Lock()
		processedBefore := s.det.Stats().Processed
		alarms, err := s.det.ProcessBatch(batch.m)
		s.procMu.Unlock()
		if batch.rel != nil {
			batch.rel.Release()
		}
		if err != nil {
			s.recordErr(err)
		}
		// Rebase alarm numbering onto the ingest stream: the detector
		// numbers only the bins it saw, so after DropOldest evictions
		// its Seq undercounts the true stream offset by the bins
		// dropped so far. The chunk's tagged base restores them.
		if delta := int(batch.base) - processedBefore; delta > 0 {
			for i := range alarms {
				alarms[i].Seq += delta
				alarms[i].Bin += delta
			}
		}
		for _, a := range alarms {
			m.emit(Alarm{View: s.name, Alarm: a})
		}
		s.delivered.Store(batchEnd)
		// The alarms are out: now do the model upkeep the detector put
		// off, still while this worker owns the shard.
		if st, ok := s.det.(settler); ok {
			s.procMu.Lock()
			err := st.Settle()
			s.procMu.Unlock()
			if err != nil {
				s.recordErr(err)
			}
		}

		// Hand the shard back: re-ready it if more batches arrived,
		// otherwise release ownership so the next Ingest re-readies it.
		s.qmu.Lock()
		more := len(s.queue) > 0
		if !more {
			s.owned = false
			// The shard went idle: wake quiesce waiters (CheckpointView).
			s.space.Broadcast()
		}
		s.qmu.Unlock()
		if more {
			m.readyShard(s)
		}
		m.donePending()
	}
}

// settler is a detector that can defer part of ProcessBatch's model
// upkeep until its alarms are delivered (core.OnlineDetector's
// covariance fold). The worker calls Settle after a batch's last alarm
// is emitted and before it hands the shard back.
type settler interface {
	Settle() error
}

// readyShard puts an owned shard (back) on the dispatch list and wakes a
// worker.
func (m *Monitor) readyShard(s *shard) {
	m.dispatchMu.Lock()
	m.ready = append(m.ready, s)
	m.dispatch.Signal()
	m.dispatchMu.Unlock()
}

func (m *Monitor) emit(a Alarm) {
	if m.cfg.OnAlarm != nil {
		m.cfg.OnAlarm(a)
		return
	}
	m.alarmMu.Lock()
	m.alarms = append(m.alarms, a)
	m.alarmMu.Unlock()
}

// AddDetectorView registers a shard running an arbitrary streaming
// backend — every detector kind in the family satisfies
// core.ViewDetector, and one Monitor can mix them freely. The detector
// must be seeded, or restored through RestoreView before the view's
// first ingest; its Stats().Links fixes the batch width the view
// accepts.
func (m *Monitor) AddDetectorView(name string, det core.ViewDetector) error {
	links := det.Stats().Links
	if links <= 0 {
		return fmt.Errorf("engine: view %q: detector reports %d links", name, links)
	}
	// enqueue's policy switch has no default case: an unknown policy
	// would admit every chunk and leave the queue unbounded.
	if p := m.cfg.Overload; p < OverloadBlock || p > OverloadError {
		return fmt.Errorf("engine: view %q: unknown overload policy %d", name, p)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("engine: monitor is closed")
	}
	if _, dup := m.shards[name]; dup {
		return fmt.Errorf("engine: duplicate view %q", name)
	}
	s := &shard{name: name, links: links, det: det}
	s.space = sync.NewCond(&s.qmu)
	m.shards[name] = s
	return nil
}

// Ingest queues a measurement batch (bins x links) for the view,
// splitting it into BatchSize chunks, and returns without waiting for
// processing. Chunks of one view are processed strictly in ingest order
// (sequence numbers match arrival order); chunks of different views run
// concurrently across the worker pool. The batch's rows are copied into
// the window as they are processed; the caller must not mutate the batch
// until Flush (or Close) returns.
//
// When MaxPending bounds the view's queue, a full queue engages the
// Overload policy per chunk: OverloadBlock waits for workers to drain
// space (backpressure), OverloadDropOldest evicts the oldest queued
// chunks to make room, and OverloadError returns ErrOverloaded without
// queueing the remaining chunks. Once Ingest has accepted a view (the
// monitor was open at entry), a concurrent Close waits for the call to
// finish and then drains everything it enqueued.
//
// With no bound a call's chunks are appended atomically, so concurrent
// Ingest calls to one view never interleave each other's chunks. With a
// bound, admission is necessarily per chunk (Block must release the
// queue while it waits), so two concurrent calls to the same view may
// interleave at chunk granularity — run one producer per view (the
// IngestStream pattern) when cross-call ordering matters.
func (m *Monitor) Ingest(view string, batch *mat.Dense) error {
	m.ingestMu.RLock()
	defer m.ingestMu.RUnlock()
	s, err := m.lookup(view)
	if err != nil {
		return err
	}
	bins, cols := batch.Dims()
	if cols != s.links {
		return fmt.Errorf("engine: view %q: batch has %d links, want %d", view, cols, s.links)
	}
	data := batch.RawData()
	var chunks []*mat.Dense
	for r0 := 0; r0 < bins; r0 += m.cfg.BatchSize {
		r1 := r0 + m.cfg.BatchSize
		if r1 > bins {
			r1 = bins
		}
		chunks = append(chunks, mat.NewDense(r1-r0, cols, data[r0*cols:r1*cols]))
	}
	if len(chunks) == 0 {
		return nil
	}
	if m.cfg.MaxPending <= 0 {
		m.addPending(len(chunks))
		s.qmu.Lock()
		base := s.enqueuedBins
		for _, c := range chunks {
			s.queue = append(s.queue, queued{m: c, base: base})
			base += int64(c.Rows())
		}
		s.queuedBins += bins
		if s.queuedBins > s.queuedHighWater {
			s.queuedHighWater = s.queuedBins
		}
		s.enqueuedBins += int64(bins)
		wake := !s.owned
		if wake {
			s.owned = true
		}
		s.qmu.Unlock()
		if wake {
			m.readyShard(s)
		}
		return nil
	}
	for ci, chunk := range chunks {
		if err := m.enqueue(s, chunk, nil); err != nil {
			rejected := bins - ci*m.cfg.BatchSize
			s.qmu.Lock()
			s.rejectedBins += int64(rejected)
			s.qmu.Unlock()
			return fmt.Errorf("engine: view %q: %d of %d bins rejected: %w", view, rejected, bins, err)
		}
	}
	return nil
}

// enqueue admits one chunk to the shard's queue under the overload
// policy and wakes a worker. A chunk is admitted when it fits under
// MaxPending or the queue is empty (so an oversized chunk passes alone
// instead of wedging). rel, when non-nil, is the pooled buffer backing
// the chunk; ownership transfers to the queue on success (released by
// the worker after processing, or here on eviction).
func (m *Monitor) enqueue(s *shard, chunk *mat.Dense, rel releaser) error {
	chunkBins := chunk.Rows()
	m.addPending(1)
	s.qmu.Lock()
	if max := m.cfg.MaxPending; max > 0 {
		switch m.cfg.Overload {
		case OverloadBlock:
			for s.queuedBins > 0 && s.queuedBins+chunkBins > max {
				s.space.Wait()
			}
		case OverloadDropOldest:
			for len(s.queue) > 0 && s.queuedBins+chunkBins > max {
				old := s.queue[0]
				// Compact like the worker's pop: zero the vacated tail
				// slot so the evicted batch is collectable, keep the
				// array anchored for allocation-free re-append.
				nq := copy(s.queue, s.queue[1:])
				s.queue[nq] = queued{}
				s.queue = s.queue[:nq]
				s.queuedBins -= old.m.Rows()
				s.droppedBins += int64(old.m.Rows())
				s.droppedBatches++
				if old.rel != nil {
					old.rel.Release()
				}
				m.donePending()
			}
		case OverloadError:
			if s.queuedBins > 0 && s.queuedBins+chunkBins > max {
				s.qmu.Unlock()
				m.donePending()
				return ErrOverloaded
			}
		}
	}
	s.queue = append(s.queue, queued{m: chunk, base: s.enqueuedBins, rel: rel})
	s.queuedBins += chunkBins
	if s.queuedBins > s.queuedHighWater {
		s.queuedHighWater = s.queuedBins
	}
	s.enqueuedBins += int64(chunkBins)
	wake := !s.owned
	if wake {
		s.owned = true
	}
	s.qmu.Unlock()
	if wake {
		m.readyShard(s)
	}
	return nil
}

// IngestStream consumes a live measurement channel (as produced by
// netmeas.Stream) and feeds the view until the channel closes,
// accumulating arrivals into BatchSize blocks so the batched hot path
// stays hot even for bin-at-a-time sources. It blocks the calling
// goroutine for the life of the stream — run one IngestStream goroutine
// per source — and returns after the final partial batch is queued, or
// on the first error (mis-sized measurement, monitor closed, a full
// queue under OverloadError); on error the caller should cancel the
// context driving the stream so the producer goroutine does not block
// forever on an undrained channel. Under OverloadBlock a full queue
// stalls the channel reads instead — bounded backpressure all the way
// to the collector. Like Ingest, it queues work asynchronously: call
// Flush to wait for processing.
func (m *Monitor) IngestStream(view string, ch <-chan netmeas.LinkMeasurement) error {
	m.ingestMu.RLock()
	s, err := m.lookup(view)
	m.ingestMu.RUnlock()
	if err != nil {
		return err
	}
	batch := m.cfg.BatchSize
	buf := mat.Zeros(batch, s.links)
	rows := 0
	flush := func() error {
		if rows == 0 {
			return nil
		}
		chunk := mat.NewDense(rows, s.links, buf.RawData()[:rows*s.links])
		rows = 0
		// The queue aliases ingested batches until processed, so each
		// flushed chunk needs its own backing array.
		buf = mat.Zeros(batch, s.links)
		return m.Ingest(view, chunk)
	}
	for meas := range ch {
		if len(meas.Loads) != s.links {
			err := fmt.Errorf("engine: view %q: stream measurement has %d links, want %d", view, len(meas.Loads), s.links)
			if ferr := flush(); ferr != nil {
				// Both failures matter: the mis-sized measurement is the
				// root cause the caller must fix, the flush failure says
				// the buffered bins before it were lost too.
				return errors.Join(err, ferr)
			}
			return err
		}
		buf.SetRow(rows, meas.Loads)
		rows++
		if rows == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// IngestBinary feeds a whole binary measurement stream (as framed by
// netmeas.WriteMatrixBinary / cmd/trafficgen -format=binary) into the
// view, decoding directly into pooled batch buffers: at steady state
// the hot loop performs no per-bin heap allocation — buffers cycle
// between the decoder and the consuming shard through a sync.Pool. It
// blocks for the life of the stream (run one goroutine per source,
// like IngestStream) and returns after the final partial batch is
// queued, on the first decode error, or when the monitor is closed
// mid-stream. Like Ingest, it queues work asynchronously: call Flush
// to wait for processing.
func (m *Monitor) IngestBinary(view string, dec *netmeas.BinaryDecoder) error {
	m.ingestMu.RLock()
	s, err := m.lookup(view)
	m.ingestMu.RUnlock()
	if err != nil {
		return err
	}
	if dec.Links() != s.links {
		return fmt.Errorf("engine: view %q: binary stream has %d links, want %d", view, dec.Links(), s.links)
	}
	// Size the batches so a whole v2 batch frame decodes straight into
	// one pooled buffer, and cache the pool on the shard: a per-stream
	// pool would cost a fresh warm-up of buffer allocations on every
	// collector reconnect (the residual allocs/bin PR 6 measured).
	bins := m.cfg.BatchSize
	if b := dec.BatchBins(); b > bins {
		bins = b
	}
	return m.ingestBinaryPooled(s, dec, s.batchPool(bins))
}

// ingestBinaryPooled is IngestBinary's loop with an injectable pool so
// lifecycle tests can count Get/Release pairs. Buffer ownership is
// release-exactly-once: a batch admitted to the queue is released by
// the worker that processes it or by the DropOldest eviction path; a
// batch that never makes it into the queue (decode returned no rows,
// admission failed, monitor closed) is released here.
func (m *Monitor) ingestBinaryPooled(s *shard, dec *netmeas.BinaryDecoder, pool *netmeas.FrameBatchPool) error {
	for {
		fb := pool.Get()
		rows, derr := dec.ReadBatch(fb)
		if rows == 0 {
			fb.Release()
			if derr == nil || derr == io.EOF {
				return nil
			}
			return fmt.Errorf("engine: view %q: %w", s.name, derr)
		}
		chunk := fb.Rows(rows)
		// Re-check closed per chunk under ingestMu, mirroring the
		// Ingest-per-flush pattern of IngestStream: a batch is either
		// fully enqueued before Close starts draining or refused here.
		m.ingestMu.RLock()
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		var qerr error
		if closed {
			qerr = errors.New("monitor is closed")
		} else {
			qerr = m.enqueue(s, chunk, fb)
		}
		m.ingestMu.RUnlock()
		if qerr != nil {
			fb.Release()
			return fmt.Errorf("engine: view %q: %w", s.name, qerr)
		}
		if derr != nil {
			if derr == io.EOF {
				return nil
			}
			return fmt.Errorf("engine: view %q: %w", s.name, derr)
		}
	}
}

// ProcessBatch runs a batch through the view's shard synchronously on
// the caller's goroutine (bypassing the queue and its MaxPending bound —
// it may jump ahead of batches still queued by Ingest, though it never
// interleaves with them mid-batch) and returns the raised alarms, which
// are also delivered to OnAlarm/TakeAlarms. The batch's alarms are
// returned even when err is non-nil: the detector reports deferred
// background-refit failures alongside valid detections, and dropping
// the detections would lose real anomalies.
func (m *Monitor) ProcessBatch(view string, batch *mat.Dense) ([]Alarm, error) {
	s, err := m.lookup(view)
	if err != nil {
		return nil, err
	}
	s.procMu.Lock()
	raw, err := s.det.ProcessBatch(batch)
	s.procMu.Unlock()
	out := make([]Alarm, len(raw))
	for i, a := range raw {
		out[i] = Alarm{View: view, Alarm: a}
		m.emit(out[i])
	}
	if err != nil {
		err = fmt.Errorf("engine: view %q: %w", view, err)
	}
	return out, err
}

func (m *Monitor) lookup(view string) (*shard, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("engine: monitor is closed")
	}
	s, ok := m.shards[view]
	if !ok {
		return nil, fmt.Errorf("engine: unknown view %q", view)
	}
	return s, nil
}

// lookupAny resolves a view whether or not the monitor is closed — for
// read-only statistics, which remain meaningful (and are often wanted)
// after Close.
func (m *Monitor) lookupAny(view string) (*shard, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.shards[view]
	if !ok {
		return nil, fmt.Errorf("engine: unknown view %q", view)
	}
	return s, nil
}

// snapshotShards returns the current shard set under the monitor lock.
func (m *Monitor) snapshotShards() []*shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	shards := make([]*shard, 0, len(m.shards))
	for _, s := range m.shards {
		shards = append(shards, s)
	}
	return shards
}

// drainRefits waits out every in-flight background refit. It must run
// only after the queued work that could spawn refits has been processed
// (waitPending), so no new fit can start between the per-shard waits.
func (m *Monitor) drainRefits() {
	for _, s := range m.snapshotShards() {
		s.det.WaitRefits()
	}
}

// Flush blocks until every queued batch has been processed and every
// background refit launched so far has completed. Ingest may continue
// from other goroutines, in which case Flush covers at least the work
// queued before the call.
func (m *Monitor) Flush() {
	m.waitPending()
	m.drainRefits()
}

// TakeAlarms returns the alarms accumulated since the last call and
// clears the buffer. Only used when Config.OnAlarm is nil.
func (m *Monitor) TakeAlarms() []Alarm {
	m.alarmMu.Lock()
	out := m.alarms
	m.alarms = nil
	m.alarmMu.Unlock()
	return out
}

// Errs returns every deferred error recorded so far (failed background
// refits, mis-sized batches discovered at processing time), oldest
// first. It also harvests any refit failure still parked inside a
// detector — e.g. one triggered by the final batch, which no later
// Process call would ever surface — so call it after Flush or Close to
// get the complete picture.
func (m *Monitor) Errs() []error {
	var out []error
	for _, s := range m.snapshotShards() {
		if err := s.det.TakeRefitError(); err != nil {
			s.recordErr(err)
		}
		s.errMu.Lock()
		out = append(out, s.errs...)
		s.errMu.Unlock()
	}
	return out
}

// Views returns the registered view names, in no particular order.
func (m *Monitor) Views() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.shards))
	for name := range m.shards {
		out = append(out, name)
	}
	return out
}

// Detector returns a view's underlying streaming detector (for
// inspecting processed counts, triggering explicit refits, or
// type-asserting to a concrete backend for model access).
func (m *Monitor) Detector(view string) (core.ViewDetector, error) {
	s, err := m.lookup(view)
	if err != nil {
		return nil, err
	}
	return s.det, nil
}

// ViewStats reports a view's backend kind, processed-bin count, model
// rank and completed refits. It keeps working after Close, so
// post-shutdown accounting can reconcile against QueueStats.
func (m *Monitor) ViewStats(view string) (core.ViewStats, error) {
	s, err := m.lookupAny(view)
	if err != nil {
		return core.ViewStats{}, err
	}
	return s.det.Stats(), nil
}

// QueueStats reports a view's ingest-queue accounting: current depth,
// total accepted bins, and the bins lost to the overload policy. It
// keeps working after Close.
func (m *Monitor) QueueStats(view string) (QueueStats, error) {
	s, err := m.lookupAny(view)
	if err != nil {
		return QueueStats{}, err
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return QueueStats{
		QueuedBins:     s.queuedBins,
		QueuedBatches:  len(s.queue),
		DepthHighWater: s.queuedHighWater,
		EnqueuedBins:   s.enqueuedBins,
		DroppedBins:    s.droppedBins,
		DroppedBatches: s.droppedBatches,
		RejectedBins:   s.rejectedBins,
		DeliveredBins:  s.delivered.Load(),
	}, nil
}

// Stats reports the monitor's load state: the live and configured pool
// sizes, and queue depth / drop counters aggregated across views. It
// keeps working after Close.
func (m *Monitor) Stats() Stats {
	var st Stats
	for _, s := range m.snapshotShards() {
		s.qmu.Lock()
		st.QueuedBins += s.queuedBins
		st.QueuedBatches += len(s.queue)
		st.EnqueuedBins += s.enqueuedBins
		st.DroppedBins += s.droppedBins
		st.DroppedBatches += s.droppedBatches
		st.RejectedBins += s.rejectedBins
		s.qmu.Unlock()
	}
	m.dispatchMu.Lock()
	st.Workers = m.liveWorkers
	m.dispatchMu.Unlock()
	st.WorkersHighWater = m.cfg.Workers
	return st
}

// Close drains the queues, stops the workers (Stats.Workers drops to 0),
// and waits out every in-flight background refit — including one
// triggered by the final batch — so no goroutine outlives Close. A refit that
// fails while Close drains keeps its error parked in the detector; call
// Errs after Close to harvest it (Close cannot deliver it to anyone).
// After Close, Ingest and ProcessBatch fail; statistics accessors keep
// working.
//
// Close is safe to call concurrently with Ingest and IngestStream: a
// racing Ingest either completes before Close begins draining — in
// which case everything it queued is processed and its alarms are
// retrievable afterwards — or fails with a monitor-closed error having
// queued nothing.
func (m *Monitor) Close() {
	m.ingestMu.Lock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.ingestMu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.ingestMu.Unlock()
	m.waitPending()
	m.dispatchMu.Lock()
	m.stopping = true
	m.dispatch.Broadcast()
	m.dispatchMu.Unlock()
	m.workers.Wait()
	m.drainRefits()
}
