// Package incident correlates the per-bin alarm stream the engine's
// backends emit into deduplicated incident records. The paper's subspace
// method (and the forecast backends beside it) flag and attribute one
// alarm per anomalous bin per view, so a single sustained synflood
// produces dozens of alarm lines across views and metrics; operators
// want one root-caused incident with a start, an end, a severity, and
// the attributed flow. The correlator is that stage: it sits above
// engine.Monitor, consumes alarms (from the OnAlarm callback or a
// TakeAlarms drain), and clusters them by correlation key — the
// attributed OD flow when the alarm carries one, the emitting view when
// it does not (Flow = -1) — merging alarms whose bins overlap or gap by
// less than a configurable quiet period into one open incident.
//
// Incidents move open → updated → closed: an incident opens on the
// first alarm for its key, updates as further alarms merge in (across
// views and metrics — the flow key deliberately ignores which view saw
// it), and closes once the stream has advanced a full quiet period past
// its last alarm. Severity is peak SPE magnitude × duration in bins ×
// the number of distinct views that agreed — a sustained, wide-seen,
// high-residual anomaly outranks a one-bin single-view blip. The live
// table is bounded: opening an incident beyond MaxLive force-closes the
// stalest open one, so an alarm storm cannot grow state without bound.
package incident

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"netanomaly/internal/core"
)

// Key is an incident's correlation identity. Flow-attributed alarms
// correlate on the flow alone (Region "") so the same anomaly seen by
// several views or metrics merges into one incident; unattributed
// alarms (Flow = -1) correlate per emitting view, carried in Region,
// because nothing else ties them together.
type Key struct {
	// Flow is the attributed OD flow index, or -1.
	Flow int
	// Region scopes unattributed alarms: the emitting view's name when
	// Flow is -1, "" otherwise.
	Region string
}

// EventType is the incident state transition an Event reports.
type EventType int

const (
	// Opened fires when the first alarm for a key opens an incident.
	Opened EventType = iota
	// Updated fires when a further alarm merges into an open incident.
	Updated
	// Closed fires when the quiet period expires after an incident's
	// last alarm, when the bounded table evicts it, or when Flush ends
	// the stream.
	Closed
)

// String names the transition as CLI incident lines print it.
func (t EventType) String() string {
	switch t {
	case Opened:
		return "open"
	case Updated:
		return "update"
	case Closed:
		return "closed"
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Incident is one correlated anomaly: the merged span of every alarm
// sharing its Key, with severity inputs accumulated across them.
type Incident struct {
	// ID is assigned at open, strictly increasing per correlator.
	ID int
	// Key is the correlation identity the incident's alarms share.
	Key Key
	// StartSeq and EndSeq are the first and last alarmed bins merged
	// in (inclusive, stream sequence numbers).
	StartSeq, EndSeq int
	// Alarms counts the raw alarms merged in, across views.
	Alarms int
	// PeakSPE is the largest SPE magnitude any merged alarm carried.
	PeakSPE float64
	// Bytes is the attributed anomaly size from the alarm that carried
	// PeakSPE (0 when no merged alarm attributed bytes).
	Bytes float64
	// Views are the distinct views that contributed alarms, sorted.
	Views []string
}

// Duration is the incident's span in bins, inclusive of both ends.
func (inc *Incident) Duration() int { return inc.EndSeq - inc.StartSeq + 1 }

// Severity scores the incident: peak SPE magnitude × duration in bins
// × view agreement count.
func (inc *Incident) Severity() float64 {
	return inc.PeakSPE * float64(inc.Duration()) * float64(len(inc.Views))
}

// Event is one state transition, delivered to Config.OnEvent with a
// copy of the incident as of the transition.
type Event struct {
	Type     EventType
	Incident Incident
}

// Stats is a correlator's lifetime breakdown.
type Stats struct {
	// Open is the current live-table size.
	Open int
	// Opened, Closed, and Merged count lifetime transitions: incidents
	// opened, incidents closed (eviction and Flush included), and
	// alarms merged into already-open incidents.
	Opened, Closed, Merged int
	// Evicted counts the subset of Closed forced out by the MaxLive
	// bound.
	Evicted int
}

// Config configures New.
type Config struct {
	// QuietPeriod is the gap, in bins, that separates incidents: an
	// alarm within QuietPeriod bins of an open incident's last alarm
	// merges; an incident closes once the stream advances more than
	// QuietPeriod bins past its last alarm. 0 uses 8.
	QuietPeriod int
	// MaxLive bounds the live table; opening an incident beyond it
	// force-closes the open incident with the oldest last-alarm bin.
	// 0 uses 64.
	MaxLive int
	// OnEvent, if set, receives every state transition. It is invoked
	// synchronously under the correlator's lock — transitions arrive in
	// order, from whichever goroutine observed the alarm — so it must
	// not call back into the correlator.
	OnEvent func(Event)
}

// Correlator clusters an alarm stream into incidents. All methods are
// safe for concurrent use — engine.Monitor invokes OnAlarm from many
// worker goroutines at once, and the correlator is built to sit in that
// callback.
type Correlator struct {
	quiet   int
	maxLive int
	onEvent func(Event)

	mu        sync.Mutex
	nextID    int
	watermark int // highest bin observed or advanced to
	open      map[Key]*Incident
	stats     Stats
}

// New builds a correlator. Feed it with Observe (one call per alarm),
// move its clock with Advance (or let observed alarms do it), and end
// the stream with Flush.
func New(cfg Config) *Correlator {
	if cfg.QuietPeriod <= 0 {
		cfg.QuietPeriod = 8
	}
	if cfg.MaxLive <= 0 {
		cfg.MaxLive = 64
	}
	return &Correlator{
		quiet:     cfg.QuietPeriod,
		maxLive:   cfg.MaxLive,
		onEvent:   cfg.OnEvent,
		watermark: -1,
		open:      make(map[Key]*Incident),
	}
}

// QuietPeriod reports the configured merge/close gap in bins.
func (c *Correlator) QuietPeriod() int { return c.quiet }

func (c *Correlator) emit(t EventType, inc *Incident) {
	if c.onEvent == nil {
		return
	}
	cp := *inc
	cp.Views = append([]string(nil), inc.Views...)
	c.onEvent(Event{Type: t, Incident: cp})
}

// keyOf derives the correlation key: flow-attributed alarms merge
// across views, unattributed alarms stay scoped to the view that
// raised them.
func keyOf(view string, a core.Alarm) Key {
	if a.Flow >= 0 {
		return Key{Flow: a.Flow}
	}
	return Key{Flow: -1, Region: view}
}

// Observe folds one alarm into the table: it merges into the open
// incident for its key when the gap since that incident's last alarm is
// within the quiet period, closes-and-reopens when the gap is larger,
// and opens fresh otherwise. The alarm's sequence number also advances
// the correlator's clock, closing unrelated incidents whose quiet
// period has expired.
func (c *Correlator) Observe(view string, a core.Alarm) {
	key := keyOf(view, a)
	c.mu.Lock()
	defer c.mu.Unlock()
	if a.Seq > c.watermark {
		c.watermark = a.Seq
	}

	inc, ok := c.open[key]
	if ok && a.Seq-inc.EndSeq > c.quiet {
		// Same key, but the gap exceeds the quiet period: a distinct
		// later anomaly, not a continuation.
		c.closeLocked(inc, false)
		ok = false
	}
	if ok {
		c.mergeLocked(inc, view, a)
	} else {
		c.openLocked(key, view, a)
	}
	c.sweepLocked()
}

func (c *Correlator) mergeLocked(inc *Incident, view string, a core.Alarm) {
	if a.Seq < inc.StartSeq {
		inc.StartSeq = a.Seq
	}
	if a.Seq > inc.EndSeq {
		inc.EndSeq = a.Seq
	}
	inc.Alarms++
	if a.SPE > inc.PeakSPE {
		inc.PeakSPE = a.SPE
		inc.Bytes = a.Bytes
	}
	if i := sort.SearchStrings(inc.Views, view); i == len(inc.Views) || inc.Views[i] != view {
		inc.Views = append(inc.Views, "")
		copy(inc.Views[i+1:], inc.Views[i:])
		inc.Views[i] = view
	}
	c.stats.Merged++
	c.emit(Updated, inc)
}

func (c *Correlator) openLocked(key Key, view string, a core.Alarm) {
	inc := &Incident{
		ID:       c.nextID,
		Key:      key,
		StartSeq: a.Seq,
		EndSeq:   a.Seq,
		Alarms:   1,
		PeakSPE:  a.SPE,
		Bytes:    a.Bytes,
		Views:    []string{view},
	}
	c.nextID++
	c.open[key] = inc
	c.stats.Opened++
	c.emit(Opened, inc)
	if len(c.open) > c.maxLive {
		c.evictLocked()
	}
}

// evictLocked force-closes the open incident with the oldest last-alarm
// bin (lowest ID on ties) to hold the MaxLive bound.
func (c *Correlator) evictLocked() {
	var victim *Incident
	for _, inc := range c.open {
		if victim == nil || inc.EndSeq < victim.EndSeq ||
			(inc.EndSeq == victim.EndSeq && inc.ID < victim.ID) {
			victim = inc
		}
	}
	c.closeLocked(victim, true)
}

func (c *Correlator) closeLocked(inc *Incident, evicted bool) {
	delete(c.open, inc.Key)
	c.stats.Closed++
	if evicted {
		c.stats.Evicted++
	}
	c.emit(Closed, inc)
}

// sweepLocked closes every open incident the clock has moved a full
// quiet period past.
func (c *Correlator) sweepLocked() {
	var expired []*Incident
	for _, inc := range c.open {
		if c.watermark-inc.EndSeq > c.quiet {
			expired = append(expired, inc)
		}
	}
	// Deterministic close order regardless of map iteration.
	if len(expired) > 1 {
		sort.Slice(expired, func(i, j int) bool { return expired[i].ID < expired[j].ID })
	}
	for _, inc := range expired {
		c.closeLocked(inc, false)
	}
}

// Advance moves the correlator's clock to seq without an alarm —
// drivers call it with the processed-bin count after a batch so
// incidents close on time even when the stream goes quiet.
func (c *Correlator) Advance(seq int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq > c.watermark {
		c.watermark = seq
	}
	c.sweepLocked()
}

// Flush closes every remaining open incident — the stream has ended, so
// nothing further can merge.
func (c *Correlator) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rest []*Incident
	for _, inc := range c.open {
		rest = append(rest, inc)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	for _, inc := range rest {
		c.closeLocked(inc, false)
	}
}

// Open returns copies of the live incidents, ordered by ID.
func (c *Correlator) Open() []Incident {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Incident, 0, len(c.open))
	for _, inc := range c.open {
		cp := *inc
		cp.Views = append([]string(nil), inc.Views...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats reports the lifetime transition counts and live-table size.
func (c *Correlator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Open = len(c.open)
	return s
}

// Snapshot serializes the correlator's portable state — ID counter,
// clock, lifetime counters, and the live table sorted by ID — as one
// NAMS envelope (kind "incidents"). Configuration (quiet period, table
// bound, callback) is construction state and travels outside the
// snapshot, like routing does for the detectors. A restored correlator
// continues the alarm stream without duplicating or losing any open
// incident.
func (c *Correlator) Snapshot(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := make([]*Incident, 0, len(c.open))
	for _, inc := range c.open {
		live = append(live, inc)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	return core.EncodeSnapshot(w, core.SnapKindIncidents, func(sw *core.SnapshotWriter) {
		sw.Int(c.nextID)
		sw.Int(c.watermark)
		sw.Int(c.stats.Opened)
		sw.Int(c.stats.Closed)
		sw.Int(c.stats.Merged)
		sw.Int(c.stats.Evicted)
		sw.U32(uint32(len(live)))
		for _, inc := range live {
			sw.Int(inc.ID)
			sw.Int(inc.Key.Flow)
			sw.String(inc.Key.Region)
			sw.Int(inc.StartSeq)
			sw.Int(inc.EndSeq)
			sw.Int(inc.Alarms)
			sw.F64(inc.PeakSPE)
			sw.F64(inc.Bytes)
			sw.U32(uint32(len(inc.Views)))
			for _, v := range inc.Views {
				sw.String(v)
			}
		}
	})
}

// Restore replaces the correlator's state with a Snapshot envelope.
// The encoding is canonical: IDs strictly increasing, views sorted and
// distinct, spans ordered, the clock at or past every incident — a
// payload violating any of these is rejected as corruption.
func (c *Correlator) Restore(r io.Reader) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return core.DecodeSnapshot(r, core.SnapKindIncidents, func(sr *core.SnapshotReader) error {
		nextID := sr.NonNegInt()
		watermark := sr.Int()
		opened := sr.NonNegInt()
		closed := sr.NonNegInt()
		merged := sr.NonNegInt()
		evicted := sr.NonNegInt()
		n := sr.U32()
		if err := sr.Err(); err != nil {
			return err
		}
		open := make(map[Key]*Incident, n)
		lastID := -1
		for i := uint32(0); i < n; i++ {
			inc := &Incident{
				ID:  sr.NonNegInt(),
				Key: Key{Flow: sr.Int(), Region: sr.String()},
			}
			inc.StartSeq = sr.NonNegInt()
			inc.EndSeq = sr.NonNegInt()
			inc.Alarms = sr.NonNegInt()
			inc.PeakSPE = sr.F64()
			inc.Bytes = sr.F64()
			nv := sr.U32()
			if err := sr.Err(); err != nil {
				return err
			}
			for j := uint32(0); j < nv; j++ {
				inc.Views = append(inc.Views, sr.String())
			}
			if err := sr.Err(); err != nil {
				return err
			}
			switch {
			case inc.ID <= lastID:
				return core.SnapshotFormatf("incident IDs not strictly increasing at %d", inc.ID)
			case inc.ID >= nextID:
				return core.SnapshotFormatf("incident ID %d beyond counter %d", inc.ID, nextID)
			case inc.Key.Flow < -1:
				return core.SnapshotFormatf("incident flow %d", inc.Key.Flow)
			case inc.Key.Flow >= 0 && inc.Key.Region != "":
				return core.SnapshotFormatf("flow-keyed incident %d carries region %q", inc.ID, inc.Key.Region)
			case inc.Key.Flow == -1 && inc.Key.Region == "":
				return core.SnapshotFormatf("unattributed incident %d missing region", inc.ID)
			case inc.EndSeq < inc.StartSeq:
				return core.SnapshotFormatf("incident %d span %d..%d inverted", inc.ID, inc.StartSeq, inc.EndSeq)
			case inc.EndSeq > watermark:
				return core.SnapshotFormatf("incident %d ends at %d past clock %d", inc.ID, inc.EndSeq, watermark)
			case inc.Alarms < 1:
				return core.SnapshotFormatf("incident %d has %d alarms", inc.ID, inc.Alarms)
			case len(inc.Views) == 0:
				return core.SnapshotFormatf("incident %d has no views", inc.ID)
			case !sort.StringsAreSorted(inc.Views):
				return core.SnapshotFormatf("incident %d views not sorted", inc.ID)
			}
			for j := 1; j < len(inc.Views); j++ {
				if inc.Views[j] == inc.Views[j-1] {
					return core.SnapshotFormatf("incident %d repeats view %q", inc.ID, inc.Views[j])
				}
			}
			lastID = inc.ID
			if _, dup := open[inc.Key]; dup {
				return core.SnapshotFormatf("incident key %+v repeated", inc.Key)
			}
			open[inc.Key] = inc
		}
		c.nextID = nextID
		c.watermark = watermark
		c.open = open
		c.stats = Stats{Opened: opened, Closed: closed, Merged: merged, Evicted: evicted}
		return nil
	})
}
