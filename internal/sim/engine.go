package sim

import (
	"fmt"
	"sync/atomic"
)

// Event is a scheduled callback. Events compare by time, then by sequence
// number of insertion, so simultaneous events fire in the order they were
// scheduled — this is what makes runs reproducible.
//
// Events are owned by the engine's free list: once an event fires or is
// cancelled it is recycled, so the steady-state schedule→fire loop
// performs no heap allocation. The gen counter detects stale EventIDs
// pointing at a recycled slot.
type event struct {
	at  Time
	seq uint64
	fn  func()
	idx int32  // queue index, -1 when not queued
	gen uint32 // bumped on recycle; EventID must match to act
}

// eventPooling controls whether fired/cancelled events are recycled
// through the per-engine free list (the default) or left to the garbage
// collector. It exists so determinism tests can prove results are
// bit-identical either way; production code never turns it off.
var eventPooling atomic.Bool

func init() { eventPooling.Store(true) }

// SetEventPooling toggles event recycling process-wide. Intended for
// tests and debugging only; returns the previous setting.
func SetEventPooling(enabled bool) bool { return eventPooling.Swap(enabled) }

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is valid and refers to no event.
type EventID struct {
	e   *Engine
	ev  *event
	gen uint32
}

// Cancel removes the event from the queue immediately and recycles it.
// Cancelling an already-fired, already-cancelled, or zero EventID is a
// no-op: the generation counter detects stale handles.
func (id EventID) Cancel() {
	if id.ev == nil || id.ev.gen != id.gen || id.ev.idx < 0 {
		return
	}
	id.e.queue.remove(int(id.ev.idx))
	id.e.recycle(id.ev)
}

// Pending reports whether the event is still scheduled and not cancelled.
func (id EventID) Pending() bool {
	return id.ev != nil && id.ev.gen == id.gen && id.ev.idx >= 0
}

// eventQueue is a 4-ary indexed min-heap ordered by (at, seq). A concrete
// element type avoids container/heap's interface boxing and per-operation
// indirect calls; the wider fan-out halves the tree depth, trading a few
// extra comparisons per level for fewer cache-missing swaps — the right
// trade for the short-deadline churn a DES queue sees. Because (at, seq)
// is a total order (seq is unique), any correct heap pops events in
// exactly the same sequence, so swapping the implementation preserves
// bit-identical runs.
type eventQueue struct {
	s []*event
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.s) }

// peek returns the earliest event without removing it, or nil when empty.
// Cancelled events are removed eagerly by Cancel, so the head is always
// live — there is no reap loop anywhere.
func (q *eventQueue) peek() *event {
	if len(q.s) == 0 {
		return nil
	}
	return q.s[0]
}

func (q *eventQueue) push(ev *event) {
	ev.idx = int32(len(q.s))
	q.s = append(q.s, ev)
	q.up(len(q.s) - 1)
}

func (q *eventQueue) pop() *event {
	ev := q.s[0]
	n := len(q.s) - 1
	last := q.s[n]
	q.s[n] = nil
	q.s = q.s[:n]
	if n > 0 {
		q.s[0] = last
		last.idx = 0
		q.down(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes the event at index i, preserving the heap invariant.
func (q *eventQueue) remove(i int) {
	ev := q.s[i]
	n := len(q.s) - 1
	last := q.s[n]
	q.s[n] = nil
	q.s = q.s[:n]
	if i < n {
		q.s[i] = last
		last.idx = int32(i)
		q.down(i)
		q.up(int(last.idx))
	}
	ev.idx = -1
}

func (q *eventQueue) up(i int) {
	ev := q.s[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, q.s[p]) {
			break
		}
		q.s[i] = q.s[p]
		q.s[i].idx = int32(i)
		i = p
	}
	q.s[i] = ev
	ev.idx = int32(i)
}

func (q *eventQueue) down(i int) {
	n := len(q.s)
	ev := q.s[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(q.s[j], q.s[m]) {
				m = j
			}
		}
		if !eventLess(q.s[m], ev) {
			break
		}
		q.s[i] = q.s[m]
		q.s[i].idx = int32(i)
		i = m
	}
	q.s[i] = ev
	ev.idx = int32(i)
}

// Engine is the discrete-event simulation core. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	free    []*event // recycled events, LIFO for cache warmth
	rng     *RNG
	stopped bool
	// processed counts events actually executed (not cancelled ones),
	// exposed for engine benchmarks and runaway detection.
	processed uint64
}

// NewEngine returns an engine at time zero with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's random stream. Components must draw randomness
// only from here (or from Fork()s of it) to preserve determinism.
func (e *Engine) RNG() *RNG { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live scheduled events. Cancelled events
// are removed from the queue at Cancel time, so — unlike earlier versions
// of this engine — the count never includes cancelled-but-unreaped
// entries.
func (e *Engine) Pending() int { return e.queue.len() }

// alloc returns a fresh or recycled event.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a dead event to the free list. The generation bump
// invalidates every EventID still referring to it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.idx = -1
	ev.gen++
	if eventPooling.Load() {
		e.free = append(e.free, ev)
	}
}

// Reset returns the engine to a pristine time-zero state seeded with
// seed, while keeping its allocated capacity: every still-queued event
// is recycled into the free list (exactly as if it had been cancelled,
// so outstanding EventIDs are invalidated by the generation bump and
// retained callbacks are dropped), the queue's backing array is kept,
// and the RNG is reseeded in place. A reset engine behaves bit-
// identically to a fresh NewEngine(seed) — recycled events are fully
// re-initialized on allocation — which is what lets worker-pool arenas
// reuse one engine across many runs without setup GC churn.
func (e *Engine) Reset(seed uint64) {
	for _, ev := range e.queue.s {
		e.recycle(ev)
	}
	e.queue.s = e.queue.s[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.stopped = false
	e.rng.Seed(seed)
}

// EngineState is a serializable fingerprint of the engine at a point in
// simulated time: the clock, event accounting, and the full RNG state.
// It is the sim-layer half of a steady-state checkpoint. The event
// queue itself holds Go func values and cannot be serialized, so a
// checkpoint restore rebuilds the event population from primed
// component state rather than from the queue; EngineState records where
// the donor run stood (for checkpoint provenance and cache salting) and
// carries the RNG stream a warm start resumes from.
type EngineState struct {
	Now       Time      `json:"now"`
	Processed uint64    `json:"processed"`
	Pending   int       `json:"pending"`
	RNG       [4]uint64 `json:"rng"`
}

// State captures the engine's current clock, event counts, and RNG
// state. See EngineState for what a capture does and does not include.
func (e *Engine) State() EngineState {
	return EngineState{Now: e.now, Processed: e.processed, Pending: e.queue.len(), RNG: e.rng.State()}
}

// PrimeRNG replaces the engine's RNG state with one captured from a
// donor run's State. Only the random stream is restored — the clock and
// queue are deliberately untouched, because a warm start replays a
// short guard window on a freshly built host rather than resuming the
// donor's event queue.
func (e *Engine) PrimeRNG(s [4]uint64) { e.rng.SetState(s) }

// At schedules fn to run at absolute time at. Scheduling into the past
// panics: it always indicates a component bug.
func (e *Engine) At(at Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", e.now, at))
	}
	if fn == nil {
		panic("sim: scheduling nil func")
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.queue.push(ev)
	return EventID{e: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Stop makes the current Run call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// step executes the next event. It returns false when the queue is empty.
// The event is recycled before its callback runs, so the callback may
// immediately reuse the slot for a new schedule; its own EventID has
// already been invalidated by the generation bump.
func (e *Engine) step() bool {
	if e.queue.len() == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	fn := ev.fn
	e.recycle(ev)
	fn()
	e.processed++
	return true
}

// Run executes events until the queue drains, Stop is called, or simulated
// time passes end (events at exactly end still run). It returns the time
// at which it stopped.
func (e *Engine) Run(end Time) Time {
	e.stopped = false
	for !e.stopped {
		next := e.queue.peek()
		if next == nil {
			break
		}
		if next.at > end {
			e.now = end
			break
		}
		e.step()
	}
	if e.now < end && e.queue.len() == 0 {
		// Queue drained before the horizon: advance the clock so rate
		// computations over the full window remain correct.
		e.now = end
	}
	return e.now
}

// Drain executes every remaining event regardless of time. Intended for
// tests; production runs always use Run with a horizon.
func (e *Engine) Drain() {
	for e.step() {
	}
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Ticker is stopped. fn observes the tick time via
// Engine.Now.
func (e *Engine) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	// One bound callback for the ticker's whole lifetime: rescheduling a
	// tick reuses it, so a periodic timer costs zero allocations per
	// period instead of a fresh closure every tick.
	t.tickFn = t.tick
	t.id = e.After(period, t.tickFn)
	return t
}

// Ticker is a repeating event created by Engine.Every.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func()
	tickFn  func() // t.tick bound once at creation
	id      EventID
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.id = t.engine.After(t.period, t.tickFn)
	}
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.id.Cancel()
}
