package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// node is one scheduled event in the engine's node pool. Nodes are linked
// by index, never by pointer: a bucket of the radix queue is a doubly
// linked list threaded through next/prev, and the free list reuses next.
// Index 0 is a sentinel meaning "no node", so a zero head, tail or free
// list is empty.
//
// Once an event fires or is cancelled its node returns to the free list,
// so the steady-state schedule→fire loop performs no heap allocation. The
// gen counter detects stale EventIDs pointing at a recycled node.
type node struct {
	at         Time
	fn         func()
	next, prev int32
	gen        uint32 // bumped on free; EventID must match to act
}

// eventPooling controls whether fired/cancelled nodes are reused through
// the per-engine free list (the default) or left unused, so the pool grows
// by one node per event. It exists so determinism tests can prove results
// are bit-identical either way; production code never turns it off.
var eventPooling atomic.Bool

func init() { eventPooling.Store(true) }

// SetEventPooling toggles node reuse process-wide. Intended for tests and
// debugging only; returns the previous setting.
func SetEventPooling(enabled bool) bool { return eventPooling.Swap(enabled) }

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is valid and refers to no event.
type EventID struct {
	e   *Engine
	n   int32
	gen uint32
}

// Cancel removes the event from the queue immediately and frees its node.
// Cancelling an already-fired, already-cancelled, or zero EventID is a
// no-op: the generation counter detects stale handles.
func (id EventID) Cancel() {
	if !id.Pending() {
		return
	}
	id.e.unlink(id.n)
	id.e.free(id.n)
}

// Pending reports whether the event is still scheduled and not cancelled.
// A node's generation changes the moment it fires or is cancelled, so a
// matching generation means the node is still queued for this event.
func (id EventID) Pending() bool {
	return id.e != nil && id.e.nodes[id.n].gen == id.gen
}

// The event queue is a radix heap keyed on event time. Every queued time
// is ≥ last, the time most recently taken from the queue, and a node at
// time t sits in bucket bits.Len64(t^last): bucket 0 holds the nodes due
// at exactly last, and bucket k>0 those whose highest bit differing from
// last is bit k-1. Times are never negative, so 64 buckets cover them.
//
// When bucket 0 is empty, the lowest non-empty bucket k is scanned for its
// minimum, last moves to it, and every node of bucket k is re-linked into
// bucket Len64(at^last) < k, all of which are empty. The new last agrees
// with the old one on every bit ≥ k, so nodes in buckets above k keep
// their bucket. Each node therefore only moves down, at most 63 times.
//
// Determinism needs no sequence numbers: nodes with equal times always
// share a bucket, new nodes join a bucket at its tail, and re-linking
// walks a bucket head to tail into empty buckets, so every bucket lists
// its nodes in insertion order. Popping bucket 0 from its head therefore
// fires simultaneous events in the order they were scheduled, exactly the
// (time, insertion sequence) order a comparison heap would produce.
const numBuckets = 64

// Engine is the discrete-event simulation core. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now      Time
	last     Time   // time most recently taken from the queue; see numBuckets
	mask     uint64 // bit b set while bucket b is non-empty
	head     [numBuckets]int32
	tail     [numBuckets]int32
	nodes    []node // nodes[0] is the "no node" sentinel
	freeHead int32  // head of the free list, linked through node.next
	pending  int
	rng      *RNG
	stopped  bool
	// processed counts events actually executed (not cancelled ones),
	// exposed for engine benchmarks and runaway detection.
	processed uint64
}

// NewEngine returns an engine at time zero with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), nodes: make([]node, 1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's random stream. Components must draw randomness
// only from here (or from Fork()s of it) to preserve determinism.
func (e *Engine) RNG() *RNG { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live scheduled events. Cancelled events
// leave the queue at Cancel time, so the count is exact.
func (e *Engine) Pending() int { return e.pending }

// link appends node n to the tail of the bucket its time belongs in.
func (e *Engine) link(n int32) {
	nd := &e.nodes[n]
	b := bits.Len64(uint64(nd.at ^ e.last))
	t := e.tail[b]
	nd.prev, nd.next = t, 0
	if t == 0 {
		e.head[b] = n
		e.mask |= 1 << b
	} else {
		e.nodes[t].next = n
	}
	e.tail[b] = n
}

// unlink removes queued node n from its bucket, keeping the bucket's order.
func (e *Engine) unlink(n int32) {
	nd := &e.nodes[n]
	b := bits.Len64(uint64(nd.at ^ e.last))
	if nd.prev == 0 {
		e.head[b] = nd.next
	} else {
		e.nodes[nd.prev].next = nd.next
	}
	if nd.next == 0 {
		e.tail[b] = nd.prev
	} else {
		e.nodes[nd.next].prev = nd.prev
	}
	if e.head[b] == 0 {
		e.mask &^= 1 << b
	}
}

// free retires node n: the generation bump invalidates every EventID
// still referring to it, and the node joins the free list unless pooling
// is off.
func (e *Engine) free(n int32) {
	nd := &e.nodes[n]
	nd.fn = nil
	nd.gen++
	e.pending--
	if eventPooling.Load() {
		nd.next = e.freeHead
		e.freeHead = n
	}
}

// settle makes bucket 0 hold the earliest queued events, provided they are
// due no later than end. It reports false, leaving last untouched, when
// the queue is empty or its earliest event is after end: advancing last
// past end would let a later At between end and that event break the
// queue's invariant.
func (e *Engine) settle(end Time) bool {
	if e.head[0] != 0 {
		return e.last <= end
	}
	if e.mask == 0 {
		return false
	}
	k := bits.TrailingZeros64(e.mask)
	n := e.head[k]
	if n == e.tail[k] {
		// A lone node is the minimum and moves straight to bucket 0.
		at := e.nodes[n].at
		if at > end {
			return false
		}
		e.last = at
		e.head[k], e.tail[k] = 0, 0
		e.head[0], e.tail[0] = n, n
		e.mask = e.mask&^(1<<k) | 1
		return true
	}
	lo := Time(math.MaxInt64)
	for m := n; m != 0; m = e.nodes[m].next {
		if at := e.nodes[m].at; at < lo {
			lo = at
		}
	}
	if lo > end {
		return false
	}
	e.last = lo
	e.head[k], e.tail[k] = 0, 0
	e.mask &^= 1 << k
	for n != 0 {
		next := e.nodes[n].next
		e.link(n)
		n = next
	}
	return true
}

// fire pops the head of bucket 0 and runs it. The node is freed before
// its callback runs, so the callback may immediately reuse it for a new
// schedule; its own EventID has already been invalidated.
func (e *Engine) fire() {
	n := e.head[0]
	e.unlink(n)
	nd := &e.nodes[n]
	e.now = nd.at
	fn := nd.fn
	e.free(n)
	fn()
	e.processed++
}

// Reset returns the engine to a pristine time-zero state seeded with
// seed, while keeping its allocated capacity: every still-queued node is
// freed (exactly as if it had been cancelled, so outstanding EventIDs are
// invalidated by the generation bump and retained callbacks are dropped),
// the node pool is kept, and the RNG is reseeded in place. A reset engine
// behaves bit-identically to a fresh NewEngine(seed) — which node an
// event occupies never affects the firing order — which is what lets
// worker-pool arenas reuse one engine across many runs without setup GC
// churn.
func (e *Engine) Reset(seed uint64) {
	for b := range e.head {
		for n := e.head[b]; n != 0; {
			next := e.nodes[n].next
			e.free(n)
			n = next
		}
	}
	e.head, e.tail = [numBuckets]int32{}, [numBuckets]int32{}
	e.mask = 0
	e.now = 0
	e.last = 0
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
	return EngineState{Now: e.now, Processed: e.processed, Pending: e.pending, RNG: e.rng.State()}
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
	n := e.freeHead
	if n != 0 {
		e.freeHead = e.nodes[n].next
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	nd := &e.nodes[n]
	nd.at = at
	nd.fn = fn
	e.link(n)
	e.pending++
	return EventID{e: e, n: n, gen: nd.gen}
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

// Run executes events until the queue drains, Stop is called, or simulated
// time passes end (events at exactly end still run). It returns the time
// at which it stopped. The clock never moves backwards: a horizon already
// behind Now runs nothing and leaves the clock where it is.
func (e *Engine) Run(end Time) Time {
	e.stopped = false
	for !e.stopped && e.settle(end) {
		e.fire()
	}
	if e.now < end && (!e.stopped || e.pending == 0) {
		// The next event lies past the horizon, or the queue drained
		// before it: advance the clock so rate computations over the
		// full window remain correct.
		e.now = end
	}
	return e.now
}

// Drain executes every remaining event regardless of time. Intended for
// tests; production runs always use Run with a horizon.
func (e *Engine) Drain() {
	for e.settle(math.MaxInt64) {
		e.fire()
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
