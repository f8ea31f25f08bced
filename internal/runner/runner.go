// Package runner is the fleet-scale execution layer: a shared, bounded
// worker pool whose workers own reusable simulation arenas. Every
// many-run entry point in the repository — core.RunEach, sweep grids,
// cluster fleets, the figure harness — funnels its fan-out through this
// pool instead of spawning one goroutine per point.
//
// Two properties make 100k-host fleets tractable on a laptop:
//
//   - Arena reuse. Each worker slot owns an Arena holding a sim.Engine
//     (with its event node pool), a pkt.Pool (packet free list), and a
//     metrics.Registry. Between runs the arena is reset, not
//     reallocated, so the steady-state cost of one more fleet host is
//     the simulation itself rather than setup and GC churn. Reset state
//     is proven invisible by the golden determinism tests: a run on a
//     dirty arena is bit-identical to a run on a fresh engine.
//
//   - Bounded, ordered dispatch. Tasks are handed to workers in index
//     order in small chunks pulled from a shared frontier (idle workers
//     steal the next chunk; a straggler never blocks dispatch). Because
//     in-flight indices stay within a few chunks of each other, the
//     in-order result collector used by the streaming aggregation paths
//     needs only an O(workers)-sized reorder window — contiguous
//     per-worker ranges (the textbook work-stealing split) were
//     rejected precisely because they make that window O(n/workers).
//
// The pool is deliberately free of simulation knowledge: tasks receive
// an *Arena and do with it what they like. internal/core owns the glue
// that turns an arena into a host.Testbed.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// Arena is the per-worker bundle of reusable simulation state. Fields
// are created lazily on first Acquire and then live for the pool's
// lifetime; the engine and registry are reset (not reallocated) by
// host.NewWith at the start of every run, and the packet pool's free
// list carries over as-is — recycled packets are fully zeroed on reuse.
//
// An Arena is owned by exactly one task at a time (the pool hands it
// out with the worker slot), so none of its state needs locking.
type Arena struct {
	worker int
	runs   uint64

	engine   *sim.Engine
	pool     *pkt.Pool
	registry *metrics.Registry
}

// Worker returns the index of the worker slot owning this arena.
func (a *Arena) Worker() int { return a.worker }

// Runs returns how many tasks have acquired this arena so far.
func (a *Arena) Runs() uint64 { return a.runs }

// Acquire returns the arena's engine, packet pool, and registry,
// creating them on first use, and counts the run. The caller (in
// practice host.NewWith via core.RunOn) is responsible for resetting
// the engine and registry to the run's seed; the packet pool needs no
// reset because its free list is self-cleaning.
//
// A nil arena is valid and returns nils, which host.NewWith turns into
// fresh per-run state — the pre-pool behavior.
func (a *Arena) Acquire() (*sim.Engine, *pkt.Pool, *metrics.Registry) {
	if a == nil {
		return nil, nil, nil
	}
	a.runs++
	if a.engine == nil {
		a.engine = sim.NewEngine(0)
		a.pool = pkt.NewPool()
		a.registry = metrics.NewRegistry()
	}
	return a.engine, a.pool, a.registry
}

// SlotState is the observable state of one worker slot, readable at
// any time without racing: each slot's state lives in its own atomic
// word, written by the owning worker and loaded by observers
// (/metrics scrapes, hiccluster -v).
type SlotState uint32

const (
	// SlotIdle: the slot sits in the pool's channel, no task holds it.
	SlotIdle SlotState = iota
	// SlotBusy: a worker holds the slot and is executing tasks.
	SlotBusy
	// SlotDraining: the worker observed an abort mid-chunk and is
	// returning the slot without running the chunk's remaining tasks.
	SlotDraining
)

func (s SlotState) String() string {
	switch s {
	case SlotIdle:
		return "idle"
	case SlotBusy:
		return "busy"
	case SlotDraining:
		return "draining"
	}
	return "unknown"
}

// Pool is a bounded pool of worker slots, each owning one Arena. The
// bound is global: concurrent Map calls share the same slots, so total
// in-flight simulations never exceed the worker count no matter how
// many sweeps run at once.
type Pool struct {
	workers int
	slots   chan *Arena

	// Per-slot state words plus pool-wide task counters, all atomic so
	// the control plane samples them while workers run.
	state   []atomic.Uint32
	started atomic.Uint64 // tasks whose fn began executing
	done    atomic.Uint64 // tasks whose fn returned (ok or error)
	pending atomic.Int64  // tasks submitted but not yet finished
}

// New returns a pool with the given number of worker slots; workers <= 0
// means GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		slots:   make(chan *Arena, workers),
		state:   make([]atomic.Uint32, workers),
	}
	for i := 0; i < workers; i++ {
		p.slots <- &Arena{worker: i}
	}
	return p
}

// Workers returns the pool's worker-slot count.
func (p *Pool) Workers() int { return p.workers }

// SlotStates returns a point-in-time copy of every slot's state. The
// copy is not a consistent cut across slots (each word is loaded
// independently), which is exactly what a live gauge wants.
func (p *Pool) SlotStates() []SlotState {
	out := make([]SlotState, len(p.state))
	for i := range p.state {
		out[i] = SlotState(p.state[i].Load())
	}
	return out
}

// Stats is a point-in-time summary of pool occupancy and throughput.
type Stats struct {
	Workers      int
	Busy         int
	Idle         int
	Draining     int
	TasksStarted uint64
	TasksDone    uint64
	// QueueDepth is submitted-but-unfinished tasks across all in-flight
	// Map calls (includes the ones currently executing).
	QueueDepth int64
}

// Stats samples the pool's counters and slot states.
func (p *Pool) Stats() Stats {
	st := Stats{
		Workers:      p.workers,
		TasksStarted: p.started.Load(),
		TasksDone:    p.done.Load(),
		QueueDepth:   p.pending.Load(),
	}
	for i := range p.state {
		switch SlotState(p.state[i].Load()) {
		case SlotBusy:
			st.Busy++
		case SlotDraining:
			st.Draining++
		default:
			st.Idle++
		}
	}
	return st
}

// MetricsInto implements the control plane's MetricSource interface
// structurally (no obs import): it emits live pool gauges and counters
// under the hic_pool_ prefix.
func (p *Pool) MetricsInto(emit func(name, typ string, v float64)) {
	st := p.Stats()
	emit("hic_pool_workers", "gauge", float64(st.Workers))
	emit("hic_pool_slots_busy", "gauge", float64(st.Busy))
	emit("hic_pool_slots_idle", "gauge", float64(st.Idle))
	emit("hic_pool_slots_draining", "gauge", float64(st.Draining))
	emit("hic_pool_tasks_started_total", "counter", float64(st.TasksStarted))
	emit("hic_pool_tasks_done_total", "counter", float64(st.TasksDone))
	emit("hic_pool_queue_depth", "gauge", float64(st.QueueDepth))
}

// arenas snapshots the pool's arenas for tests. Only valid on an idle
// pool — it briefly drains every slot.
func (p *Pool) arenas() []*Arena {
	as := make([]*Arena, 0, p.workers)
	for i := 0; i < p.workers; i++ {
		as = append(as, <-p.slots)
	}
	for _, a := range as {
		p.slots <- a
	}
	return as
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool (GOMAXPROCS workers), creating it
// on first use. All library entry points run on this pool by default so
// the worker bound and the arenas are shared across call sites.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(0) })
	return sharedPool
}

// chunkFor picks the dispatch chunk size: small enough that every worker
// gets work even on short task lists, large enough that the atomic
// frontier is not contended on fleet-sized ones.
func chunkFor(n, workers int) int {
	c := n / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > 64 {
		return 64
	}
	return c
}

// Map executes fn(i, arena) for i in [0, n) on the pool's workers.
// Tasks are dispatched in index order; results ordering is the caller's
// concern (write into your own slice at index i). The first error —
// lowest task index among the errors observed — aborts dispatch of
// not-yet-started chunks, and Map returns after every started task has
// finished, so fn never races with the caller after return.
func (p *Pool) Map(n int, fn func(i int, a *Arena) error) error {
	_, err := mapChunks(p, n, func(i int, a *Arena) (struct{}, error) {
		return struct{}{}, fn(i, a)
	}, nil)
	return err
}

// MapOrdered executes fn like Map and additionally delivers each task's
// value to emit in strict index order from a single goroutine (the
// collector), without retaining values beyond the reorder window. This
// is the streaming backbone: aggregation downstream of emit sees a
// deterministic order regardless of worker interleaving, and memory
// stays O(workers · chunk), independent of n. An emit error aborts the
// run like a task error; tasks past the failed index may or may not
// have executed, but emit is never called again.
func MapOrdered[T any](p *Pool, n int, fn func(i int, a *Arena) (T, error), emit func(i int, v T) error) error {
	_, err := mapChunks(p, n, fn, emit)
	return err
}

// taskError tags an error with the index of the task that produced it so
// concurrent failures resolve deterministically to the lowest index.
type taskError struct {
	idx int
	err error
}

// mapChunks is the shared executor behind Map and MapOrdered.
func mapChunks[T any](p *Pool, n int, fn func(i int, a *Arena) (T, error), emit func(i int, v T) error) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	chunk := chunkFor(n, p.workers)
	nchunks := (n + chunk - 1) / chunk

	// Queue-depth accounting: all n tasks become pending now; each
	// executed task decrements, and tasks skipped by an abort are
	// reconciled at exit.
	p.pending.Add(int64(n))
	var executed atomic.Int64
	defer func() { p.pending.Add(executed.Load() - int64(n)) }()

	var (
		frontier atomic.Int64 // next chunk index to dispatch
		aborted  atomic.Bool
		errMu    sync.Mutex
		firstErr *taskError
	)
	fail := func(idx int, err error) {
		errMu.Lock()
		if firstErr == nil || idx < firstErr.idx {
			firstErr = &taskError{idx: idx, err: err}
		}
		errMu.Unlock()
		aborted.Store(true)
	}

	// The collector receives whole chunks and re-orders them; buffered a
	// little so workers rarely block on delivery.
	type chunkResult struct {
		idx    int // chunk index
		values []T
	}
	var (
		results chan chunkResult
		collWG  sync.WaitGroup
	)
	if emit != nil {
		results = make(chan chunkResult, p.workers*2)
		collWG.Add(1)
		go func() {
			defer collWG.Done()
			pending := make(map[int][]T, p.workers*2)
			next := 0
			for cr := range results {
				pending[cr.idx] = cr.values
				for vs, ok := pending[next]; ok; vs, ok = pending[next] {
					delete(pending, next)
					if !aborted.Load() {
						for j, v := range vs {
							i := next*chunk + j
							if err := emit(i, v); err != nil {
								fail(i, err)
								break
							}
						}
					}
					next++
				}
			}
		}()
	}

	nworkers := p.workers
	if nchunks < nworkers {
		nworkers = nchunks
	}
	var wg sync.WaitGroup
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(frontier.Add(1)) - 1
				if c >= nchunks || aborted.Load() {
					return
				}
				lo, hi := c*chunk, (c+1)*chunk
				if hi > n {
					hi = n
				}
				// Hold a worker slot (and its arena) only while actually
				// simulating, so concurrent Map calls interleave fairly.
				a := <-p.slots
				p.state[a.worker].Store(uint32(SlotBusy))
				var values []T
				if emit != nil {
					values = make([]T, 0, hi-lo)
				}
				for i := lo; i < hi; i++ {
					// A failure elsewhere aborts mid-chunk too: surface the
					// wind-down as Draining and skip the rest of the chunk.
					if i > lo && aborted.Load() {
						p.state[a.worker].Store(uint32(SlotDraining))
						break
					}
					p.started.Add(1)
					v, err := fn(i, a)
					p.done.Add(1)
					p.pending.Add(-1)
					executed.Add(1)
					if err != nil {
						fail(i, err)
						break
					}
					if emit != nil {
						values = append(values, v)
					}
				}
				p.state[a.worker].Store(uint32(SlotIdle))
				p.slots <- a
				if emit != nil {
					results <- chunkResult{idx: c, values: values}
				}
			}
		}()
	}
	wg.Wait()
	if emit != nil {
		close(results)
		collWG.Wait()
	}
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return 0, firstErr.err
	}
	return nchunks, nil
}
