package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hic/internal/cluster"
	"hic/internal/fidelity"
	"hic/internal/runcache"
	"hic/internal/runner"
)

// Worker is one shard executor: it registers with a coordinator, polls
// for range leases, runs each through the existing cluster/fidelity
// stack on a private runner pool, and streams the partial back.
//
// Everything expensive stays resident across leases — the pool's
// arenas, the calibrated fidelity routers (keyed by query signature),
// and the HTTP-backed run-cache client — which is what makes the
// second identical query orders of magnitude cheaper than the first.
//
// A worker executes one lease at a time, by design: per-range fidelity
// accounting is a counter delta around the run, which is only exact
// when leases do not overlap on one router.
type WorkerOptions struct {
	// Name labels the worker in coordinator logs and results.
	Name string
	// Threads bounds the private runner pool (0 = GOMAXPROCS). On a
	// shared machine, give each worker cores/workers so co-resident
	// workers split the cores instead of oversubscribing them.
	Threads int
	// Poll is the base idle polling cadence (0 = 50ms). Consecutive
	// empty polls back off exponentially up to maxIdlePoll, and every
	// idle sleep is jittered ±25% so a fleet of workers started
	// together does not hit the coordinator in lockstep; the first poll
	// after any lease returns to the base cadence.
	Poll time.Duration
	// Client overrides the HTTP client (nil = 5-minute timeout, ample
	// for a slow range's /shard/done upload).
	Client *http.Client
	// Log receives one-line diagnostics (nil = silent).
	Log io.Writer
}

// Worker state. Construct with NewWorker; drive with Run.
type Worker struct {
	base string
	opts WorkerOptions
	hc   *http.Client
	pool *runner.Pool

	id    string
	cache *runcache.Store // shared results cache via the coordinator
	warm  *runcache.Store // shared warm store via the coordinator
	rng   *rand.Rand      // poll jitter; used only by the Run goroutine

	mu      sync.Mutex
	routers map[string]*fidelity.Router

	// leases/hosts are lifetime counters (Stats).
	leases, hosts uint64

	// Live state for the worker's own obs plane (MetricsInto), held in
	// atomics so a -listen /metrics scrape never contends with the Run
	// loop: executing is 1 while a lease runs, idleBackoffNs the
	// current idle poll backoff (0 when working), lastLeaseNs when the
	// most recent lease was acquired (Unix ns, 0 before the first).
	executing     atomic.Int64
	idleBackoffNs atomic.Int64
	lastLeaseNs   atomic.Int64

	// Test hooks. abandonAfter > 0 makes Run exit without reporting
	// right after acquiring that many leases — a worker dying
	// mid-range, from the coordinator's point of view. reportDelay
	// stalls completions to widen race windows.
	abandonAfter int
	reportDelay  time.Duration
}

// NewWorker builds a worker for the coordinator at base (e.g.
// "http://127.0.0.1:8080"). The shared run cache and warm store are
// reached through the coordinator's HTTP cache mounts.
func NewWorker(base string, o WorkerOptions) *Worker {
	if o.Poll <= 0 {
		o.Poll = 50 * time.Millisecond
	}
	hc := o.Client
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Minute}
	}
	// Jitter is de-synchronization, not reproducibility: seed from the
	// clock, salted by the name so same-instant siblings still diverge.
	h := fnv.New64a()
	h.Write([]byte(o.Name)) //nolint:errcheck // fnv never errors
	return &Worker{
		base:    base,
		opts:    o,
		hc:      hc,
		pool:    runner.New(o.Threads),
		cache:   runcache.NewStore(runcache.NewHTTP(runcache.RemoteURL(base, runcache.RemoteResultsPath), hc)),
		warm:    runcache.NewStore(runcache.NewHTTP(runcache.RemoteURL(base, runcache.RemoteWarmPath), hc)),
		routers: make(map[string]*fidelity.Router),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(h.Sum64()))),
	}
}

// maxIdlePoll caps the idle backoff: a worker that has been idle for a
// while still notices a new query within a second.
const maxIdlePoll = time.Second

// nextIdle doubles the idle backoff from base up to maxIdlePoll.
func nextIdle(cur, base time.Duration) time.Duration {
	if cur < base {
		return base
	}
	cur *= 2
	if cur > maxIdlePoll {
		cur = maxIdlePoll
	}
	return cur
}

// jitter spreads a sleep across [0.75d, 1.25d].
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d*3/4 + time.Duration(w.rng.Int63n(int64(d/2)+1))
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Log != nil {
		fmt.Fprintf(w.opts.Log, "worker %s: "+format+"\n", append([]any{w.id}, args...)...)
	}
}

// WorkerStats is a worker's lifetime accounting.
type WorkerStats struct {
	Leases  uint64
	Hosts   uint64
	Routers int
}

// Stats snapshots the worker's lifetime counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStats{Leases: w.leases, Hosts: w.hosts, Routers: len(w.routers)}
}

// ID returns the coordinator-assigned worker id ("" before Run
// registers). Safe to poll from another goroutine.
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// MetricsInto implements the control plane's MetricSource interface so
// a worker started with -listen is inspectable without a coordinator
// scrape: its own lease/idle state under hic_serve_worker_*, plus the
// private runner pool (hic_pool_*) and the shared-results cache
// client (hic_runcache_*). All reads are atomics or short mutex holds
// — /metrics is served while leases execute.
func (w *Worker) MetricsInto(emit func(name, typ string, v float64)) {
	st := w.Stats()
	emit("hic_serve_worker_leases_total", "counter", float64(st.Leases))
	emit("hic_serve_worker_hosts_total", "counter", float64(st.Hosts))
	emit("hic_serve_worker_routers", "gauge", float64(st.Routers))
	emit("hic_serve_worker_executing", "gauge", float64(w.executing.Load()))
	emit("hic_serve_worker_idle_backoff_ms", "gauge", float64(w.idleBackoffNs.Load())/1e6)
	if t := w.lastLeaseNs.Load(); t > 0 {
		emit("hic_serve_worker_since_last_lease_seconds", "gauge",
			time.Since(time.Unix(0, t)).Seconds())
	}
	w.pool.MetricsInto(emit)
	w.cache.MetricsInto(emit)
}

func (w *Worker) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := w.hc.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode == http.StatusNoContent {
		return errNoWork
	}
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 1<<10))
		return fmt.Errorf("%s: %s: %s", path, r.Status, bytes.TrimSpace(msg))
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

var errNoWork = fmt.Errorf("no work")

// Run registers and polls for leases until ctx is cancelled, executing
// each range and reporting its partial. Transient coordinator errors
// back off and retry; only ctx cancellation (or the abandon test hook)
// ends the loop.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	taken := 0
	idle := time.Duration(0)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease Lease
		// The poll reports the current idle backoff so the coordinator's
		// health registry shows how deep in backoff an idle worker sits.
		err := w.post(NextPath, map[string]any{
			"worker_id":  w.id,
			"backoff_ms": float64(idle.Nanoseconds()) / 1e6,
		}, &lease)
		switch {
		case err == errNoWork:
			idle = nextIdle(idle, w.opts.Poll)
			w.idleBackoffNs.Store(int64(idle))
			if !sleepCtx(ctx, w.jitter(idle)) {
				return ctx.Err()
			}
			continue
		case err != nil:
			w.logf("poll: %v", err)
			idle = nextIdle(idle, w.opts.Poll*4)
			w.idleBackoffNs.Store(int64(idle))
			if !sleepCtx(ctx, w.jitter(idle)) {
				return ctx.Err()
			}
			continue
		}
		idle = 0
		w.idleBackoffNs.Store(0)
		taken++
		if w.abandonAfter > 0 && taken > w.abandonAfter {
			// Simulated death: the lease is held, never executed, never
			// reported. The coordinator's lease timeout reassigns it.
			w.logf("abandoning lease %s/%d (test hook)", lease.Job, lease.RangeID)
			return nil
		}
		w.mu.Lock()
		w.leases++
		w.mu.Unlock()
		w.lastLeaseNs.Store(time.Now().UnixNano())
		w.executing.Store(1)
		// Bracket execution with the worker-local counter reads that
		// become the lease's federated deltas (and, when the lease is
		// traced, its execution window).
		cacheBefore, poolBefore := w.cache.Stats(), w.pool.Stats()
		execStart := time.Now()
		var partial RangePartial
		if lease.Kind == LeasePrefetch {
			partial = w.executePrefetch(lease)
		} else {
			partial = w.execute(lease)
		}
		execEnd := time.Now()
		w.executing.Store(0)
		cacheAfter, poolAfter := w.cache.Stats(), w.pool.Stats()
		partial.Deltas = &WorkerDeltas{
			CacheHits:      cacheAfter.Hits - cacheBefore.Hits,
			CacheMisses:    cacheAfter.Misses - cacheBefore.Misses,
			CacheCollapses: cacheAfter.Collapses - cacheBefore.Collapses,
			PoolTasks:      poolAfter.TasksDone - poolBefore.TasksDone,
			ExecMS:         float64(execEnd.Sub(execStart).Nanoseconds()) / 1e6,
		}
		if lease.Trace != "" {
			partial.Trace = lease.Trace
			partial.ExecStartNs = execStart.UnixNano()
			partial.ExecEndNs = execEnd.UnixNano()
		}
		if w.reportDelay > 0 {
			sleepCtx(ctx, w.reportDelay)
		}
		var ack struct {
			Accepted bool `json:"accepted"`
		}
		if err := w.post(DonePath, partial, &ack); err != nil {
			w.logf("report %s/%d: %v", lease.Job, lease.RangeID, err)
		} else if !ack.Accepted {
			// The range was reassigned and completed elsewhere first.
			// Correct and expected after a long stall; nothing to undo
			// because the coordinator counted the other completion.
			w.logf("lease %s/%d completed elsewhere (duplicate rejected)", lease.Job, lease.RangeID)
		}
	}
}

func (w *Worker) register(ctx context.Context) error {
	for {
		var resp struct {
			WorkerID string `json:"worker_id"`
		}
		err := w.post(RegisterPath, map[string]string{"name": w.opts.Name}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			return nil
		}
		w.logf("register: %v", err)
		if !sleepCtx(ctx, time.Second) {
			return ctx.Err()
		}
	}
}

// execute runs one leased range through the cluster stack and packages
// the partial. Errors become Err on the partial — the coordinator
// fails the query; a worker never dies from a bad spec.
func (w *Worker) execute(lease Lease) RangePartial {
	p := RangePartial{Job: lease.Job, RangeID: lease.RangeID, Worker: w.id, Lo: lease.Lo, Hi: lease.Hi}
	cfg := lease.Spec.ClusterConfig()
	cfg.Pool = w.pool
	cfg.Log = w.opts.Log
	if !lease.Spec.NoCache {
		cfg.Cache = w.cache
	}
	if lease.Spec.NeedsRouter() {
		router, err := w.routerFor(lease.Spec, cfg)
		if err != nil {
			p.Err = err.Error()
			return p
		}
		cfg.Exec = router
	}
	st, err := cluster.RunRange(cfg, lease.Lo, lease.Hi, func(pt cluster.Point) error {
		p.Points = append(p.Points, pt)
		p.Util.Add(pt.Utilization)
		p.Drop.Add(pt.DropRate)
		return nil
	})
	if err != nil {
		p.Err = err.Error()
		return p
	}
	p.Stats = st
	w.mu.Lock()
	w.hosts += uint64(lease.Hi - lease.Lo)
	w.mu.Unlock()
	return p
}

// executePrefetch calibrates one chunk of the fleet's distinct fidelity
// signatures ahead of range execution: the anchor grid and both noise
// tiers, all landing in the shared run cache and warm store. The partial carries only the
// calibration accounting — no points. Errors are reported but the
// coordinator treats them as non-fatal (ranges calibrate lazily).
func (w *Worker) executePrefetch(lease Lease) RangePartial {
	p := RangePartial{Job: lease.Job, RangeID: lease.RangeID, Worker: w.id,
		Lo: lease.Lo, Hi: lease.Hi, Prefetch: true}
	cfg := lease.Spec.ClusterConfig()
	cfg.Pool = w.pool
	cfg.Log = w.opts.Log
	if !lease.Spec.NoCache {
		cfg.Cache = w.cache
	}
	if !lease.Spec.NeedsRouter() {
		return p
	}
	router, err := w.routerFor(lease.Spec, cfg)
	if err != nil {
		p.Err = err.Error()
		return p
	}
	before := router.Counters()
	for _, rep := range lease.Reps {
		params, _ := cluster.HostScenario(cfg, rep)
		if perr := router.Prefetch(params); perr != nil {
			p.Err = perr.Error()
			break
		}
	}
	p.Stats = cluster.RouterDelta(before, router.Counters())
	w.logf("prefetch %s/%d: %d signatures, %d anchor runs",
		lease.Job, lease.RangeID, len(lease.Reps), p.Stats.AnchorRuns)
	return p
}

// routerFor returns the resident router for the query's fidelity
// signature, building and caching it on first use. Keeping routers
// resident is the warm-query fast path: the second identical query
// reuses the calibration (anchor runs already memoized), so its
// AnchorRuns report zero.
func (w *Worker) routerFor(spec QueryRequest, cfg cluster.Config) (*fidelity.Router, error) {
	sig := spec.FidelitySignature()
	w.mu.Lock()
	r, ok := w.routers[sig]
	w.mu.Unlock()
	if ok {
		return r, nil
	}
	fcfg := fidelity.Config{
		Tol:         spec.Tol,
		AuditRate:   spec.AuditRate,
		EarlyStop:   spec.EarlyStop,
		AnchorSeeds: cluster.SeedPool(cfg),
		Log:         w.opts.Log,
	}
	if spec.Fidelity != "" {
		mode, err := fidelity.ParseMode(spec.Fidelity)
		if err != nil {
			return nil, err
		}
		fcfg.Mode = mode
	}
	if !spec.NoCache {
		fcfg.Cache = w.cache
	}
	if spec.Warm != "" && spec.Warm != string(fidelity.WarmOff) {
		warm, err := fidelity.ParseWarmMode(spec.Warm)
		if err != nil {
			return nil, err
		}
		fcfg.Warm = warm
		fcfg.WarmStore = w.warm
	}
	r, err := fidelity.New(fcfg)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	// Lost race: keep the first router so calibration state is shared.
	if prior, ok := w.routers[sig]; ok {
		r = prior
	} else {
		w.routers[sig] = r
	}
	w.mu.Unlock()
	return r, nil
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
