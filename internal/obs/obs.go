// Package obs is the live execution control plane: an embedded,
// opt-in HTTP server that long-running commands start with -listen,
// exposing what a multi-minute fleet run is doing while it runs.
//
// Four windows into a running executor:
//
//   - /metrics — Prometheus text exposition (format 0.0.4) unifying
//     the control plane's own counters, executor gauges sampled live
//     from registered MetricSources (worker-pool slot occupancy, run
//     cache hits/misses/collapses, fidelity routing decisions), and a
//     fleet-cumulative rollup of every completed simulation's
//     metrics.Registry snapshot;
//   - /debug/pprof/* — net/http/pprof, plus optional continuous
//     CPU+heap profile capture to disk on a ticker;
//   - /progress — a JSON run registry with per-phase completion,
//     Welford-smoothed points/sec, and ETA;
//   - /events — a ring-buffered structured event log (JSONL) of
//     executor lifecycle events with bounded memory.
//
// The package also holds the repo's one Prometheus text writer: /metrics
// and the one-shot snapshot export (WritePrometheus, behind hicsim and
// hiccap -metrics-out) render through it, and ParseProm validates both.
//
// Instrumented layers (runner, runcache, fidelity, core, cluster,
// sweep) report through the nil-checked Sink interface: with no sink
// installed the entire path is a single atomic load and a nil check,
// so the default run stays allocation-free and bit-identical to an
// uninstrumented binary — the committed golden hashes and the
// zero-alloc gates prove it.
//
// Dependency direction: obs is a leaf package (stdlib + metrics +
// stats only). Instrumented packages either import obs for
// the Sink (fidelity, cluster, sweep, core, runcache) or — where the
// import would cycle or is simply unnecessary — implement the
// structural MetricSource interface without importing anything
// (runner).
package obs

import (
	"sync/atomic"

	"hic/internal/metrics"
)

// Snapshot is the registry snapshot type the fleet rollup consumes —
// aliased so Sink implementations outside this package read naturally.
type Snapshot = metrics.Snapshot

// Event kinds recorded in the structured event log.
const (
	KindRunStart      = "run_start"
	KindRunFinish     = "run_finish"
	KindPointStart    = "point_start"
	KindPointFinish   = "point_finish"
	KindCacheCollapse = "cache_collapse"
	KindFidelityRoute = "fidelity_route"
	KindAuditResult   = "audit_result"
	KindEarlyStop     = "early_stop"
	KindWarning       = "warning"
	// KindWarmStart is a DES point warm-started from a persisted
	// steady-state checkpoint (internal/fidelity): Key is the
	// calibration-signature label, Point the antagonist tier, Why the
	// donor coordinates. Warm-start audit results reuse KindAuditResult
	// with Route "warm".
	KindWarmStart = "warm_start"
	// KindIncident is a sim-time congestion episode detected by the
	// observatory (internal/observatory): Point is the host index, Key
	// its catalog cell, Why the attributed cause, Value the peak NIC
	// buffer fill, and DurMS the episode's *sim-time* duration in
	// milliseconds (every other kind's DurMS is wall time).
	KindIncident = "incident"

	// Distributed-serve lifecycle kinds (internal/serve coordinator):
	// Run is the tracked query run ("serve:qN"), Key the worker id,
	// Point the lease's range id, and Route the lease kind ("range" or
	// "prefetch"). KindLeaseGrant marks a dispensed lease,
	// KindLeaseDone a completion folded (DurMS = lease hold time),
	// KindLeaseExpired a deadline passing and the lease requeued.
	KindLeaseGrant   = "lease_grant"
	KindLeaseDone    = "lease_done"
	KindLeaseExpired = "lease_expired"
	// KindWorkerStale is raised (as a structured WARN) when a worker
	// holding an active lease has not polled or reported for longer
	// than the coordinator's staleness threshold — early notice,
	// before the lease itself expires. Value is seconds since the
	// worker was last seen.
	KindWorkerStale = "worker_stale"
)

// Event is one executor lifecycle record. Fields are flat and typed so
// every event marshals to one stable JSONL line; unused fields are
// omitted. Seq and WallNs are assigned by the sink at Emit time.
type Event struct {
	// Seq is the ring-assigned sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// WallNs is the wall-clock emit time in Unix nanoseconds.
	WallNs int64 `json:"wall_ns"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Run labels the owning run registry entry ("fleet", "sweep", ...).
	Run string `json:"run,omitempty"`
	// Point is the task index within the run (host index, grid index).
	// Omitted when zero — consumers should key on Kind, not presence.
	Point int `json:"point,omitempty"`
	// Key identifies the scenario (cache key or signature label).
	Key string `json:"key,omitempty"`
	// Route is the execution strategy chosen (des, fluid, audit, ...).
	Route string `json:"route,omitempty"`
	// Why is the human-readable reason for the decision.
	Why string `json:"why,omitempty"`
	// Value carries the event's scalar (audit observed error, ...).
	Value float64 `json:"value,omitempty"`
	// Tol is the tolerance Value was judged against (audit events).
	Tol float64 `json:"tol,omitempty"`
	// OverTol marks an audit result that exceeded Tol — the sink raises
	// a structured warning the moment such an event is emitted.
	OverTol bool `json:"over_tol,omitempty"`
	// DurMS is the event's duration in milliseconds (point_finish).
	DurMS float64 `json:"dur_ms,omitempty"`
}

// Sink receives executor instrumentation. *Server implements it; tests
// may substitute their own. Implementations must be safe for
// concurrent use — every worker emits into the same sink.
type Sink interface {
	// Emit records one lifecycle event.
	Emit(Event)
	// StartRun registers a unit-of-work group in the progress registry
	// and returns its handle. All *Run methods are nil-safe, so callers
	// holding a nil Sink can skip StartRun and still call Advance/
	// Finish unconditionally.
	StartRun(label string, total int64, phases ...string) *Run
	// RunMetrics folds one completed simulation's registry snapshot
	// into the fleet-cumulative /metrics rollup.
	RunMetrics(snap Snapshot)
}

// MetricSource is the structural interface /metrics samples live.
// It deliberately uses only builtin types so implementations
// (runner.Pool, runcache.Store, fidelity.Router) need not import obs.
// emit is called once per sample with a full Prometheus metric name
// (optionally carrying {labels}), its type (counter/gauge), and the
// current value; implementations must read only atomic or
// mutex-guarded state — /metrics is served while workers run.
type MetricSource interface {
	MetricsInto(emit func(name, typ string, v float64))
}

// The process-global sink, installed by Flags.Start (i.e. -listen) and
// read by every instrumented layer. Reading it costs one atomic load
// and a nil check — the entire overhead of the disabled path.

type sinkHolder struct{ s Sink }

var global atomic.Pointer[sinkHolder]

// Set installs s as the process-global sink (nil uninstalls).
func Set(s Sink) {
	if s == nil {
		global.Store(nil)
		return
	}
	global.Store(&sinkHolder{s: s})
}

// Default returns the process-global sink, or nil when none is
// installed. Callers must nil-check:
//
//	if s := obs.Default(); s != nil { s.Emit(...) }
func Default() Sink {
	h := global.Load()
	if h == nil {
		return nil
	}
	return h.s
}
