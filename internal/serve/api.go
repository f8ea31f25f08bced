// Package serve is the long-lived simulation service: a coordinator
// daemon that answers what-if queries (a fleet scenario in, streamed
// aggregates out) and dispenses the fleet's host-index ranges to
// registered shard workers, the way runner.MapOrdered dispenses chunks
// to pool workers — except the "pool" spans processes and machines.
//
// Everything that makes the second query cheaper than the first stays
// resident between requests: workers keep their runner arenas and
// calibrated fidelity routers; the coordinator keeps the
// content-addressed run cache and the warm-start store hot and serves
// both to workers over HTTP (runcache.HTTPBackend), so results,
// calibration blobs, and checkpoints dedup across machines.
//
// Determinism is the contract the sharding must not break: the
// simulator is bit-deterministic per Params, hosts are random-access,
// and cluster.RunRange makes a range run byte-identical to the
// corresponding slice of a full run. The coordinator therefore folds
// worker partials in range order — never in arrival order — so the
// merged aggregates (including the order-sensitive quantile reservoir
// and the golden point hash) are byte-identical to a single-process
// RunStream of the same query, no matter how many workers ran it or in
// what order they finished.
package serve

import (
	"fmt"

	"hic/internal/cluster"
	"hic/internal/fidelity"
	"hic/internal/sim"
	"hic/internal/stats"
)

// QueryRequest is a what-if query: a fleet scenario plus execution
// knobs. The zero value of every knob means "the default the CLIs use",
// so a minimal query is just {"hosts": N, "seed": S}.
type QueryRequest struct {
	// Hosts is the fleet size; required, positive.
	Hosts int `json:"hosts"`
	// WindowsPerHost matches cluster.Config (0 = 1).
	WindowsPerHost int `json:"windows_per_host,omitempty"`
	// Seed drives the fleet catalog draws.
	Seed uint64 `json:"seed"`
	// WarmupMS and MeasureMS are the per-host windows in simulated
	// milliseconds (0 = the cluster defaults).
	WarmupMS  float64 `json:"warmup_ms,omitempty"`
	MeasureMS float64 `json:"measure_ms,omitempty"`

	// Fidelity selects the execution strategy: "", "des", "fluid", or
	// "auto" (see fidelity.ParseMode). "" with EarlyStop false runs
	// plain DES with no router at all — the byte-golden path.
	Fidelity  string  `json:"fidelity,omitempty"`
	Tol       float64 `json:"tol,omitempty"`
	AuditRate float64 `json:"audit_rate,omitempty"`
	EarlyStop bool    `json:"early_stop,omitempty"`
	// Warm selects cross-run warm start ("", "off", "calib", "full");
	// non-off requires the coordinator to have a warm store configured.
	Warm string `json:"warm,omitempty"`
	// NoCache bypasses the shared run cache for this query.
	NoCache bool `json:"no_cache,omitempty"`

	// RangeHosts overrides the shard granularity (0 = auto: the fleet
	// split about eight ranges per registered worker, like the runner's
	// chunk frontier).
	RangeHosts int `json:"range_hosts,omitempty"`
	// Points streams every scatter point back on the query response
	// (the aggregates and hash are computed either way).
	Points bool `json:"points,omitempty"`
	// Trace records the query's end-to-end lifecycle: the coordinator
	// assigns a trace id, stamps every lease with it, collects spans
	// (queue wait, prefetch barrier, each range lease per worker,
	// merge) and returns them on the result for Chrome trace_event
	// export. Tracing never changes results — merged hashes are
	// byte-identical with it on or off — and is deliberately excluded
	// from FidelitySignature (it does not affect routing).
	Trace bool `json:"trace,omitempty"`
	// TimeoutSec aborts the query if the fleet has not merged in time
	// (0 = no deadline beyond the HTTP client's own).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// Validate checks the parts of a query the coordinator must reject
// before leasing work (worker-side config building catches the rest).
func (q QueryRequest) Validate() error {
	if q.Hosts <= 0 {
		return fmt.Errorf("serve: hosts must be positive, got %d", q.Hosts)
	}
	if q.Fidelity != "" {
		if _, err := fidelity.ParseMode(q.Fidelity); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if q.Warm != "" {
		if _, err := fidelity.ParseWarmMode(q.Warm); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if q.RangeHosts < 0 {
		return fmt.Errorf("serve: range_hosts must be non-negative")
	}
	return nil
}

// ClusterConfig lowers the scenario part of the query to a fleet
// config. Execution wiring (cache, router, pool) is the worker's.
func (q QueryRequest) ClusterConfig() cluster.Config {
	return cluster.Config{
		Hosts:          q.Hosts,
		WindowsPerHost: q.WindowsPerHost,
		Seed:           q.Seed,
		Warmup:         sim.Duration(q.WarmupMS * float64(sim.Millisecond)),
		Measure:        sim.Duration(q.MeasureMS * float64(sim.Millisecond)),
	}
}

// FidelitySignature names the resident router a worker must use for
// this query: every knob that changes routing or calibration is in the
// key, so two queries share a router (and its anchor calibrations)
// exactly when reusing it is sound. The fleet seed is included because
// anchor seeds derive from it (cluster.SeedPool), and NoCache because a
// no_cache query's router must not read or write the shared cache.
func (q QueryRequest) FidelitySignature() string {
	return fmt.Sprintf("m=%s tol=%g audit=%g es=%t warm=%s seed=%d nocache=%t",
		q.Fidelity, q.Tol, q.AuditRate, q.EarlyStop, q.Warm, q.Seed, q.NoCache)
}

// Prefetchable reports whether the coordinator should dispense
// signature prefetch leases before this query's ranges: auto-mode
// fidelity, the only mode that calibrates. Prefetch is parallelism,
// never results, so there is no knob to turn it off.
func (q QueryRequest) Prefetchable() bool {
	return q.Fidelity == string(fidelity.ModeAuto)
}

// NeedsRouter reports whether the query routes through a fidelity
// router at all; plain DES without early stopping runs bare.
func (q QueryRequest) NeedsRouter() bool {
	return (q.Fidelity != "" && q.Fidelity != string(fidelity.ModeDES)) ||
		q.EarlyStop || (q.Warm != "" && q.Warm != string(fidelity.WarmOff))
}

// LeasePrefetch marks a prefetch lease: instead of executing hosts
// [Lo, Hi), the worker calibrates the distinct fidelity signatures of
// the representative hosts in Reps (anchor grid and both noise tiers)
// so the shared run cache and warm store are hot before range execution
// starts. Everything a prefetch computes is content-addressed, so N
// workers prefetching disjoint rep chunks calibrate the fleet in
// parallel without duplicating DES.
const LeasePrefetch = "prefetch"

// Lease is one dispensed unit of work: hosts [Lo, Hi) of the job's
// fleet, or (Kind == LeasePrefetch) a chunk of signature representatives
// to calibrate ahead of the ranges. The full spec rides along so workers
// are stateless between leases — any worker can run any lease of any
// job.
type Lease struct {
	Job     string       `json:"job"`
	RangeID int          `json:"range_id"`
	Lo      int          `json:"lo"`
	Hi      int          `json:"hi"`
	Kind    string       `json:"kind,omitempty"`
	Reps    []int        `json:"reps,omitempty"`
	Spec    QueryRequest `json:"spec"`
	// Trace is the owning query's trace id ("" = untraced). A worker
	// holding a traced lease stamps its completion with the id and its
	// execution window so the coordinator can attribute the span.
	Trace string `json:"trace,omitempty"`
}

// RangePartial is a worker's product for one lease: the range's scatter
// points in emission order, its execution accounting, and the online
// moment accumulators (exact accumulator state — see stats.Moments
// JSON) the coordinator merges in range order as a cross-check against
// its own point-folded aggregates.
type RangePartial struct {
	Job     string          `json:"job"`
	RangeID int             `json:"range_id"`
	Worker  string          `json:"worker"`
	Lo      int             `json:"lo"`
	Hi      int             `json:"hi"`
	Points  []cluster.Point `json:"points"`
	Stats   cluster.Stats   `json:"stats"`
	Util    stats.Moments   `json:"util"`
	Drop    stats.Moments   `json:"drop"`
	// Prefetch marks this as a prefetch lease's completion: Stats carry
	// the calibration work (anchor runs, noise runs) and
	// Points stay empty. RangeID indexes the job's prefetch leases, a
	// separate id space from its ranges.
	Prefetch bool `json:"prefetch,omitempty"`
	// Err, when non-empty, reports the range failed; the coordinator
	// fails the whole query (simulation errors are never partial).
	Err string `json:"err,omitempty"`
	// Trace echoes the lease's trace id; ExecStartNs/ExecEndNs bound
	// the worker's execution window (Unix nanoseconds, the worker's
	// clock) so the coordinator can nest an "exec" span inside the
	// lease envelope it observed. All three are zero when untraced.
	Trace       string `json:"trace,omitempty"`
	ExecStartNs int64  `json:"exec_start_ns,omitempty"`
	ExecEndNs   int64  `json:"exec_end_ns,omitempty"`
	// Deltas, always attached by current workers, carry the lease's
	// worker-local execution-layer counter deltas (run-cache client
	// traffic, pool task throughput, execution wall) — the federated
	// half of the coordinator's per-worker hic_worker_* series; the
	// cluster.Stats counters federate from Stats directly.
	Deltas *WorkerDeltas `json:"deltas,omitempty"`
}

// WorkerDeltas is the worker-local counter movement across one lease:
// what this lease cost the worker beyond the cluster.Stats accounting.
// All fields are deltas (after minus before), so the coordinator can
// sum them per worker without double-counting across leases.
type WorkerDeltas struct {
	// CacheHits/CacheMisses/CacheCollapses are the shared results
	// cache's client-side movement (the HTTP-backed runcache store).
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	CacheMisses    uint64 `json:"cache_misses,omitempty"`
	CacheCollapses uint64 `json:"cache_collapses,omitempty"`
	// PoolTasks is how many runner-pool tasks completed during the
	// lease.
	PoolTasks uint64 `json:"pool_tasks,omitempty"`
	// ExecMS is the lease's execution wall time on the worker.
	ExecMS float64 `json:"exec_ms,omitempty"`
}

// QueryResult is the merged answer: fleet aggregates byte-identical to
// a single-process run, plus the serving metadata operators care about.
type QueryResult struct {
	Stats cluster.Stats `json:"stats"`
	// AggregateHash fingerprints the merged scatter with the same
	// scheme as the committed fleet golden (cluster.PointHasher): equal
	// hash ⇔ byte-identical points in identical order.
	AggregateHash string `json:"aggregate_hash"`
	// Points is the scatter size (hosts × windows).
	Points int `json:"points"`
	// Ranges, Workers, Reassigned, Duplicates describe the sharding:
	// how many ranges the fleet split into, how many workers reported
	// at least one, how many leases expired and were re-dispensed, and
	// how many duplicate completions were rejected (first wins; a
	// nonzero count with correct results is the reassignment path
	// working, not a bug).
	Ranges     int    `json:"ranges"`
	Workers    int    `json:"workers"`
	Reassigned uint64 `json:"reassigned"`
	Duplicates uint64 `json:"duplicates"`
	// Prefetched is how many distinct fidelity signatures the
	// coordinator dispensed as prefetch leases before range execution
	// (0 = prefetch skipped or not applicable).
	Prefetched int `json:"prefetched,omitempty"`
	// MergeSkew is the largest absolute difference between the
	// point-folded aggregates (authoritative — these are what Stats
	// reports) and the range-order merge of the workers' moment
	// partials. Pairwise moment combination agrees with sequential
	// accumulation only to rounding, so a healthy query shows ~1e-16;
	// anything large means a partial was dropped or folded out of
	// order.
	MergeSkew float64 `json:"merge_skew"`
	// ElapsedMS and HostsPerSec are coordinator wall-clock measures of
	// this query.
	ElapsedMS   float64 `json:"elapsed_ms"`
	HostsPerSec float64 `json:"hosts_per_sec"`
	// TraceID, Trace, and Phases are present only on traced queries
	// (QueryRequest.Trace): the assigned trace id, the collected
	// lifecycle spans (coordinator lease envelopes + worker execution
	// windows, sorted by start time), and the wall-clock phase
	// breakdown derived from them. Feed Trace to
	// trace.WriteChromeWallSpans for Perfetto.
	TraceID string      `json:"trace_id,omitempty"`
	Trace   []TraceSpan `json:"trace,omitempty"`
	Phases  *PhaseWall  `json:"phases,omitempty"`
}

// Wire kinds on the NDJSON query response stream.
const (
	// KindPoint lines carry one scatter point (only with Points: true).
	KindPoint = "point"
	// KindRange lines report one range folded into the merge.
	KindRange = "range"
	// KindResult is the final line of a successful query.
	KindResult = "result"
	// KindError is the final line of a failed query.
	KindError = "error"
)

// QueryEvent is one NDJSON line of the query response.
type QueryEvent struct {
	Kind   string         `json:"kind"`
	Point  *cluster.Point `json:"point,omitempty"`
	Range  *RangeDone     `json:"range,omitempty"`
	Result *QueryResult   `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// RangeDone is the progress payload of a KindRange line.
type RangeDone struct {
	RangeID int    `json:"range_id"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Worker  string `json:"worker"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
}

// HTTP mount points of the serve API (the cache mounts are
// runcache.RemoteResultsPath and runcache.RemoteWarmPath).
const (
	QueryPath    = "/api/v1/query"
	RegisterPath = "/api/v1/workers/register"
	NextPath     = "/api/v1/shard/next"
	DonePath     = "/api/v1/shard/done"
	StatusPath   = "/api/v1/status"
	WorkersPath  = "/api/v1/workers"
)

// WorkerInfo is one worker's entry in the fleet health registry
// (GET WorkersPath): liveness, the lease it holds, its lifetime lease
// accounting, and the federated counters the coordinator has folded
// from its completions (the same values /metrics exposes as
// hic_worker_* series).
type WorkerInfo struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// RegisteredAgoSec/LastSeenAgoSec age the worker's registration and
	// most recent contact (register, poll, or completion) in seconds.
	RegisteredAgoSec float64 `json:"registered_ago_sec"`
	LastSeenAgoSec   float64 `json:"last_seen_ago_sec"`
	// Stale means the worker has not been seen for longer than the
	// coordinator's staleness threshold (Options.StaleAfter). A stale
	// worker holding a lease has already been WARNed about on the obs
	// event stream.
	Stale bool `json:"stale,omitempty"`
	// BackoffMS is the worker's self-reported idle poll backoff at its
	// last poll (0 = actively working or polling at base cadence).
	BackoffMS float64 `json:"backoff_ms,omitempty"`
	// Active is the lease the worker currently holds (nil = idle).
	Active *ActiveLease `json:"active,omitempty"`
	// RangesDone/PrefetchesDone count accepted completions;
	// Expirations counts leases this worker held past their deadline
	// (requeued elsewhere); Duplicates counts its completions rejected
	// because a reassigned copy finished first.
	RangesDone     uint64 `json:"ranges_done"`
	PrefetchesDone uint64 `json:"prefetches_done"`
	Expirations    uint64 `json:"expirations,omitempty"`
	Duplicates     uint64 `json:"duplicates,omitempty"`
	// Counters is the federated per-worker accounting: cluster.Stats
	// counters plus worker-local deltas, summed over this worker's
	// accepted completions. Keys are the hic_worker_* series suffixes
	// ("simulated_total", "cache_hits_total", ...), so the registry
	// and /metrics agree by construction — fidelity anchor accounting
	// (anchor_runs_total, anchor_loaded_total, ...) included.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// ActiveLease describes the lease a worker holds right now.
type ActiveLease struct {
	Job     string  `json:"job"`
	RangeID int     `json:"range_id"`
	Kind    string  `json:"kind"` // "range" or "prefetch"
	Lo      int     `json:"lo"`
	Hi      int     `json:"hi"`
	HeldMS  float64 `json:"held_ms"`
}
