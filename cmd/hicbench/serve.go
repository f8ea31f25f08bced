package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"hic/internal/cluster"
	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/serve"
	"hic/internal/stats"
)

// serveBench is the serving-layer section: the same catalog query run
// three ways — single-process (the golden reference), cold through a
// coordinator sharding across two in-process workers, and again warm
// against the workers' resident routers and the coordinator's shared
// cache. Two contracts gate it:
//
//   - hash_match: every merged aggregate hash equals the
//     single-process hash (byte-identity across sharding and
//     residency) — a mismatch fails -compare unconditionally;
//   - warm_anchor_runs/warm_simulated: the warm queries re-calibrate
//     and re-simulate nothing (residency) — a nonzero anchor count
//     fails -compare unconditionally;
//   - fed_sum_match: the coordinator's federated per-worker
//     hic_worker_* counters sum to the merged queries' counters — a
//     mismatch means attribution lost or double-counted completions
//     and fails -compare unconditionally.
//
// scaling_ratio (cold sharded hosts/sec over single-process) and
// warm_speedup are noisy-class: on a single-core runner the sharded
// cold pass only shows protocol overhead (ratio ≈ 1); with real cores
// per worker it shows the fan-out win. The warm query runs five times
// untraced, alternating with five runs with end-to-end tracing on:
// every hash folds into hash_match (tracing must not perturb bytes),
// warm_wall_seconds and traced_wall_seconds are the two sides' median
// walls, trace_overhead (their ratio) is the noisy-class cost of the
// instrumented wire path, and the phase_*_ms fields record where the
// last traced query's wall went (queue wait, prefetch barrier, range
// execution, merge) from the coordinator's spans.
type serveBench struct {
	Hosts        int     `json:"hosts"`
	FidelityMode string  `json:"fidelity_mode,omitempty"`
	Warm         string  `json:"warm,omitempty"`
	Tol          float64 `json:"tol"`

	SingleHash        string  `json:"single_hash"`
	SingleWallSeconds float64 `json:"single_wall_seconds"`
	SingleHostsPerSec float64 `json:"single_hosts_per_sec"`

	ColdHash        string  `json:"cold_hash"`
	ColdWallSeconds float64 `json:"cold_wall_seconds"`
	ColdHostsPerSec float64 `json:"cold_hosts_per_sec"`

	WarmHash        string  `json:"warm_hash"`
	WarmWallSeconds float64 `json:"warm_wall_seconds"`
	WarmHostsPerSec float64 `json:"warm_hosts_per_sec"`
	WarmSpeedup     float64 `json:"warm_speedup"`
	WarmAnchorRuns  uint64  `json:"warm_anchor_runs"`
	WarmSimulated   uint64  `json:"warm_simulated"`

	TracedHash        string  `json:"traced_hash,omitempty"`
	TracedWallSeconds float64 `json:"traced_wall_seconds,omitempty"`
	TraceSpans        int     `json:"trace_spans,omitempty"`
	TraceOverhead     float64 `json:"trace_overhead,omitempty"`
	PhaseQueueMS      float64 `json:"phase_queue_ms,omitempty"`
	PhasePrefetchMS   float64 `json:"phase_prefetch_ms,omitempty"`
	PhaseExecuteMS    float64 `json:"phase_execute_ms,omitempty"`
	PhaseMergeMS      float64 `json:"phase_merge_ms,omitempty"`
	FedSumMatch       bool    `json:"fed_sum_match"`

	HashMatch    bool    `json:"hash_match"`
	ScalingRatio float64 `json:"scaling_ratio"`
	Workers      int     `json:"workers"`
	Ranges       int     `json:"ranges"`
	Reassigned   uint64  `json:"reassigned"`
	Duplicates   uint64  `json:"duplicates"`
	MergeSkew    float64 `json:"merge_skew"`
}

// runServe measures the serving layer end to end in one process:
// coordinator, two workers, and the client all here, talking over real
// loopback HTTP exactly as the hicserve binary wires them.
func runServe(hosts int, tol float64) (serveBench, error) {
	sb := serveBench{Hosts: hosts, FidelityMode: "auto", Warm: "off", Tol: tol}
	spec := serve.QueryRequest{
		Hosts:     hosts,
		Seed:      1,
		WarmupMS:  2,
		MeasureMS: 3,
		Fidelity:  "auto",
		Tol:       tol,
		EarlyStop: true,
		// Fixed shard granularity so the range count (and therefore the
		// lease protocol traffic) is machine-independent.
		RangeHosts: (hosts + 15) / 16,
	}

	// Single-process reference: the identical scenario and router config
	// a worker builds (see serve.(*Worker).routerFor), private cache.
	singleDir, err := os.MkdirTemp("", "hicbench-serve-single-")
	if err != nil {
		return sb, err
	}
	defer os.RemoveAll(singleDir)
	sstore, err := runcache.Open(singleDir)
	if err != nil {
		return sb, err
	}
	scfg := spec.ClusterConfig()
	scfg.Cache = sstore
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         tol,
		EarlyStop:   true,
		AnchorSeeds: cluster.SeedPool(scfg),
		Cache:       sstore,
	})
	if err != nil {
		return sb, err
	}
	scfg.Exec = router
	hasher := cluster.NewPointHasher()
	start := time.Now()
	if _, err := cluster.RunStream(scfg, func(p cluster.Point) error {
		hasher.Add(p)
		return nil
	}); err != nil {
		return sb, err
	}
	sb.SingleWallSeconds = time.Since(start).Seconds()
	sb.SingleHash = hasher.Sum()
	sb.SingleHostsPerSec = float64(hosts) / sb.SingleWallSeconds

	// Coordinator with a fresh store, two in-process workers over real
	// loopback HTTP.
	coordDir, err := os.MkdirTemp("", "hicbench-serve-coord-")
	if err != nil {
		return sb, err
	}
	defer os.RemoveAll(coordDir)
	cstore, err := runcache.Open(coordDir)
	if err != nil {
		return sb, err
	}
	// The coordinator carries its obs control plane so the federated
	// per-worker counters are scrapeable from /metrics on the same mux,
	// exactly as hicserve wires it.
	obsSrv := obs.NewServer(obs.Options{Warn: os.Stderr})
	defer obsSrv.Close()
	srv, err := serve.NewServer(serve.Options{Store: cstore, LeaseTimeout: 2 * time.Minute, Obs: obsSrv})
	if err != nil {
		return sb, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sb, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const nWorkers = 2
	for i := 0; i < nWorkers; i++ {
		w := serve.NewWorker(base, serve.WorkerOptions{Name: fmt.Sprintf("bench%d", i)})
		go w.Run(ctx) //nolint:errcheck // ends with ctx
	}
	sb.Workers = nWorkers

	client := serve.NewClient(base, nil)
	cold, err := client.Query(ctx, spec, nil)
	if err != nil {
		return sb, fmt.Errorf("cold query: %w", err)
	}

	// Untraced and traced warm queries alternate against the same
	// resident state. One warm wall is set mostly by where each worker
	// sits in its idle back-off, so the overhead compares medians.
	tspec := spec
	tspec.Trace = true
	var warmWalls, tracedWalls []float64
	results := []*serve.QueryResult{cold}
	for i := 0; i < 5; i++ {
		w, err := client.Query(ctx, spec, nil)
		if err != nil {
			return sb, fmt.Errorf("warm query: %w", err)
		}
		tr, err := client.Query(ctx, tspec, nil)
		if err != nil {
			return sb, fmt.Errorf("traced query: %w", err)
		}
		warmWalls = append(warmWalls, w.ElapsedMS/1e3)
		tracedWalls = append(tracedWalls, tr.ElapsedMS/1e3)
		results = append(results, w, tr)
	}
	warm, traced := results[1], results[len(results)-1] // first warm, last traced

	sb.ColdHash = cold.AggregateHash
	sb.ColdWallSeconds = cold.ElapsedMS / 1e3
	sb.ColdHostsPerSec = cold.HostsPerSec
	sb.WarmHash = warm.AggregateHash
	sb.WarmWallSeconds = stats.Percentile(warmWalls, 0.5)
	sb.WarmHostsPerSec = float64(hosts) / sb.WarmWallSeconds
	if sb.ColdHostsPerSec > 0 {
		sb.WarmSpeedup = sb.WarmHostsPerSec / sb.ColdHostsPerSec
	}
	sb.TracedHash = traced.AggregateHash
	sb.TracedWallSeconds = stats.Percentile(tracedWalls, 0.5)
	sb.TraceSpans = len(traced.Trace)
	sb.TraceOverhead = sb.TracedWallSeconds / sb.WarmWallSeconds
	if p := traced.Phases; p != nil {
		sb.PhaseQueueMS = p.QueueMS
		sb.PhasePrefetchMS = p.PrefetchMS
		sb.PhaseExecuteMS = p.ExecuteMS
		sb.PhaseMergeMS = p.MergeMS
	}
	sb.HashMatch = true
	for _, res := range results {
		sb.HashMatch = sb.HashMatch && res.AggregateHash == sb.SingleHash
		sb.Reassigned += res.Reassigned
		sb.Duplicates += res.Duplicates
		sb.MergeSkew = max(sb.MergeSkew, res.MergeSkew)
		if res != cold {
			sb.WarmAnchorRuns += res.Stats.AnchorRuns
			sb.WarmSimulated += res.Stats.Simulated
		}
	}
	if sb.SingleHostsPerSec > 0 {
		sb.ScalingRatio = sb.ColdHostsPerSec / sb.SingleHostsPerSec
	}
	sb.Ranges = cold.Ranges
	if !sb.HashMatch {
		fmt.Fprintf(os.Stderr, "hicbench: WARNING: serve hash mismatch: single %s cold %s warm %s traced %s\n",
			sb.SingleHash, sb.ColdHash, sb.WarmHash, sb.TracedHash)
	}

	// Federation contract: every per-worker counter the coordinator
	// serves on /metrics sums to the merged queries' counter (both fold
	// the same accepted partials, so any drift is lost or
	// double-counted attribution).
	var merged cluster.Stats
	for _, res := range results {
		merged.AddExec(res.Stats)
		merged.Hosts += res.Stats.Hosts
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return sb, fmt.Errorf("scraping coordinator metrics: %w", err)
	}
	doc, err := obs.ParseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		return sb, fmt.Errorf("parsing coordinator metrics: %w", err)
	}
	sb.FedSumMatch = true
	merged.Each(func(name string, want uint64) {
		var sum float64
		for _, s := range doc.Find("hic_worker_" + name) {
			sum += s.Value
		}
		if sum != float64(want) {
			sb.FedSumMatch = false
			fmt.Fprintf(os.Stderr, "hicbench: WARNING: federated sum(hic_worker_%s) = %g, want %d\n",
				name, sum, want)
		}
	})
	return sb, nil
}
