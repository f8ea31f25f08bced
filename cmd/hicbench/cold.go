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
	"hic/internal/runcache"
	"hic/internal/serve"
)

// coldPathBench is the cold-path acceleration section: the same
// never-seen auto-routed fleet run twice in one process — once with the
// cold-path accelerations off (knee search and calibration transfer
// disabled: the pre-acceleration cold baseline) and once with them on —
// so Speedup is a pure strategy ratio, independent of the machine the
// bench happens to run on. Accuracy stays hard-gated: the accelerated
// pass audits at the same -audit-rate, and any audited point over
// tolerance fails -compare unconditionally.
//
// The sharded determinism check replays the accelerated query through a
// cold coordinator twice — one worker, then two workers racing prefetch
// leases and ranges — and both aggregate hashes must equal the
// in-process run's. That is the knee-search/transfer analogue of the
// serve section's hash gate: located knees and borrowed calibrations
// must be pure functions of the query, never of which worker touched a
// signature first.
type coldPathBench struct {
	Hosts        int     `json:"hosts"`
	FidelityMode string  `json:"fidelity_mode,omitempty"`
	Tol          float64 `json:"tol"`
	AuditRate    float64 `json:"audit_rate"`

	// Baseline: empty stores, knee search and transfer off.
	BaselineWallSeconds  float64 `json:"baseline_wall_seconds"`
	BaselineHostsPerSec  float64 `json:"baseline_hosts_per_sec"`
	BaselineSimulated    uint64  `json:"baseline_simulated"`
	BaselineAnchorRuns   uint64  `json:"baseline_anchor_runs"`
	BaselineAudited      uint64  `json:"baseline_audited"`
	BaselineAuditOverTol uint64  `json:"baseline_audit_over_tol"`
	BaselineAuditMaxErr  float64 `json:"baseline_audit_max_err"`

	// Accelerated: empty stores, knee search and transfer on (router
	// defaults, the same configuration the CLIs ship).
	ColdWallSeconds   float64 `json:"cold_wall_seconds"`
	ColdHostsPerSec   float64 `json:"cold_hosts_per_sec"`
	Simulated         uint64  `json:"simulated"`
	FluidRouted       uint64  `json:"fluid_routed"`
	AnchorRuns        uint64  `json:"anchor_runs"`
	AnchorTransferred uint64  `json:"anchor_transferred"`
	AnchorRefined     uint64  `json:"anchor_refined"`
	KneeProbes        uint64  `json:"knee_probes"`
	KneeBypassed      uint64  `json:"knee_bypassed"`
	Audited           uint64  `json:"audited"`
	AuditOverTol      uint64  `json:"audit_over_tol"`
	AuditMaxErr       float64 `json:"audit_max_err"`

	// Speedup is accelerated over baseline cold hosts/sec.
	Speedup float64 `json:"speedup"`

	// Sharded determinism: the accelerated query served cold by a
	// coordinator with one worker, then by a second coordinator with two
	// workers (prefetch leases split across both); each hash must equal
	// the in-process run's. A smaller fleet than the headline passes —
	// determinism does not get harder with size, wall-clock does.
	ShardHosts    int    `json:"shard_hosts"`
	InProcessHash string `json:"in_process_hash"`
	OneWorkerHash string `json:"one_worker_hash"`
	TwoWorkerHash string `json:"two_worker_hash"`
	HashMatch     bool   `json:"hash_match"`
	// Prefetched is the distinct-signature count the two-worker
	// coordinator dispensed as prefetch leases before its ranges.
	Prefetched int `json:"prefetched"`
}

// runColdFleet runs one cold auto-routed fleet pass with the given
// acceleration switches and fresh router state.
func runColdFleet(label string, hosts int, tol, auditRate float64, accel bool) (cluster.Stats, float64, error) {
	cfg := fleetConfig(hosts)
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         tol,
		AuditRate:   auditRate,
		EarlyStop:   true,
		AnchorSeeds: cluster.SeedPool(cfg),
		KneeSearch:  accel,
		Transfer:    accel,
	})
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	cfg.Exec = router
	return runSection(cfg, label)
}

// coldQuery serves the accelerated query cold through a fresh
// coordinator with n in-process workers and returns the result.
func coldQuery(spec serve.QueryRequest, n int) (*serve.QueryResult, error) {
	dir, err := os.MkdirTemp("", "hicbench-cold-shard-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := runcache.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{Store: store, LeaseTimeout: 2 * time.Minute})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // Serve returns on Close
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < n; i++ {
		w := serve.NewWorker(base, serve.WorkerOptions{Name: fmt.Sprintf("cold%d", i)})
		go w.Run(ctx) //nolint:errcheck // ends with ctx
	}
	return serve.NewClient(base, nil).Query(ctx, spec, nil)
}

// runColdPath measures the cold-path section. When the fidelity section
// already ran the identical baseline configuration at the same scale,
// its pass is reused instead of re-run (the baseline is knee search and
// transfer off, which is exactly what runFleetFidelity measures).
func runColdPath(hosts int, tol, auditRate float64, fid *fidelityBench) (coldPathBench, error) {
	cb := coldPathBench{Hosts: hosts, FidelityMode: "auto", Tol: tol, AuditRate: auditRate}

	if fid != nil && fid.Hosts == hosts && fid.Tol == tol && fid.AuditRate == auditRate {
		cb.BaselineWallSeconds = fid.WallSeconds
		cb.BaselineHostsPerSec = fid.HostsPerSec
		cb.BaselineSimulated = fid.Simulated
		cb.BaselineAnchorRuns = fid.AnchorRuns
		cb.BaselineAudited = fid.Audited
		cb.BaselineAuditOverTol = fid.AuditOverTol
		cb.BaselineAuditMaxErr = fid.AuditMaxErr
	} else {
		st, wall, err := runColdFleet("cold baseline", hosts, tol, auditRate, false)
		if err != nil {
			return cb, err
		}
		cb.BaselineWallSeconds = wall
		cb.BaselineHostsPerSec = float64(hosts) / wall
		cb.BaselineSimulated = st.Simulated
		cb.BaselineAnchorRuns = st.AnchorRuns
		cb.BaselineAudited = st.Audited
		cb.BaselineAuditOverTol = st.AuditOverTol
		cb.BaselineAuditMaxErr = st.AuditMaxErr
	}

	st, wall, err := runColdFleet("cold accel", hosts, tol, auditRate, true)
	if err != nil {
		return cb, err
	}
	cb.ColdWallSeconds = wall
	cb.ColdHostsPerSec = float64(hosts) / wall
	cb.Simulated = st.Simulated
	cb.FluidRouted = st.FluidRouted
	cb.AnchorRuns = st.AnchorRuns
	cb.AnchorTransferred = st.AnchorTransferred
	cb.AnchorRefined = st.AnchorRefined
	cb.KneeProbes = st.KneeProbes
	cb.KneeBypassed = st.KneeBypassed
	cb.Audited = st.Audited
	cb.AuditOverTol = st.AuditOverTol
	cb.AuditMaxErr = st.AuditMaxErr
	if cb.BaselineHostsPerSec > 0 {
		cb.Speedup = cb.ColdHostsPerSec / cb.BaselineHostsPerSec
	}
	if cb.AuditOverTol > 0 {
		fmt.Fprintf(os.Stderr, "hicbench: WARNING: cold path: %d/%d audited points exceeded tol %.3f (max err %.4f)\n",
			cb.AuditOverTol, cb.Audited, tol, cb.AuditMaxErr)
	}

	// Sharded determinism at a fifth of the headline fleet (floor 100
	// hosts — below that just reuse the full size).
	cb.ShardHosts = hosts / 5
	if cb.ShardHosts < 100 {
		cb.ShardHosts = hosts
	}
	base := cluster.DefaultConfig()
	spec := serve.QueryRequest{
		Hosts:      cb.ShardHosts,
		Seed:       base.Seed,
		WarmupMS:   4,
		MeasureMS:  8,
		Fidelity:   "auto",
		Tol:        tol,
		AuditRate:  auditRate,
		EarlyStop:  true,
		RangeHosts: (cb.ShardHosts + 15) / 16,
	}

	// In-process reference with the exact router a worker builds.
	dir, err := os.MkdirTemp("", "hicbench-cold-single-")
	if err != nil {
		return cb, err
	}
	defer os.RemoveAll(dir)
	store, err := runcache.Open(dir)
	if err != nil {
		return cb, err
	}
	scfg := spec.ClusterConfig()
	scfg.Cache = store
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         tol,
		AuditRate:   auditRate,
		EarlyStop:   true,
		AnchorSeeds: cluster.SeedPool(scfg),
		Cache:       store,
		KneeSearch:  true,
		Transfer:    true,
	})
	if err != nil {
		return cb, err
	}
	scfg.Exec = router
	hasher := cluster.NewPointHasher()
	if _, err := cluster.RunStream(scfg, func(p cluster.Point) error {
		hasher.Add(p)
		return nil
	}); err != nil {
		return cb, err
	}
	cb.InProcessHash = hasher.Sum()

	one, err := coldQuery(spec, 1)
	if err != nil {
		return cb, fmt.Errorf("one-worker cold query: %w", err)
	}
	two, err := coldQuery(spec, 2)
	if err != nil {
		return cb, fmt.Errorf("two-worker cold query: %w", err)
	}
	cb.OneWorkerHash = one.AggregateHash
	cb.TwoWorkerHash = two.AggregateHash
	cb.Prefetched = two.Prefetched
	cb.HashMatch = one.AggregateHash == cb.InProcessHash && two.AggregateHash == cb.InProcessHash
	if !cb.HashMatch {
		fmt.Fprintf(os.Stderr, "hicbench: WARNING: cold path hash mismatch: in-process %s one-worker %s two-worker %s\n",
			cb.InProcessHash, cb.OneWorkerHash, cb.TwoWorkerHash)
	}
	return cb, nil
}
