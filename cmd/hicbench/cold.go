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

// coldPathBench is the cold-path section: a never-seen auto-routed
// fleet calibrated from empty stores, with its audit outcome, plus the
// sharded determinism check. Accuracy stays hard-gated: the pass audits
// at the same -audit-rate, and any audited point over tolerance fails
// -compare unconditionally.
//
// The sharded determinism check replays the query through a cold
// coordinator twice — one worker, then two workers racing prefetch
// leases and ranges — and both aggregate hashes must equal the
// in-process run's: calibration must be a pure function of the query,
// never of which worker touched a signature first.
type coldPathBench struct {
	Hosts        int     `json:"hosts"`
	FidelityMode string  `json:"fidelity_mode,omitempty"`
	Tol          float64 `json:"tol"`
	AuditRate    float64 `json:"audit_rate"`

	ColdWallSeconds float64 `json:"cold_wall_seconds"`
	ColdHostsPerSec float64 `json:"cold_hosts_per_sec"`
	Simulated       uint64  `json:"simulated"`
	FluidRouted     uint64  `json:"fluid_routed"`
	AnchorRuns      uint64  `json:"anchor_runs"`
	Audited         uint64  `json:"audited"`
	AuditOverTol    uint64  `json:"audit_over_tol"`
	AuditMaxErr     float64 `json:"audit_max_err"`

	// Sharded determinism: the query served cold by a coordinator with
	// one worker, then by a second coordinator with two workers
	// (prefetch leases split across both); each hash must equal the
	// in-process run's. A smaller fleet than the headline pass —
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

// runAutoFleet runs one auto-routed fleet pass (early stopping, audits)
// over fresh router state and no run cache.
func runAutoFleet(label string, hosts int, tol, auditRate float64) (cluster.Stats, float64, error) {
	cfg := fleetConfig(hosts)
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         tol,
		AuditRate:   auditRate,
		EarlyStop:   true,
		AnchorSeeds: cluster.SeedPool(cfg),
	})
	if err != nil {
		return cluster.Stats{}, 0, err
	}
	cfg.Exec = router
	return runSection(cfg, label)
}

// coldQuery serves the query cold through a fresh coordinator with n
// in-process workers and returns the result.
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

// runColdPath measures the cold-path section. When the fidelity
// section already ran the same auto fleet at the same scale, its pass
// is reused instead of re-run.
func runColdPath(hosts int, tol, auditRate float64, fid *fidelityBench) (coldPathBench, error) {
	cb := coldPathBench{Hosts: hosts, FidelityMode: "auto", Tol: tol, AuditRate: auditRate}

	if fid != nil && fid.Hosts == hosts && fid.Tol == tol && fid.AuditRate == auditRate {
		cb.ColdWallSeconds = fid.WallSeconds
		cb.Simulated = fid.Simulated
		cb.FluidRouted = fid.FluidRouted
		cb.AnchorRuns = fid.AnchorRuns
		cb.Audited = fid.Audited
		cb.AuditOverTol = fid.AuditOverTol
		cb.AuditMaxErr = fid.AuditMaxErr
	} else {
		st, wall, err := runAutoFleet("cold auto", hosts, tol, auditRate)
		if err != nil {
			return cb, err
		}
		cb.ColdWallSeconds = wall
		cb.Simulated = st.Simulated
		cb.FluidRouted = st.FluidRouted
		cb.AnchorRuns = st.AnchorRuns
		cb.Audited = st.Audited
		cb.AuditOverTol = st.AuditOverTol
		cb.AuditMaxErr = st.AuditMaxErr
	}
	cb.ColdHostsPerSec = float64(hosts) / cb.ColdWallSeconds
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
