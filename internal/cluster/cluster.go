// Package cluster regenerates Figure 1: a fleet-wide scatter of host
// access-link utilization against host drop rate. The paper's figure
// comes from a 24-hour production trace binned at 10 minutes; the
// synthetic equivalent runs many independent simulated hosts whose
// workload mix (senders, receiver threads, Rx provisioning, memory
// antagonism) is drawn per-host from fleet-like distributions, each
// measured over its own window with its own seed.
//
// The fleet distributions are discrete: each host is drawn from a
// catalog of machine SKUs × workload classes × antagonist tiers × a
// small seed pool, weighted to match the production mix the paper
// describes. Discreteness is what makes fleet scale tractable — a
// production fleet has far more hosts than distinct configurations, so
// byte-identical scenarios repeat, and because every simulation is
// deterministic per Params, repeats are collapsed to one run by a
// runcache.Store: the content-addressed run cache when configured, an
// in-memory one otherwise. A 100k-host fleet costs on the order of a
// thousand simulations.
//
// Hosts are generated random-access (host i's parameters depend only on
// Config.Seed and i, never on other hosts), so streaming runs need no
// up-front materialization and any host can be re-derived in isolation.
//
// The two qualitative claims the figure supports are what Summary
// checks: drop rate is positively correlated with utilization, and
// drops occur even at low utilization (the memory-bus root cause).
package cluster

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
	"hic/internal/stats"
)

// Config controls the fleet sweep.
type Config struct {
	// Hosts is the number of simulated hosts.
	Hosts int
	// WindowsPerHost is how many consecutive measurement bins each host
	// contributes (the paper bins its 24 h trace at 10 minutes; ≥2
	// windows add the temporal variation a single average hides).
	// 0 means 1.
	WindowsPerHost int
	// Seed drives the fleet-level randomization.
	Seed uint64
	// Warmup and Measure are the per-host windows (0 ⇒ 8 ms + 12 ms;
	// shorter than single-figure runs because the fleet is large).
	Warmup, Measure sim.Duration
	// Cache, when non-nil, memoizes single-window hosts through the
	// content-addressed run cache. Hosts with WindowsPerHost > 1 are
	// NOT cached: their later bins continue one testbed's state, which
	// a per-Params cache cannot address, so every multi-window host
	// simulates in full. The number of hosts that bypassed the cache
	// this way is reported in Stats.CacheSkipped and logged once per
	// run on Log.
	Cache *runcache.Store
	// Exec, when non-nil, routes each single-window host through an
	// execution strategy (see core.Executor; internal/fidelity.Router
	// adds the calibrated fluid fast path and early stopping). Hosts
	// with WindowsPerHost > 1 always run full DES — their later bins
	// continue one testbed's state, which neither the fluid solver nor
	// an early-stopped window can reproduce. When Exec is a
	// *fidelity.Router, Stats reports its routing counters.
	Exec core.Executor
	// NoDedup, with Cache nil, disables the in-process memory store
	// that collapses byte-identical hosts into one simulation. Dedup
	// never changes any output (the simulator is deterministic per
	// Params); disabling it exists for benchmarking the
	// non-deduplicated cost and for determinism tests.
	NoDedup bool
	// Log, when non-nil, receives one-line diagnostics (the
	// multi-window cache-skip notice). nil is silent.
	Log io.Writer
	// Sink, when non-nil, receives structured run/point events and the
	// /progress run registration; nil falls back to the process-global
	// obs sink (nil there too = fully disabled, zero overhead).
	Sink obs.Sink
	// Pool, when non-nil, executes the run on a private worker pool
	// instead of the shared process-wide one. Serve shard workers bound
	// their own concurrency this way, so N workers on one machine split
	// the cores instead of oversubscribing them.
	Pool *runner.Pool
	// Observatory, when non-nil, attaches the sim-time congestion
	// observatory to every host and streams per-host incident reports
	// into the collector (Record is called in host order from the emit
	// phase). Observatory runs always execute full DES: episodes are a
	// per-run byproduct neither the fluid solver nor the run cache
	// produces, so Exec and Cache are ignored (with a Log note).
	// In-memory dedup stays on — collapsed hosts replay the
	// memoized report, which is exact because the simulation is
	// deterministic per Params.
	Observatory *observatory.Collector
}

// DefaultConfig returns a 200-host fleet.
func DefaultConfig() Config {
	return Config{Hosts: 200, Seed: 1}
}

func (cfg Config) windows() (warm, meas sim.Duration) {
	warm, meas = cfg.Warmup, cfg.Measure
	if warm == 0 {
		warm = 8 * sim.Millisecond
	}
	if meas == 0 {
		meas = 12 * sim.Millisecond
	}
	return warm, meas
}

// fleetExec is the executor every single-window host runs through. It
// counts the plans actually run: a host served or collapsed by the
// run cache (or the batch-local memory store) never reaches it. With
// no routing executor it runs pure DES and, with an observatory,
// attaches the sampler and memoizes the host's report under the
// scenario key, so a dedup-collapsed host replays it.
type fleetExec struct {
	exec core.Executor
	obsv *observatory.Collector
	ran  atomic.Uint64
}

func (f *fleetExec) Plan(p core.Params) (string, func(*runner.Arena) (core.Results, error), error) {
	if f.exec == nil {
		return core.SimVersion, f.simulate(p), nil
	}
	version, run, err := f.exec.Plan(p)
	if err != nil {
		return "", nil, err
	}
	return version, func(a *runner.Arena) (core.Results, error) {
		f.ran.Add(1)
		return run(a)
	}, nil
}

// simulate is the pure-DES plan. Only it captures p, so a routed plan
// does not move the scenario to the heap.
func (f *fleetExec) simulate(p core.Params) func(*runner.Arena) (core.Results, error) {
	return func(a *runner.Arena) (core.Results, error) {
		f.ran.Add(1)
		if f.obsv == nil {
			return core.RunOn(p, a)
		}
		var rep *observatory.HostReport
		res, err := core.Simulate(p, a, func(tb *host.Testbed, p core.Params) core.Results {
			mon := observatory.Attach(tb, f.obsv.SamplerConfig())
			res := tb.Run(p.Warmup, p.Measure)
			rep = mon.Report()
			return res
		})
		if err == nil {
			f.obsv.Memo(p.CacheKey(), rep)
		}
		return res, err
	}
}

// runWindows simulates a multi-window host: one testbed, consecutive
// bins, the first after the warmup and the rest back to back. The
// monitor spans every bin, so episodes can cross bin boundaries.
func runWindows(p core.Params, meta Point, windows int, obsv *observatory.Collector, a *runner.Arena) (hostOut, error) {
	out := hostOut{pts: make([]Point, 0, windows)}
	_, err := core.Simulate(p, a, func(tb *host.Testbed, p core.Params) core.Results {
		var mon *observatory.Monitor
		if obsv != nil {
			mon = observatory.Attach(tb, obsv.SamplerConfig())
		}
		var r core.Results
		for w := 0; w < windows; w++ {
			warm := p.Warmup
			if w > 0 {
				warm = 0
			}
			r = tb.Run(warm, p.Measure)
			pt := meta
			pt.Window = w
			pt.Utilization = r.LinkUtilization
			pt.DropRate = r.DropRatePct / 100
			out.pts = append(out.pts, pt)
		}
		out.rep = mon.Report()
		return r
	})
	return out, err
}

// Point is one host's measurement over one time bin.
type Point struct {
	Host            int
	Window          int
	Utilization     float64 // access-link utilization in [0,1]
	DropRate        float64 // drop fraction in [0,1]
	Threads         int
	Senders         int
	AntagonistCores int
}

// The archetype catalog. Weights in each dimension sum to 1; the
// catalog's cross product (5 SKUs × 10 workloads × 8 antagonist tiers ×
// 3 seeds = 1200 combinations) bounds the number of distinct
// simulations a fleet of any size can require.

// sku is a machine shape: receiver threads and Rx provisioning.
type sku struct {
	threads  int
	regionMB int
}

var skuWeights = []float64{0.15, 0.25, 0.30, 0.15, 0.15}
var skus = []sku{
	{4, 4},
	{8, 8},
	{12, 12},
	{14, 12},
	{16, 16},
}

// workload is an application class: protocol, sender fan-in, and offered
// load shape. The production cluster runs both the Linux kernel stack
// (TCP, loss-based — drops are its signal) and SNAP with Swift; the
// three load shapes are the populations Figure 1 needs: bursty apps
// (low binned average utilization, yet burst onsets still overflow the
// NIC — the paper's low-utilization drops), saturating hosts (like the
// paper's testbed workload), and application-limited hosts.
type workload struct {
	cc          core.CC
	senders     int
	offeredGbps float64
	burstDuty   float64
	burstPeriod sim.Duration
	// maxAnt caps the antagonist tier for this class (0 = no cap) — the
	// colocation-policy analogue: latency-sensitive bursty kernel-stack
	// services are not scheduled next to the heaviest batch work.
	maxAnt int
}

var workloadWeights = []float64{0.10, 0.08, 0.12, 0.10, 0.12, 0.08, 0.12, 0.10, 0.10, 0.08}
var workloads = []workload{
	{cc: core.CCSwift, senders: 40},
	{cc: core.CCSwift, senders: 16},
	{cc: core.CCSwift, senders: 24, offeredGbps: 25},
	{cc: core.CCSwift, senders: 32, offeredGbps: 60},
	{cc: core.CCSwift, senders: 40, burstDuty: 0.20, burstPeriod: 2 * sim.Millisecond},
	{cc: core.CCSwift, senders: 24, burstDuty: 0.50, burstPeriod: sim.Millisecond},
	{cc: core.CCDCTCP, senders: 40},
	{cc: core.CCDCTCP, senders: 16, offeredGbps: 40},
	{cc: core.CCDCTCP, senders: 24, burstDuty: 0.35, burstPeriod: 2 * sim.Millisecond, maxAnt: 8},
	{cc: core.CCSwift, senders: 40, offeredGbps: 90},
}

// Antagonist tiers: most hosts run some co-located memory-hungry work; a
// long tail runs a lot of it (the low-utilization-drops population).
var antagonistWeights = []float64{0.22, 0.18, 0.15, 0.13, 0.12, 0.08, 0.07, 0.05}
var antagonistTiers = []int{0, 2, 4, 6, 8, 10, 12, 15}

// Each archetype cell is replicated under a small pool of simulation
// seeds, adding per-host measurement noise without defeating dedup.
var seedWeights = []float64{0.5, 0.3, 0.2}

// pickIdx draws an index from a discrete weighted distribution.
func pickIdx(r *sim.RNG, weights []float64) int {
	x := r.Float64()
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// mix64 is the splitmix64 finalizer — full avalanche, so consecutive
// inputs yield decorrelated outputs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hostDraw is host i's catalog cell: the weighted index draws shared
// by HostScenario and CellLabel. The RNG consumption order (sku,
// workload, antagonist, seed) is pinned by the fleet golden hash.
type hostDraw struct {
	sku      int
	workload int
	antCores int
	seedK    int
}

func drawHost(cfg Config, i int) hostDraw {
	r := sim.NewRNG(mix64(cfg.Seed) + uint64(i)*0x9e3779b97f4a7c15)
	d := hostDraw{
		sku:      pickIdx(r, skuWeights),
		workload: pickIdx(r, workloadWeights),
	}
	d.antCores = antagonistTiers[pickIdx(r, antagonistWeights)]
	if w := workloads[d.workload]; w.maxAnt > 0 && d.antCores > w.maxAnt {
		d.antCores = w.maxAnt
	}
	d.seedK = pickIdx(r, seedWeights)
	return d
}

// HostScenario derives host i's scenario and point metadata from the
// fleet config alone — random access, no shared RNG stream — so callers
// can enumerate, stream, or re-derive any host independently.
func HostScenario(cfg Config, i int) (core.Params, Point) {
	warm, meas := cfg.windows()
	d := drawHost(cfg, i)
	s := skus[d.sku]
	w := workloads[d.workload]

	p := core.DefaultParams(s.threads)
	p.Warmup, p.Measure = warm, meas
	p.RxRegionBytes = uint64(s.regionMB) << 20
	p.CC = w.cc
	p.Senders = w.senders
	p.OfferedGbps = w.offeredGbps
	p.BurstDuty = w.burstDuty
	p.BurstPeriod = w.burstPeriod
	p.AntagonistCores = d.antCores
	p.Seed = SeedPool(cfg)[d.seedK]

	return p, Point{
		Host:            i,
		Threads:         p.Threads,
		Senders:         p.Senders,
		AntagonistCores: p.AntagonistCores,
	}
}

// CellLabel names host i's catalog cell — SKU × workload × antagonist
// tier, e.g. "sku12t-12mb/swift-s40-b20/ant8" — the key the
// observatory's per-cell cause mix aggregates under. Seed replicas of
// a cell share one label, so a fleet of any size rolls up into at most
// 400 cells.
func CellLabel(cfg Config, i int) string {
	d := drawHost(cfg, i)
	s := skus[d.sku]
	w := workloads[d.workload]
	l := fmt.Sprintf("sku%dt-%dmb/%s-s%d", s.threads, s.regionMB, w.cc, w.senders)
	if w.offeredGbps > 0 {
		l += fmt.Sprintf("-o%g", w.offeredGbps)
	}
	if w.burstDuty > 0 {
		l += fmt.Sprintf("-b%.0f", w.burstDuty*100)
	}
	return l + fmt.Sprintf("/ant%d", d.antCores)
}

// SeedPool returns the fleet's simulation seed pool in descending
// weight order. Fidelity routing should calibrate its anchors under
// these seeds (fidelity.Config.AnchorSeeds) so anchor runs coincide
// with — and are shared by — real fleet points.
func SeedPool(cfg Config) []uint64 {
	pool := make([]uint64, len(seedWeights))
	for k := range pool {
		pool[k] = mix64(cfg.Seed ^ (0xc0ffee + uint64(k)))
	}
	return pool
}

// Run simulates the fleet on the shared worker pool and returns every
// point, in host order (windows within a host in window order). It is
// RunStream with an in-memory sink; fleets large enough that the point
// slice matters should stream instead.
func Run(cfg Config) ([]Point, error) {
	windows := cfg.WindowsPerHost
	if windows < 1 {
		windows = 1
	}
	points := make([]Point, 0, cfg.Hosts*windows)
	_, err := RunStream(cfg, func(p Point) error {
		points = append(points, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// hostOut is one worker's product: the host's scatter points plus its
// observatory report (nil when the observatory is off).
type hostOut struct {
	pts []Point
	rep *observatory.HostReport
}

// RunStream simulates the fleet, streaming each point to emit in host
// order while aggregating the fleet statistics online — memory stays
// proportional to the worker count, not the host count, which is what
// makes 100k-host fleets runnable. emit may be nil (statistics only); a
// non-nil emit error aborts the run. The returned Stats also report how
// many simulations actually executed versus how many hosts were served
// by dedup or the cache.
func RunStream(cfg Config, emit func(Point) error) (Stats, error) {
	return RunRange(cfg, 0, cfg.Hosts, emit)
}

// signatureScanCap bounds the SignatureReps host scan: the catalog has
// ~50 distinct signatures (5 SKUs × 10 workloads), so distinctness
// saturates within a few hundred draws and scanning further buys
// nothing. Param generation only — no simulation.
const signatureScanCap = 65536

// SignatureReps returns one representative host index per distinct
// fidelity signature in the fleet, in first-occurrence order — the
// work-list the serve coordinator shards into prefetch leases, so N
// workers calibrate the fleet's signatures in parallel.
func SignatureReps(cfg Config) []int {
	n := min(cfg.Hosts, signatureScanCap)
	seen := make(map[string]bool)
	var reps []int
	for h := 0; h < n; h++ {
		p, _ := HostScenario(cfg, h)
		if k := fidelity.SignatureKey(p); !seen[k] {
			seen[k] = true
			reps = append(reps, h)
		}
	}
	return reps
}

// RouterDelta converts a router counter delta (after minus before) into
// the execution accounting of Stats. RunRange and serve's prefetch
// leases share it so router work folds identically into fleet
// accounting wherever it ran: every DES execution (routed point or
// calibration anchor) is a simulation, and a point served from a
// coinciding anchor's memoized result was not re-simulated, so it
// counts with the dedup collapses.
func RouterDelta(before, after fidelity.Counters) Stats {
	d := after.Sub(before)
	return Stats{Simulated: d.DESRouted + d.AnchorRuns, Collapsed: d.AnchorReused, Counters: d}
}

// RunRange is RunStream restricted to hosts [lo, hi) of the fleet: the
// same catalog draws, execution strategies, and ordered emission, over
// a contiguous index range. Because hosts are generated random-access,
// a range run is byte-identical to the corresponding slice of a full
// run — which is what lets serve's coordinator dispense ranges to shard
// workers and still merge a fleet whose aggregates match the
// single-process golden exactly. The returned Stats cover only this
// range.
func RunRange(cfg Config, lo, hi int, emit func(Point) error) (Stats, error) {
	if cfg.Hosts <= 0 {
		return Stats{}, fmt.Errorf("cluster: Hosts must be positive")
	}
	if lo < 0 || hi > cfg.Hosts || lo >= hi {
		return Stats{}, fmt.Errorf("cluster: range [%d, %d) outside fleet [0, %d)", lo, hi, cfg.Hosts)
	}
	n := hi - lo
	windows := cfg.WindowsPerHost
	if windows < 1 {
		windows = 1
	}

	// Observatory runs force full DES: episodes are a per-run byproduct
	// neither the fluid fast path nor the run cache produces.
	obsv := cfg.Observatory
	exec := cfg.Exec
	if obsv != nil && exec != nil {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log,
				"cluster: observatory forces full DES; fidelity routing disabled for this run\n")
		}
		exec = nil
	}

	// Dedup layer. A store collapses concurrent duplicates and memoizes
	// completed ones; store-less runs get a batch-local memory store.
	// Multi-window hosts never dedup: their later bins continue one
	// testbed's state, which no per-Params key can address.
	cache := cfg.Cache
	if obsv != nil && cache != nil {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log,
				"cluster: %d observatory hosts bypass the run cache (episode records are not cached)\n",
				n)
		}
		cache = nil
	}
	if windows > 1 {
		if cache != nil {
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log,
					"cluster: %d multi-window hosts bypass the run cache (later bins continue one testbed's state)\n",
					n)
			}
			cache = nil
		}
	} else if !cfg.NoDedup && cache == nil {
		cache = runcache.NewMemory()
	}
	var router *fidelity.Router
	var routerBefore fidelity.Counters
	if windows == 1 {
		if r, ok := exec.(*fidelity.Router); ok {
			router = r
			routerBefore = r.Counters()
		}
	}

	sink := cfg.Sink
	if sink == nil {
		sink = obs.Default()
	}
	var orun *obs.Run // nil-safe: all methods no-op without a sink
	if sink != nil {
		orun = sink.StartRun("fleet", int64(n))
		defer orun.Finish()
		obsv.SetSink(sink, orun.Label())
	}

	pool := cfg.Pool
	if pool == nil {
		pool = runner.Shared()
	}
	fleet := &fleetExec{exec: exec, obsv: obsv}
	agg := newAggregator()
	err := runner.MapOrdered(pool, n,
		func(i int, a *runner.Arena) (hostOut, error) {
			host := lo + i
			defer orun.Advance(1)
			if sink != nil {
				sink.Emit(obs.Event{Kind: obs.KindPointStart, Run: orun.Label(), Point: host})
				t0 := time.Now()
				defer func() {
					sink.Emit(obs.Event{
						Kind:  obs.KindPointFinish,
						Run:   orun.Label(),
						Point: host,
						DurMS: float64(time.Since(t0).Nanoseconds()) / 1e6,
					})
				}()
			}
			p, meta := HostScenario(cfg, host)
			if windows == 1 {
				r, err := core.RunVia(fleet, p, cache, a)
				if err != nil {
					return hostOut{}, err
				}
				var rep *observatory.HostReport
				if obsv != nil {
					// GetOrCompute returns only after the winning compute
					// finished, so a collapsed host finds the memo.
					rep = obsv.Lookup(p.CacheKey())
				}
				meta.Utilization = r.LinkUtilization
				meta.DropRate = r.DropRatePct / 100
				return hostOut{pts: []Point{meta}, rep: rep}, nil
			}
			return runWindows(p, meta, windows, obsv, a)
		},
		func(i int, out hostOut) error {
			for _, pt := range out.pts {
				agg.add(pt)
				if emit != nil {
					if err := emit(pt); err != nil {
						return err
					}
				}
			}
			if obsv != nil {
				if err := obsv.Record(lo+i, CellLabel(cfg, lo+i), out.rep); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return Stats{}, err
	}

	s := agg.stats()
	if windows > 1 {
		// Multi-window hosts always simulate in full and never collapse.
		s.Simulated = uint64(n)
	} else {
		// A host whose plan never ran was served or collapsed by the
		// store.
		ran := fleet.ran.Load()
		s.Simulated, s.Collapsed = ran, uint64(n)-ran
	}
	if router != nil {
		// The router's own counters account its executions (anchors
		// included); anchor-reused hosts ran a plan but no simulation.
		d := RouterDelta(routerBefore, router.Counters())
		s.Simulated, s.Counters = d.Simulated, d.Counters
		s.Collapsed += d.Collapsed
	}
	if cfg.Cache != nil && (windows > 1 || obsv != nil) {
		s.CacheSkipped = n
	}
	return s, nil
}

// Stats summarizes the scatter against the paper's two claims, plus the
// execution accounting a fleet run reports.
type Stats struct {
	// Hosts counts scatter points (hosts × windows), matching the
	// figure's population.
	Hosts int
	// Pearson is the utilization–drop-rate correlation coefficient.
	Pearson float64
	// DroppingHosts counts points with any drops.
	DroppingHosts int
	// LowUtilDropping counts points dropping below 60% utilization —
	// the paper's "drops happen even when utilization is low".
	LowUtilDropping int
	MeanUtilization float64
	MaxDropRate     float64

	// Distribution summaries, computed online (quantiles from a
	// fixed-size deterministic reservoir; exact up to 4096 points,
	// ±~1.6% rank error beyond).
	MeanDropRate   float64
	UtilizationP50 float64
	UtilizationP99 float64
	DropRateP50    float64
	DropRateP99    float64

	// Simulated counts simulations actually executed (including fidelity
	// anchor and audit runs); Collapsed counts single-window hosts served
	// without simulating (in-memory dedup, run-cache hits, or a
	// coinciding anchor's memoized result). CacheSkipped counts hosts
	// that bypassed a configured cache because WindowsPerHost > 1. Zero
	// for plain Summarize calls.
	Simulated    uint64
	Collapsed    uint64
	CacheSkipped int

	// Counters is the fidelity router's execution accounting over the
	// run (see fidelity.Counters), non-zero only when Config.Exec is a
	// *fidelity.Router.
	fidelity.Counters
}

// Each enumerates the summable execution-accounting counters in a fixed
// order, each spelled as a Prometheus series suffix ("simulated_total")
// so federating layers (the serve coordinator's per-worker hic_worker_*
// fold) consume it without knowing the field list: the fleet's own
// hosts_done, simulated, collapsed and cache_skipped, then the router's
// ledger. Scatter statistics and the audit maxima are deliberately
// absent: only values where sum-over-shards equals the merged query's
// value belong here (the invariant AddExec preserves), so a consumer
// folding per-worker samples can assert they add up to the merged
// totals.
func (s Stats) Each(emit func(name string, v uint64)) {
	emit("hosts_done_total", uint64(s.Hosts))
	emit("simulated_total", s.Simulated)
	emit("collapsed_total", s.Collapsed)
	emit("cache_skipped_total", uint64(s.CacheSkipped))
	s.Counters.Each(emit)
}

// AddExec adds o's execution accounting into s. Scatter statistics are
// left alone: they are recomputed from the folded points, not summed
// (range-local quantiles do not merge).
func (s *Stats) AddExec(o Stats) {
	s.Simulated += o.Simulated
	s.Collapsed += o.Collapsed
	s.CacheSkipped += o.CacheSkipped
	s.Counters = s.Counters.Add(o.Counters)
}

// aggregator folds points into Stats one at a time — the online path
// RunStream uses, and the buffered path Summarize wraps around it.
type aggregator struct {
	n                     int
	su, sd, suu, sdd, sud float64
	util, drop            stats.Moments
	utilQ, dropQ          *stats.Reservoir
	dropping, lowUtil     int
	maxDrop               float64
}

// reservoirCap bounds quantile-sketch memory; see stats.Reservoir for
// the resulting rank-error bound.
const reservoirCap = 4096

func newAggregator() *aggregator {
	return &aggregator{
		utilQ: stats.NewReservoir(reservoirCap, 0x5eed0001),
		dropQ: stats.NewReservoir(reservoirCap, 0x5eed0002),
	}
}

func (a *aggregator) add(p Point) {
	a.n++
	a.su += p.Utilization
	a.sd += p.DropRate
	a.suu += p.Utilization * p.Utilization
	a.sdd += p.DropRate * p.DropRate
	a.sud += p.Utilization * p.DropRate
	a.util.Add(p.Utilization)
	a.drop.Add(p.DropRate)
	a.utilQ.Add(p.Utilization)
	a.dropQ.Add(p.DropRate)
	if p.DropRate > 0 {
		a.dropping++
		if p.Utilization < 0.6 {
			a.lowUtil++
		}
	}
	if p.DropRate > a.maxDrop {
		a.maxDrop = p.DropRate
	}
}

func (a *aggregator) stats() Stats {
	s := Stats{
		Hosts:           a.n,
		DroppingHosts:   a.dropping,
		LowUtilDropping: a.lowUtil,
		MaxDropRate:     a.maxDrop,
	}
	if a.n == 0 {
		return s
	}
	n := float64(a.n)
	s.MeanUtilization = a.util.Mean()
	s.MeanDropRate = a.drop.Mean()
	s.UtilizationP50 = a.utilQ.Quantile(0.5)
	s.UtilizationP99 = a.utilQ.Quantile(0.99)
	s.DropRateP50 = a.dropQ.Quantile(0.5)
	s.DropRateP99 = a.dropQ.Quantile(0.99)
	cov := a.sud/n - (a.su/n)*(a.sd/n)
	vu := a.suu/n - (a.su/n)*(a.su/n)
	vd := a.sdd/n - (a.sd/n)*(a.sd/n)
	if vu > 0 && vd > 0 {
		s.Pearson = cov / math.Sqrt(vu*vd)
	}
	return s
}

// Summarize computes Stats for a scatter.
func Summarize(points []Point) Stats {
	a := newAggregator()
	for _, p := range points {
		a.add(p)
	}
	return a.stats()
}

// Scatter renders the normalized scatter as ASCII (utilization on x,
// drop rate normalized by the fleet maximum on y — matching the paper's
// normalized axis).
func Scatter(points []Point, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 8 {
		height = 16
	}
	maxDrop := 0.0
	for _, p := range points {
		if p.DropRate > maxDrop {
			maxDrop = p.DropRate
		}
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range points {
		x := int(p.Utilization * float64(width-1))
		y := 0.0
		if maxDrop > 0 {
			y = p.DropRate / maxDrop
		}
		row := height - 1 - int(y*float64(height-1))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		if row >= 0 && row < height {
			grid[row][x] = '*'
		}
	}
	var b strings.Builder
	b.WriteString("normalized host drop rate vs access-link utilization\n")
	for _, row := range grid {
		b.WriteString("|" + string(row) + "\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	b.WriteString(" 0" + strings.Repeat(" ", width-10) + "util -> 1\n")
	return b.String()
}

// CSV renders the scatter points for external plotting.
func CSV(points []Point) string {
	var b strings.Builder
	b.WriteString(CSVHeader())
	sorted := append([]Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Host != sorted[j].Host {
			return sorted[i].Host < sorted[j].Host
		}
		return sorted[i].Window < sorted[j].Window
	})
	for _, p := range sorted {
		b.WriteString(CSVRow(p))
	}
	return b.String()
}

// CSVHeader and CSVRow expose the CSV encoding piecewise so streaming
// callers (hiccluster at fleet scale) can write points as they arrive
// instead of buffering the scatter.
func CSVHeader() string {
	return "host,window,utilization,drop_rate,threads,senders,antagonist_cores\n"
}

func CSVRow(p Point) string {
	return fmt.Sprintf("%d,%d,%.4f,%.6f,%d,%d,%d\n",
		p.Host, p.Window, p.Utilization, p.DropRate, p.Threads, p.Senders, p.AntagonistCores)
}
