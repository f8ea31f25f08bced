// Command hicbench measures the simulator's hot path and writes the
// results as JSON, comparing the current engine against the preserved
// pre-rewrite implementation (internal/sim/legacy).
//
//	hicbench                       # print BENCH_hotpath.json content
//	hicbench -out BENCH_hotpath.json
//
// Four sections:
//   - engine: schedule→fire and heap-churn microbenchmarks on both
//     engines, with events/sec and the measured speedup ratio;
//   - packet_path: one full pooled packet lifetime vs heap allocation;
//   - fig6_scenario: the paper's Figure 6 memory-antagonist point run
//     end to end, reporting wall-clock and simulated events/sec (the
//     whole-simulator number the microbenchmarks feed into);
//   - fleet: a Figure 1 fleet on the pooled worker runner with
//     singleflight dedup, reporting hosts/sec, dedup rate, and peak
//     memory;
//   - fidelity: the multi-fidelity execution layer — per-point cost of
//     the fluid solver vs full DES, and the same fleet re-run with
//     -fidelity=auto routing (calibrated fluid + early stopping +
//     audit), reporting hosts/sec, the routing counters, and the
//     speedup over the pure-DES fleet section above;
//   - warm_start: the cross-run warm start — the auto-routed fleet run
//     cold then warm against one persistent store (anchors reloaded,
//     DES points resumed from checkpoints), plus one warm-resumed
//     point's allocation profile for the regression gate;
//   - serve: the long-lived serving layer — one catalog query run
//     single-process, then cold and warm through a coordinator sharding
//     ranges across two in-process workers over loopback HTTP, gating
//     merged-aggregate byte-identity (hash_match) and worker residency
//     (the warm query calibrates and simulates nothing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"hic/internal/cluster"
	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/pkt"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
	"hic/internal/sim/legacy"
)

// benchResult is one benchmark's headline numbers.
type benchResult struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

func toResult(r testing.BenchmarkResult, perOpEvents float64) benchResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	out := benchResult{
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if perOpEvents > 0 && ns > 0 {
		out.EventsPerSec = perOpEvents * 1e9 / ns
	}
	return out
}

const churnDepth = 256

// engineWorkload drives a fig6-like event mix against either engine:
// self-rescheduling events (DMA completion chains) at churn depth, plus
// a cancelled timer per fire (the retransmit timer armed and disarmed
// on every delivered packet).
func newEngineWorkload(b *testing.B) {
	e := sim.NewEngine(1)
	target := uint64(b.N) + churnDepth
	var pendingTimer sim.EventID
	var tick func()
	timerFn := func() {}
	tick = func() {
		if e.Processed() >= target {
			e.Stop()
			return
		}
		pendingTimer.Cancel()
		pendingTimer = e.After(sim.Duration(5000), timerFn)
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	for i := 0; i < churnDepth; i++ {
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	b.ResetTimer()
	e.Run(math.MaxInt64 - 1)
}

func legacyEngineWorkload(b *testing.B) {
	e := legacy.NewEngine()
	rng := sim.NewRNG(1)
	target := uint64(b.N) + churnDepth
	var pendingTimer legacy.EventID
	var tick func()
	timerFn := func() {}
	tick = func() {
		if e.Processed() >= target {
			e.Stop()
			return
		}
		pendingTimer.Cancel()
		pendingTimer = e.After(sim.Duration(5000), timerFn)
		e.After(sim.Duration(1+rng.Intn(997)), tick)
	}
	for i := 0; i < churnDepth; i++ {
		e.After(sim.Duration(1+rng.Intn(997)), tick)
	}
	b.ResetTimer()
	e.Run(math.MaxInt64 - 1)
}

func packetPathWorkload(b *testing.B) {
	pl := pkt.NewPool()
	p := pl.Data(0, 1, 0, 0, 4096)
	a := pl.Ack(0, p)
	pl.Release(p)
	pl.Release(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pl.Data(uint64(i), 1, 0, uint64(i), 4096)
		a := pl.Ack(uint64(i), p)
		pl.Release(p)
		pl.Release(a)
	}
}

// fig6Scenario runs the Figure 6 memory-antagonist point end to end and
// reports whole-simulator throughput in events per second.
type fig6Scenario struct {
	WallSeconds  float64 `json:"wall_seconds"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	AppGbps      float64 `json:"app_throughput_gbps"`
}

func runFig6() (fig6Scenario, error) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	tb, err := p.Build()
	if err != nil {
		return fig6Scenario{}, err
	}
	start := time.Now()
	res := tb.Run(p.Warmup, p.Measure)
	wall := time.Since(start).Seconds()
	ev := tb.Engine.Processed()
	return fig6Scenario{
		WallSeconds:  wall,
		Events:       ev,
		EventsPerSec: float64(ev) / wall,
		AppGbps:      res.AppThroughputGbps,
	}, nil
}

// observatoryBench measures what attaching the sim-time observatory
// costs: the fig6 scenario with the sampler off (the fig6 section's
// own run) versus on, in whole-simulator events/sec.
type observatoryBench struct {
	SamplerOffWallSeconds  float64 `json:"sampler_off_wall_seconds"`
	SamplerOnWallSeconds   float64 `json:"sampler_on_wall_seconds"`
	SamplerOffEventsPerSec float64 `json:"sampler_off_events_per_sec"`
	SamplerOnEventsPerSec  float64 `json:"sampler_on_events_per_sec"`
	OverheadPct            float64 `json:"overhead_pct"`
	Episodes               int     `json:"episodes"`
	Samples                uint64  `json:"samples"`
}

// runObservatory reruns the fig6 point with the observatory sampling at
// the default cadence and compares against the sampler-off run.
func runObservatory(off fig6Scenario) (observatoryBench, error) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	tb, err := p.Build()
	if err != nil {
		return observatoryBench{}, err
	}
	mon := observatory.Attach(tb, observatory.DefaultConfig())
	start := time.Now()
	tb.Run(p.Warmup, p.Measure)
	wall := time.Since(start).Seconds()
	hr := mon.Report()
	ob := observatoryBench{
		SamplerOffWallSeconds:  off.WallSeconds,
		SamplerOnWallSeconds:   wall,
		SamplerOffEventsPerSec: off.EventsPerSec,
		SamplerOnEventsPerSec:  float64(tb.Engine.Processed()) / wall,
		Episodes:               len(hr.Episodes),
		Samples:                hr.Samples,
	}
	if off.WallSeconds > 0 {
		ob.OverheadPct = (wall/off.WallSeconds - 1) * 100
	}
	return ob, nil
}

// fleetBench measures the pooled, deduplicated fleet path. Peak memory
// is HeapInuse+StackInuse sampled during the run (not VmHWM, which
// never shrinks).
type fleetBench struct {
	Hosts int `json:"hosts"`
	// FidelityMode and Warm record how this fleet executed ("des"/"off"
	// here) so -compare can refuse to gate rates across modes: a DES
	// fleet and an auto-routed or warm-started fleet measure different
	// work even at the same host count.
	FidelityMode string  `json:"fidelity_mode,omitempty"`
	Warm         string  `json:"warm,omitempty"`
	WallSeconds  float64 `json:"wall_seconds"`
	HostsPerSec  float64 `json:"hosts_per_sec"`
	Simulated    uint64  `json:"simulated"`
	Deduplicated uint64  `json:"deduplicated"`
	DedupRate    float64 `json:"dedup_rate"`
	PeakMemBytes uint64  `json:"peak_mem_bytes"`
}

// memPeak samples the Go heap while a workload runs and keeps the max.
type memPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startMemPeak() *memPeak {
	runtime.GC()
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		var ms runtime.MemStats
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if v := ms.HeapInuse + ms.StackInuse; v > m.peak {
				m.peak = v
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memPeak) Stop() uint64 {
	close(m.stop)
	<-m.done
	return m.peak
}

func fleetConfig(hosts int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = hosts
	// Shortened windows (the defaults are 8 ms + 12 ms): the bench
	// compares execution models, not physics, and the dedup rate is
	// window-independent. The measure still spans several burst
	// periods (1-2 ms in the catalog) so duty-cycled workloads behave
	// like they do at full length.
	cfg.Warmup, cfg.Measure = 4*sim.Millisecond, 8*sim.Millisecond
	return cfg
}

func runFleet(hosts int) (fleetBench, error) {
	// Pooled path: shared worker pool, arena reuse, singleflight dedup.
	cfg := fleetConfig(hosts)
	cfg.Progress = runner.NewProgress(os.Stderr, "fleet bench", "hosts", hosts, 5*time.Second)
	mp := startMemPeak()
	start := time.Now()
	st, err := cluster.RunStream(cfg, nil)
	wall := time.Since(start).Seconds()
	peak := mp.Stop()
	cfg.Progress.Finish()
	if err != nil {
		return fleetBench{}, err
	}
	fb := fleetBench{
		Hosts:        hosts,
		FidelityMode: "des",
		Warm:         "off",
		WallSeconds:  wall,
		HostsPerSec:  float64(hosts) / wall,
		Simulated:    st.Simulated,
		Deduplicated: st.Collapsed,
		PeakMemBytes: peak,
	}
	if total := st.Simulated + st.Collapsed; total > 0 {
		fb.DedupRate = float64(st.Collapsed) / float64(total)
	}

	return fb, nil
}

// fidelityBench is the multi-fidelity section: what one point costs
// under the fluid solver vs full DES, and what the fleet gains from
// -fidelity=auto routing over the pure-DES fleet section.
type fidelityBench struct {
	// FluidPointNs is one fluid solve of the Figure 6 point;
	// DESPointMs is the same point under full DES (the fig6 scenario
	// wall-clock), so PointSpeedup is the raw per-point model ratio.
	FluidPointNs float64 `json:"fluid_point_ns"`
	DESPointMs   float64 `json:"des_point_ms"`
	PointSpeedup float64 `json:"point_speedup"`

	// The auto-routed fleet (same size and windows as the fleet
	// section): routing tolerance, execution accounting, and audit
	// outcome. SpeedupVsDES compares hosts/sec against the pure-DES
	// fleet section measured in the same process. FidelityMode/Warm
	// ("auto"/"off") mark the execution mode for the -compare gate.
	FidelityMode string  `json:"fidelity_mode,omitempty"`
	Warm         string  `json:"warm,omitempty"`
	Tol          float64 `json:"tol"`
	AuditRate    float64 `json:"audit_rate"`
	Hosts        int     `json:"hosts"`
	WallSeconds  float64 `json:"wall_seconds"`
	HostsPerSec  float64 `json:"hosts_per_sec"`
	Simulated    uint64  `json:"simulated"`
	Deduplicated uint64  `json:"deduplicated"`
	FluidRouted  uint64  `json:"fluid_routed"`
	EarlyStopped uint64  `json:"early_stopped"`
	AnchorRuns   uint64  `json:"anchor_runs"`
	Audited      uint64  `json:"audited"`
	AuditOverTol uint64  `json:"audit_over_tol"`
	AuditMaxErr  float64 `json:"audit_max_err"`
	PeakMemBytes uint64  `json:"peak_mem_bytes"`
	SpeedupVsDES float64 `json:"speedup_vs_des"`
}

// runFleetFidelity re-runs the fleet with ModeAuto routing (calibrated
// fluid fast path, steady-state early stopping, deterministic audits)
// and compares against desHostsPerSec from the pure-DES fleet section.
func runFleetFidelity(hosts int, tol, auditRate, desHostsPerSec float64) (fidelityBench, error) {
	p := core.DefaultParams(12)
	p.AntagonistCores = 8
	p.Warmup, p.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	fb := fidelityBench{FidelityMode: "auto", Warm: "off", Tol: tol, AuditRate: auditRate, Hosts: hosts}
	fluidRes := toResult(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunFluid(p); err != nil {
				b.Fatal(err)
			}
		}
	}), 0)
	fb.FluidPointNs = fluidRes.NsPerOp

	des, err := runFig6()
	if err != nil {
		return fidelityBench{}, err
	}
	fb.DESPointMs = des.WallSeconds * 1e3
	if fb.FluidPointNs > 0 {
		fb.PointSpeedup = des.WallSeconds * 1e9 / fb.FluidPointNs
	}

	cfg := fleetConfig(hosts)
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         tol,
		AuditRate:   auditRate,
		EarlyStop:   true,
		AnchorSeeds: cluster.SeedPool(cfg),
	})
	if err != nil {
		return fidelityBench{}, err
	}
	cfg.Exec = router
	cfg.Progress = runner.NewProgress(os.Stderr, "fleet auto", "hosts", hosts, 5*time.Second)
	mp := startMemPeak()
	start := time.Now()
	st, err := cluster.RunStream(cfg, nil)
	fb.WallSeconds = time.Since(start).Seconds()
	fb.PeakMemBytes = mp.Stop()
	cfg.Progress.Finish()
	if err != nil {
		return fidelityBench{}, err
	}
	fb.HostsPerSec = float64(hosts) / fb.WallSeconds
	fb.Simulated = st.Simulated
	fb.Deduplicated = st.Collapsed
	fb.FluidRouted = st.FluidRouted
	fb.EarlyStopped = st.EarlyStopped
	fb.AnchorRuns = st.AnchorRuns
	fb.Audited = st.Audited
	fb.AuditOverTol = st.AuditOverTol
	fb.AuditMaxErr = st.AuditMaxErr
	if desHostsPerSec > 0 {
		fb.SpeedupVsDES = fb.HostsPerSec / desHostsPerSec
	}
	if fb.AuditOverTol > 0 {
		fmt.Fprintf(os.Stderr, "hicbench: WARNING: %d/%d audited points exceeded tol %.3f (max err %.4f)\n",
			fb.AuditOverTol, fb.Audited, tol, fb.AuditMaxErr)
	}
	return fb, nil
}

// warmStartBench measures the cross-run warm start: the same
// auto-routed fleet run twice against one persistent warm store. The
// cold pass calibrates from scratch and donates checkpoints; the warm
// pass uses a fresh router over the same store, so anchors load from
// disk and DES-routed points warm-start from the nearest checkpointed
// donor. WarmSpeedup is the warm pass's hosts/sec over the cold
// pass's — the "second invocation" win a user sees with -warm=full.
//
// WarmPoint is one fixed warm-started DES point measured under
// testing.Benchmark. Its allocation counts are the exact-class metric
// for the -compare gate: fleet-level totals flap with dedup
// scheduling, a single deterministic warm resume does not.
type warmStartBench struct {
	Hosts         int     `json:"hosts"`
	FidelityMode  string  `json:"fidelity_mode,omitempty"`
	Warm          string  `json:"warm,omitempty"`
	Tol           float64 `json:"tol"`
	AuditRate     float64 `json:"audit_rate"`
	WarmAuditRate float64 `json:"warm_audit_rate"`

	ColdWallSeconds float64 `json:"cold_wall_seconds"`
	ColdHostsPerSec float64 `json:"cold_hosts_per_sec"`
	WarmWallSeconds float64 `json:"warm_wall_seconds"`
	WarmHostsPerSec float64 `json:"warm_hosts_per_sec"`
	WarmSpeedup     float64 `json:"warm_speedup"`

	// Cold-pass persistence: anchor DES runs paid once, calibration
	// blobs and checkpoints written for the warm pass to consume.
	ColdAnchorRuns  uint64 `json:"cold_anchor_runs"`
	AnchorPersisted uint64 `json:"anchor_persisted"`
	Checkpoints     uint64 `json:"checkpoints"`

	// Warm-pass consumption and the warm-start accuracy audit.
	WarmAnchorRuns   uint64  `json:"warm_anchor_runs"`
	AnchorLoaded     uint64  `json:"anchor_loaded"`
	WarmStarted      uint64  `json:"warm_started"`
	WarmAudited      uint64  `json:"warm_audited"`
	WarmAuditOverTol uint64  `json:"warm_audit_over_tol"`
	WarmAuditMaxErr  float64 `json:"warm_audit_max_err"`

	WarmPoint    benchResult `json:"warm_point"`
	PeakMemBytes uint64      `json:"peak_mem_bytes"`
}

// runWarmStart runs the cold-then-warm fleet pair against a throwaway
// warm store, then benchmarks a single warm-started point.
func runWarmStart(hosts int, tol, auditRate, warmAuditRate float64) (warmStartBench, error) {
	wb := warmStartBench{
		Hosts: hosts, FidelityMode: "auto", Warm: "full",
		Tol: tol, AuditRate: auditRate, WarmAuditRate: warmAuditRate,
	}
	warmDir, err := os.MkdirTemp("", "hicbench-warm-")
	if err != nil {
		return wb, err
	}
	defer os.RemoveAll(warmDir)

	// Each pass opens its own store and router: checkpoints captured
	// in-process are never donors, so a fresh router per pass is what
	// makes the second pass a faithful "second invocation".
	runOnce := func(label string) (fidelity.Counters, float64, error) {
		store, err := runcache.Open(warmDir)
		if err != nil {
			return fidelity.Counters{}, 0, err
		}
		cfg := fleetConfig(hosts)
		router, err := fidelity.New(fidelity.Config{
			Mode:          fidelity.ModeAuto,
			Tol:           tol,
			AuditRate:     auditRate,
			EarlyStop:     true,
			AnchorSeeds:   cluster.SeedPool(cfg),
			Warm:          fidelity.WarmFull,
			WarmStore:     store,
			WarmAuditRate: warmAuditRate,
		})
		if err != nil {
			return fidelity.Counters{}, 0, err
		}
		cfg.Exec = router
		cfg.Progress = runner.NewProgress(os.Stderr, label, "hosts", hosts, 5*time.Second)
		start := time.Now()
		_, err = cluster.RunStream(cfg, nil)
		wall := time.Since(start).Seconds()
		cfg.Progress.Finish()
		if err != nil {
			return fidelity.Counters{}, 0, err
		}
		return router.Counters(), wall, nil
	}

	mp := startMemPeak()
	coldC, coldWall, err := runOnce("fleet cold")
	if err != nil {
		mp.Stop()
		return wb, err
	}
	warmC, warmWall, err := runOnce("fleet warm")
	wb.PeakMemBytes = mp.Stop()
	if err != nil {
		return wb, err
	}
	wb.ColdWallSeconds = coldWall
	wb.ColdHostsPerSec = float64(hosts) / coldWall
	wb.WarmWallSeconds = warmWall
	wb.WarmHostsPerSec = float64(hosts) / warmWall
	if wb.ColdHostsPerSec > 0 {
		wb.WarmSpeedup = wb.WarmHostsPerSec / wb.ColdHostsPerSec
	}
	wb.ColdAnchorRuns = coldC.AnchorRuns
	wb.AnchorPersisted = coldC.AnchorPersisted
	wb.Checkpoints = coldC.WarmCheckpoints
	wb.WarmAnchorRuns = warmC.AnchorRuns
	wb.AnchorLoaded = warmC.AnchorLoaded
	wb.WarmStarted = warmC.WarmStarted
	wb.WarmAudited = warmC.WarmAudited
	wb.WarmAuditOverTol = warmC.WarmAuditOverTol
	wb.WarmAuditMaxErr = warmC.WarmAuditMaxErr
	if wb.WarmAuditOverTol > 0 {
		fmt.Fprintf(os.Stderr, "hicbench: WARNING: %d/%d warm-audited points exceeded tol %.3f (max err %.4f)\n",
			wb.WarmAuditOverTol, wb.WarmAudited, tol, wb.WarmAuditMaxErr)
	}

	// Warm-point microbenchmark: one checkpoint donation plus the
	// sibling seed's warm resume (build, prime, guard window, measure),
	// timed at the core layer so every iteration really re-simulates —
	// the router's singleflight retains completed results, which would
	// turn a repeated planned run into a map lookup.
	p := core.DefaultParams(4)
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
	var snap host.Snapshot
	if _, err := core.Simulate(p, nil, func(tb *host.Testbed, p core.Params) core.Results {
		res := tb.Run(p.Warmup, p.Measure)
		snap = tb.Snapshot()
		return res
	}); err != nil {
		return wb, err
	}
	p2 := p
	p2.Seed = 42
	guard := core.DefaultWarmGuard(p2)
	warm := func(tb *host.Testbed, p core.Params) core.Results {
		tb.Prime(snap)
		return tb.Run(guard, p.Measure)
	}
	if _, err := core.Simulate(p2, nil, warm); err != nil { // pool warm-up outside the timed loop
		return wb, err
	}
	wb.WarmPoint = toResult(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Simulate(p2, nil, warm); err != nil {
				b.Fatal(err)
			}
		}
	}), 0)
	return wb, nil
}

type report struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	Engine    struct {
		New          benchResult `json:"new"`
		Legacy       benchResult `json:"legacy"`
		SpeedupRatio float64     `json:"speedup_ratio"`
	} `json:"engine"`
	PacketPath struct {
		Pooled benchResult `json:"pooled"`
		Heap   benchResult `json:"heap"`
	} `json:"packet_path"`
	// Fig6 runs with the free lists on (the default); Fig6NoPools runs
	// the same scenario with event and packet recycling disabled, the
	// whole-figure before/after for the allocation-free hot path.
	Fig6        fig6Scenario `json:"fig6_scenario"`
	Fig6NoPools fig6Scenario `json:"fig6_scenario_no_pools"`
	// Observatory is the sim-time observatory's overhead on the fig6
	// scenario: sampler on vs off.
	Observatory observatoryBench `json:"observatory"`
	Fleet       fleetBench       `json:"fleet"`
	Fidelity    fidelityBench    `json:"fidelity"`
	// ColdPath is the cold-path acceleration pair: the never-seen
	// auto-routed fleet with knee search and calibration transfer off
	// (the pre-acceleration baseline) then on, plus the sharded
	// determinism check (1-worker and 2-worker coordinator runs must
	// hash-match the in-process run).
	ColdPath coldPathBench `json:"cold_path"`
	// WarmStart is the cross-run warm-start pair: the auto-routed fleet
	// cold (calibrating, donating checkpoints) then warm (fresh router,
	// same persistent store) plus one warm-resumed point's exact-class
	// allocation profile.
	WarmStart warmStartBench `json:"warm_start"`
	// Serve is the serving layer: a coordinator sharding one catalog
	// query across two workers, gated on byte-identity with the
	// single-process run and on warm-query residency.
	Serve serveBench `json:"serve"`
}

var heapSink *pkt.Packet

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	fleetHosts := flag.Int("fleet-hosts", 10000, "fleet-bench size on the pooled path (0 skips the fleet bench)")
	fleetOnly := flag.Bool("fleet-only", false, "run only the fleet bench, skipping the engine and packet microbenchmarks")
	// 0.10 is the bench's routing tolerance (the CLIs default to a more
	// conservative 0.05): the routing gate only admits points bounded
	// under 0.7×tol = 7%, and the audit verifies the observed error
	// stays under tol on every sampled point.
	fidelityTol := flag.Float64("fidelity-tol", 0.10, "auto-routing tolerance for the fidelity fleet bench")
	auditRate := flag.Float64("audit-rate", 0.05, "fraction of fluid-routed hosts shadow-run under DES in the fidelity fleet bench")
	noFidelity := flag.Bool("no-fidelity", false, "skip the fidelity (auto-routed fleet) section")
	coldHosts := flag.Int("cold-hosts", 10000, "fleet size for the cold_path (knee search + calibration transfer) section (0 skips it)")
	noCold := flag.Bool("no-cold", false, "skip the cold_path (cold-path acceleration) section")
	coldOnly := flag.Bool("cold-only", false, "run only the cold_path section, skipping everything else")
	warmAuditRate := flag.Float64("warm-audit-rate", 0.05, "fraction of warm-startable points re-run cold under DES in the warm-start fleet bench")
	noWarm := flag.Bool("no-warm", false, "skip the warm_start (cold-then-warm fleet) section")
	warmOnly := flag.Bool("warm-only", false, "run only the warm_start section, skipping everything else")
	serveHosts := flag.Int("serve-hosts", 400, "catalog-query size for the serve (coordinator + 2 workers) section (0 skips it)")
	noServe := flag.Bool("no-serve", false, "skip the serve (sharded coordinator) section")
	serveOnly := flag.Bool("serve-only", false, "run only the serve section, skipping everything else")
	compareOld := flag.String("compare", "", "regression gate: compare this baseline JSON against the new JSON given as the positional argument, exit non-zero on regression (no benches run)")
	compareTol := flag.Float64("compare-tol", 0.25, "allowed relative degradation for noisy (timing/rate) metrics with -compare; allocation counts are exact-class and tolerate nothing")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *compareOld != "" {
		newPath := flag.Arg(0)
		if newPath == "" {
			fmt.Fprintln(os.Stderr, "usage: hicbench -compare <old.json> <new.json>")
			os.Exit(2)
		}
		os.Exit(runCompare(*compareOld, newPath, *compareTol))
	}

	var orun *obs.Run // nil-safe
	if srv, err := obsFlags.Start(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
		os.Exit(1)
	} else if srv != nil {
		defer srv.Close()
		srv.AddSource(runner.Shared())
		orun = srv.StartRun("bench", 9, "engine", "packet_path", "fig6", "observatory", "fleet", "fidelity", "cold_path", "warm_start", "serve")
		defer orun.Finish()
	}

	var rep report
	rep.GoVersion = runtime.Version()
	rep.GOARCH = runtime.GOARCH

	if !*fleetOnly && !*warmOnly && !*serveOnly && !*coldOnly {
		// Each workload processes ~1 event per op (the churn fires one event
		// and schedules one replacement plus a timer arm/cancel pair).
		orun.SetPhase("engine")
		rep.Engine.New = toResult(testing.Benchmark(newEngineWorkload), 1)
		rep.Engine.Legacy = toResult(testing.Benchmark(legacyEngineWorkload), 1)
		if rep.Engine.New.NsPerOp > 0 {
			rep.Engine.SpeedupRatio = rep.Engine.Legacy.NsPerOp / rep.Engine.New.NsPerOp
		}
		orun.Advance(1)

		orun.SetPhase("packet_path")
		rep.PacketPath.Pooled = toResult(testing.Benchmark(packetPathWorkload), 0)
		rep.PacketPath.Heap = toResult(testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pkt.NewData(uint64(i), 1, 0, uint64(i), 4096)
				a := pkt.NewAck(uint64(i), p)
				heapSink = p
				heapSink = a
			}
		}), 0)
		orun.Advance(1)

		orun.SetPhase("fig6")
		fig6, err := runFig6()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: fig6 scenario: %v\n", err)
			os.Exit(1)
		}
		rep.Fig6 = fig6

		sim.SetEventPooling(false)
		pkt.SetPooling(false)
		noPools, err := runFig6()
		sim.SetEventPooling(true)
		pkt.SetPooling(true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: fig6 scenario (no pools): %v\n", err)
			os.Exit(1)
		}
		rep.Fig6NoPools = noPools
		orun.Advance(1)

		orun.SetPhase("observatory")
		ob, err := runObservatory(fig6)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: observatory bench: %v\n", err)
			os.Exit(1)
		}
		rep.Observatory = ob
		orun.Advance(1)
	}

	if *fleetHosts > 0 && !*warmOnly && !*serveOnly && !*coldOnly {
		orun.SetPhase("fleet")
		fleet, err := runFleet(*fleetHosts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: fleet bench: %v\n", err)
			os.Exit(1)
		}
		rep.Fleet = fleet
		orun.Advance(1)

		if !*noFidelity {
			orun.SetPhase("fidelity")
			fid, err := runFleetFidelity(*fleetHosts, *fidelityTol, *auditRate, fleet.HostsPerSec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hicbench: fidelity bench: %v\n", err)
				os.Exit(1)
			}
			rep.Fidelity = fid
			orun.Advance(1)
		}
	}

	if *coldHosts > 0 && !*noCold && !*fleetOnly && !*warmOnly && !*serveOnly {
		orun.SetPhase("cold_path")
		// Reuse the fidelity section's pass as the baseline when it ran
		// the identical configuration at the same scale.
		var fid *fidelityBench
		if rep.Fidelity.Hosts > 0 {
			fid = &rep.Fidelity
		}
		cold, err := runColdPath(*coldHosts, *fidelityTol, *auditRate, fid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: cold-path bench: %v\n", err)
			os.Exit(1)
		}
		rep.ColdPath = cold
		orun.Advance(1)
	}

	if *fleetHosts > 0 && !*noWarm && !*serveOnly && !*coldOnly {
		orun.SetPhase("warm_start")
		warm, err := runWarmStart(*fleetHosts, *fidelityTol, *auditRate, *warmAuditRate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: warm-start bench: %v\n", err)
			os.Exit(1)
		}
		rep.WarmStart = warm
		orun.Advance(1)
	}

	if *serveHosts > 0 && !*noServe && !*fleetOnly && !*warmOnly && !*coldOnly {
		orun.SetPhase("serve")
		sb, err := runServe(*serveHosts, *fidelityTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: serve bench: %v\n", err)
			os.Exit(1)
		}
		rep.Serve = sb
		orun.Advance(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (engine speedup %.2fx, fig6 %.1fM events/s, fleet %.1f hosts/s, auto %.1f hosts/s %.2fx, cold %.1f hosts/s %.2fx, warm %.1f hosts/s %.2fx, serve scaling %.2fx warm %.2fx)\n",
		*out, rep.Engine.SpeedupRatio, rep.Fig6.EventsPerSec/1e6,
		rep.Fleet.HostsPerSec,
		rep.Fidelity.HostsPerSec, rep.Fidelity.SpeedupVsDES,
		rep.ColdPath.ColdHostsPerSec, rep.ColdPath.Speedup,
		rep.WarmStart.WarmHostsPerSec, rep.WarmStart.WarmSpeedup,
		rep.Serve.ScalingRatio, rep.Serve.WarmSpeedup)
}
