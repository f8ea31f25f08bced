package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hic/internal/cluster"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/serve"
)

// perLayer is every metric a traced run reports, with its unit. A
// metric of a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	// Host CPU ledger: profile samples by innermost layer frame.
	{"sim.cpu_pct", "%"}, {"pkt.cpu_pct", "%"}, {"nic.cpu_pct", "%"}, {"pcie.cpu_pct", "%"},
	{"iommu.cpu_pct", "%"}, {"mem.cpu_pct", "%"}, {"cpu.cpu_pct", "%"}, {"fabric.cpu_pct", "%"},
	{"transport.cpu_pct", "%"}, {"host.cpu_pct", "%"}, {"core.cpu_pct", "%"}, {"metrics.cpu_pct", "%"},
	{"fluid.cpu_pct", "%"}, {"fidelity.cpu_pct", "%"}, {"runner.cpu_pct", "%"}, {"runcache.cpu_pct", "%"},
	{"cluster.cpu_pct", "%"}, {"serve.cpu_pct", "%"}, {"runtime.alloc.cpu_pct", "%"},
	{"runtime.gc.cpu_pct", "%"}, {"other.cpu_pct", "%"},
	// Simulated work per des_point op, over its first desPrefixOps ops.
	{"sim.events_per_op", "count"}, {"nic.rx_packets_per_op", "count"}, {"nic.rx_drops_per_op", "count"},
	{"pcie.tlps_per_op", "count"}, {"iommu.translations_per_op", "count"}, {"iommu.iotlb_miss_ratio", "ratio"},
	{"iommu.walk_reads_per_op", "count"}, {"mem.io_requests_per_op", "count"},
	{"transport.sent_packets_per_op", "count"}, {"transport.retx_per_op", "count"},
	{"metrics.observations_per_op", "count"},
	// Host cost per unit of simulated work: ledger share × CPU time / count.
	{"sim.ns_per_event", "ns/event"}, {"nic.ns_per_packet", "ns/packet"}, {"pcie.ns_per_tlp", "ns/TLP"},
	{"iommu.ns_per_translation", "ns/translation"}, {"mem.ns_per_request", "ns/request"},
	{"transport.ns_per_packet", "ns/packet"}, {"metrics.ns_per_observation", "ns/observation"},
	{"sim.events_per_s", "1/s"},
	// Outside timing around public calls.
	{"host.build_ms", "ms/point"}, {"host.run_ms", "ms/point"},
	{"runcache.loads_per_op", "count"}, {"runcache.load_ms_per_op", "ms/op"}, {"runcache.load_kb_per_op", "KB"},
	{"runcache.stores_per_op", "count"}, {"runcache.store_ms_per_op", "ms/op"}, {"runcache.store_kb_per_op", "KB"},
	{"runcache.hit_rate", "ratio"}, {"runner.busy_share", "ratio"},
	// Router and fleet accounting.
	{"fidelity.des_runs_per_host", "ratio"}, {"fidelity.anchor_runs_per_op", "count"},
	{"fidelity.knee_probes_per_op", "count"}, {"fidelity.anchor_transferred_per_op", "count"},
	{"fidelity.fluid_share", "ratio"}, {"fidelity.early_stop_share", "ratio"}, {"fidelity.audited_per_op", "count"},
	{"fidelity.anchor_loaded_per_op", "count"}, {"fidelity.warm_started_per_op", "count"},
	{"fidelity.audit_max_err", "ratio"}, {"cluster.dedup_rate", "ratio"},
	{"cluster.host_p50_ms", "ms/host"}, {"cluster.host_p99_ms", "ms/host"},
	{"fidelity.fluid_routes_per_op", "count"}, {"fidelity.des_routes_per_op", "count"},
	// Serve phases of traced queries.
	{"serve.phase_queue_ms_p50", "ms/query"}, {"serve.phase_prefetch_ms_p50", "ms/query"},
	{"serve.phase_execute_ms_p50", "ms/query"}, {"serve.phase_merge_ms_p50", "ms/query"},
	{"serve.first_event_ms_p50", "ms/query"}, {"serve.ranges_per_query", "count"},
	{"serve.reassigned", "count"}, {"serve.duplicates", "count"},
	// Layer microbenchmarks.
	{"sim.schedule_fire_ns", "ns"}, {"pkt.lifecycle_ns", "ns"}, {"metrics.observe_ns", "ns"},
	{"fluid.solve_us", "us"}, {"runcache.blob_roundtrip_us", "us"},
	// Go runtime and the run itself.
	{"runtime.gc_cycles_per_op", "count"}, {"latency_p95_ms", "ms"}, {"latency_samples", "count"},
	{"trace_overhead", "ratio"},
}

// tracer collects a traced run's layer data. It records only while
// on, so set-up work before the traced loop is not counted. A nil
// *tracer is an untraced run.
type tracer struct {
	on atomic.Bool

	mu     sync.Mutex
	hostMS []float64
	routes map[string]float64

	loads, loadHits, loadNs, loadBytes atomic.Int64
	stores, storeNs, storeBytes        atomic.Int64
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// Emit implements obs.Sink: per-host execution times and routes.
func (t *tracer) Emit(e obs.Event) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case obs.KindPointFinish:
		t.hostMS = append(t.hostMS, e.DurMS)
	case obs.KindFidelityRoute:
		t.routes[e.Route]++
	}
}

// StartRun implements obs.Sink; a nil run is valid and no-ops.
func (t *tracer) StartRun(string, int64, ...string) *obs.Run { return nil }

// RunMetrics implements obs.Sink.
func (t *tracer) RunMetrics(obs.Snapshot) {}

// openStore opens a disk store, timed by t when tracing.
func (t *tracer) openStore(dir string) (*runcache.Store, error) {
	if t == nil {
		return runcache.Open(dir)
	}
	be, err := runcache.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	return runcache.NewStore(timedBackend{Backend: be, t: t}), nil
}

// timedBackend times the byte moves under a runcache.Store.
type timedBackend struct {
	runcache.Backend
	t *tracer
}

func (b timedBackend) Load(key string) ([]byte, bool) {
	if !b.t.active() {
		return b.Backend.Load(key)
	}
	t0 := time.Now()
	data, ok := b.Backend.Load(key)
	b.t.loadNs.Add(time.Since(t0).Nanoseconds())
	b.t.loads.Add(1)
	if ok {
		b.t.loadHits.Add(1)
		b.t.loadBytes.Add(int64(len(data)))
	}
	return data, ok
}

func (b timedBackend) Store(key string, data []byte) error {
	if !b.t.active() {
		return b.Backend.Store(key, data)
	}
	t0 := time.Now()
	err := b.Backend.Store(key, data)
	b.t.storeNs.Add(time.Since(t0).Nanoseconds())
	b.t.stores.Add(1)
	b.t.storeBytes.Add(int64(len(data)))
	return err
}

// sampleBusy samples a pool's busy share every 10 ms until stop is
// closed and returns the mean share.
func sampleBusy(busy func() (float64, float64), stop <-chan struct{}) float64 {
	var sum float64
	var n int
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		case <-tick.C:
			if b, w := busy(); w > 0 {
				sum += b / w
				n++
			}
		}
	}
}

// desAcc sums des_point's simulated work and outside timings. Counts
// are keyed by registry counter name, plus "events" and "observations".
type desAcc struct {
	ops         int
	build, run  time.Duration
	all, prefix map[string]float64
}

// desCounters are the registry counters des_point reads after a point.
var desCounters = []string{
	"nic.rx.packets", "nic.rx.drops", "pcie.tx.tlps", "iommu.translations", "iommu.iotlb.misses",
	"iommu.walk.reads", "mem.io.requests", "transport.sent.packets", "transport.retx.packets",
}

func (a *desAcc) add(k int, tb *host.Testbed, build, run time.Duration) {
	if a.all == nil {
		a.all, a.prefix = map[string]float64{}, map[string]float64{}
	}
	snap := tb.Registry.Snapshot()
	counts := map[string]float64{"events": float64(tb.Engine.Processed())}
	for _, name := range desCounters {
		counts[name] = float64(snap.Counters[name])
	}
	for _, h := range snap.Histograms {
		counts["observations"] += float64(h.Count)
	}
	for key, v := range counts {
		a.all[key] += v
		if k < desPrefixOps {
			a.prefix[key] += v
		}
	}
	a.ops++
	a.build += build
	a.run += run
}

// layers reports counts per op over the first desPrefixOps ops, which
// every run executes with the same inputs, so they compare exactly
// between commits; costs per unit divide the traced loop's CPU time.
func (d *desPoint) layers(st loopStats, ledger, m map[string]float64) {
	a := &d.acc
	if a.ops == 0 {
		return
	}
	n := float64(min(a.ops, desPrefixOps))
	for _, c := range []struct{ metric, key string }{
		{"sim.events_per_op", "events"}, {"nic.rx_packets_per_op", "nic.rx.packets"},
		{"nic.rx_drops_per_op", "nic.rx.drops"}, {"pcie.tlps_per_op", "pcie.tx.tlps"},
		{"iommu.translations_per_op", "iommu.translations"}, {"iommu.walk_reads_per_op", "iommu.walk.reads"},
		{"mem.io_requests_per_op", "mem.io.requests"}, {"transport.sent_packets_per_op", "transport.sent.packets"},
		{"transport.retx_per_op", "transport.retx.packets"}, {"metrics.observations_per_op", "observations"},
	} {
		m[c.metric] = a.prefix[c.key] / n
	}
	m["iommu.iotlb_miss_ratio"] = ratio(a.prefix["iommu.iotlb.misses"], a.prefix["iommu.translations"])
	m["host.build_ms"] = ms(a.build) / float64(a.ops)
	m["host.run_ms"] = ms(a.run) / float64(a.ops)
	m["sim.events_per_s"] = a.all["events"] / (a.build + a.run).Seconds()
	cpuNs := float64(st.cpu.Nanoseconds())
	for _, c := range []struct{ metric, layer, key string }{
		{"sim.ns_per_event", "sim", "events"}, {"nic.ns_per_packet", "nic", "nic.rx.packets"},
		{"pcie.ns_per_tlp", "pcie", "pcie.tx.tlps"}, {"iommu.ns_per_translation", "iommu", "iommu.translations"},
		{"mem.ns_per_request", "mem", "mem.io.requests"}, {"transport.ns_per_packet", "transport", "transport.sent.packets"},
		{"metrics.ns_per_observation", "metrics", "observations"},
	} {
		m[c.metric] = ratio(ledger[c.layer]/100*cpuNs, a.all[c.key])
	}
}

// fleetAcc sums the execution accounting of fleet passes.
type fleetAcc struct{ passes []cluster.Stats }

func (a *fleetAcc) add(st cluster.Stats) { a.passes = append(a.passes, st) }

func (a *fleetAcc) fill(m map[string]float64) {
	if len(a.passes) == 0 {
		return
	}
	var hosts, sim, collapsed, fluid, stopped, anchors, probes, transferred, audited, loaded, warm, maxErr float64
	for _, st := range a.passes {
		hosts += float64(st.Hosts)
		sim += float64(st.Simulated)
		collapsed += float64(st.Collapsed)
		fluid += float64(st.FluidRouted)
		stopped += float64(st.EarlyStopped)
		anchors += float64(st.AnchorRuns)
		probes += float64(st.KneeProbes)
		transferred += float64(st.AnchorTransferred)
		audited += float64(st.Audited + st.WarmAudited)
		loaded += float64(st.AnchorLoaded)
		warm += float64(st.WarmStarted)
		maxErr = max(maxErr, st.AuditMaxErr, st.WarmAuditMaxErr)
	}
	n := float64(len(a.passes))
	m["fidelity.des_runs_per_host"] = ratio(sim, hosts)
	m["fidelity.anchor_runs_per_op"] = anchors / n
	m["fidelity.knee_probes_per_op"] = probes / n
	m["fidelity.anchor_transferred_per_op"] = transferred / n
	m["fidelity.fluid_share"] = ratio(fluid, hosts)
	m["fidelity.early_stop_share"] = ratio(stopped, sim)
	m["fidelity.audited_per_op"] = audited / n
	m["fidelity.anchor_loaded_per_op"] = loaded / n
	m["fidelity.warm_started_per_op"] = warm / n
	m["fidelity.audit_max_err"] = maxErr
	m["cluster.dedup_rate"] = ratio(collapsed, sim+collapsed)
}

func (f *fleetCold) layers(_ loopStats, _, m map[string]float64) { f.acc.fill(m) }

func (f *fleetWarm) layers(_ loopStats, _, m map[string]float64) { f.acc.fill(m) }

// serveAcc sums traced queries' accounting and phase walls.
type serveAcc struct {
	fleetAcc
	queue, prefetch, execute, merge, first []float64
	ranges, reassigned, duplicates         float64
}

func (a *serveAcc) add(res *serve.QueryResult, first time.Duration) {
	a.fleetAcc.add(res.Stats)
	if p := res.Phases; p != nil {
		a.queue = append(a.queue, p.QueueMS)
		a.prefetch = append(a.prefetch, p.PrefetchMS)
		a.execute = append(a.execute, p.ExecuteMS)
		a.merge = append(a.merge, p.MergeMS)
	}
	a.first = append(a.first, ms(first))
	a.ranges += float64(res.Ranges)
	a.reassigned += float64(res.Reassigned)
	a.duplicates += float64(res.Duplicates)
}

func (s *serveWarm) layers(_ loopStats, _, m map[string]float64) {
	a := &s.acc
	a.fill(m)
	if len(a.first) == 0 {
		return
	}
	m["serve.phase_queue_ms_p50"] = quantile(a.queue, 0.5)
	m["serve.phase_prefetch_ms_p50"] = quantile(a.prefetch, 0.5)
	m["serve.phase_execute_ms_p50"] = quantile(a.execute, 0.5)
	m["serve.phase_merge_ms_p50"] = quantile(a.merge, 0.5)
	m["serve.first_event_ms_p50"] = quantile(a.first, 0.5)
	m["serve.ranges_per_query"] = a.ranges / float64(len(a.first))
	m["serve.reassigned"] = a.reassigned
	m["serve.duplicates"] = a.duplicates
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runTraced sets the workload up once, runs it for half of d with the
// tracer off, then for the other half with it on, and reports the
// per-layer metrics. The untraced half gives latency_p95_ms and the
// base of trace_overhead.
func runTraced(cfg config, w workload, d time.Duration) (result, string, error) {
	tr := &tracer{routes: map[string]float64{}}
	inst, err := w.setup(cfg, tr)
	if err != nil {
		return result{}, "", fmt.Errorf("%s setup: %w", w.name, err)
	}
	plain := runLoop(w, inst, d/2)
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		inst.close()
		return result{}, "", err
	}
	profPath := filepath.Join(cfg.traceDir, w.name+".cpu.pprof")
	traced, busy, err := traceLoop(w, inst, tr, profPath, d-d/2)
	if closeErr := inst.close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return result{}, "", err
	}

	ledger, samples, err := readLedger(profPath)
	if err != nil {
		return result{}, "", err
	}
	m := map[string]float64{}
	for layer, pct := range ledger {
		m[layer+".cpu_pct"] = pct
	}
	inst.layers(traced, ledger, m)
	ops := float64(traced.ops)
	m["runner.busy_share"] = busy
	m["runcache.loads_per_op"] = float64(tr.loads.Load()) / ops
	m["runcache.load_ms_per_op"] = float64(tr.loadNs.Load()) / 1e6 / ops
	m["runcache.load_kb_per_op"] = float64(tr.loadBytes.Load()) / 1024 / ops
	m["runcache.stores_per_op"] = float64(tr.stores.Load()) / ops
	m["runcache.store_ms_per_op"] = float64(tr.storeNs.Load()) / 1e6 / ops
	m["runcache.store_kb_per_op"] = float64(tr.storeBytes.Load()) / 1024 / ops
	m["runcache.hit_rate"] = ratio(float64(tr.loadHits.Load()), float64(tr.loads.Load()))
	m["cluster.host_p50_ms"] = quantile(tr.hostMS, 0.5)
	m["cluster.host_p99_ms"] = quantile(tr.hostMS, 0.99)
	m["fidelity.fluid_routes_per_op"] = tr.routes["fluid"] / ops
	m["fidelity.des_routes_per_op"] = tr.routes["des"] / ops
	m["runtime.gc_cycles_per_op"] = float64(traced.gcs) / ops
	m["latency_p95_ms"] = quantile(plain.lat, 0.95)
	m["latency_samples"] = float64(plain.ops)
	m["trace_overhead"] = (traced.wall.Seconds() / ops) / (plain.wall.Seconds() / float64(plain.ops))
	if err := microbenchmarks(filepath.Join(cfg.workDir, "micro"), m); err != nil {
		return result{}, "", err
	}

	res := result{
		Correct:   plain.failed == 0 && traced.failed == 0 && traced.digest == plain.digest,
		Attempted: plain.ops + traced.ops,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	if traced.digest != plain.digest {
		fmt.Fprintf(os.Stderr, "%s: traced digest %s differs from untraced %s\n", w.name, traced.digest, plain.digest)
	}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
		delete(m, pl.name)
	}
	for name := range m {
		return result{}, "", fmt.Errorf("metric %s is not in the per-layer table", name)
	}
	out, err := json.MarshalIndent(struct {
		Workload      string            `json:"workload"`
		Seed          uint64            `json:"seed"`
		Digest        string            `json:"digest"`
		Ops           int               `json:"ops"`
		ProfileSample int               `json:"profile_samples"`
		Metrics       map[string]metric `json:"metrics"`
	}{w.name, cfg.seed, plain.digest, traced.ops, samples, res.Metrics}, "", "  ")
	if err != nil {
		return result{}, "", err
	}
	if err := os.WriteFile(filepath.Join(cfg.traceDir, w.name+".layers.json"), append(out, '\n'), 0o644); err != nil {
		return result{}, "", err
	}
	return res, plain.digest, nil
}

// traceLoop runs the loop with the CPU profile, the event sink and the
// pool sampler attached, and returns its stats and the pools' mean busy
// share.
func traceLoop(w workload, inst instance, tr *tracer, profPath string, d time.Duration) (loopStats, float64, error) {
	f, err := os.Create(profPath)
	if err != nil {
		return loopStats{}, 0, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return loopStats{}, 0, err
	}
	obs.Set(tr)
	tr.on.Store(true)
	stop := make(chan struct{})
	busy := make(chan float64, 1)
	go func() { busy <- sampleBusy(inst.busy, stop) }()

	st := runLoop(w, inst, d)

	close(stop)
	share := <-busy
	tr.on.Store(false)
	obs.Set(nil)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return loopStats{}, 0, err
	}
	return st, share, nil
}
