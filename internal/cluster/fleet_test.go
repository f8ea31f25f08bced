package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

func quickConfig(hosts int) Config {
	return Config{Hosts: hosts, Seed: 1, Warmup: 3 * sim.Millisecond, Measure: 5 * sim.Millisecond}
}

// fleetHash fingerprints a scatter point-by-point (full float formatting,
// so any bit-level drift shows). It is the exported HashPoints — aliased
// here so the golden pin reads the same as it always has.
func fleetHash(points []Point) string { return HashPoints(points) }

// goldenFleetHash pins the 32-host quick fleet (the same population
// TestFleetReproducesFig1Claims checks). Captured with dedup disabled on
// fresh engines; the test asserts the deduplicated pooled path
// reproduces it exactly. Recompute and repin (with a SimVersion bump)
// only for deliberate simulator or catalog changes.
const goldenFleetHash = "8fd1009b2e60bf3f"

func TestFleetGoldenAndDedupInvisible(t *testing.T) {
	cfg := quickConfig(32)

	cfg.NoDedup = true
	baseline, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetHash(baseline); got != goldenFleetHash {
		t.Errorf("no-dedup fleet hash = %s, want %s", got, goldenFleetHash)
	}

	cfg.NoDedup = false
	var streamed []Point
	st, err := RunStream(cfg, func(p Point) error {
		streamed = append(streamed, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetHash(streamed); got != goldenFleetHash {
		t.Errorf("deduplicated fleet hash = %s, want %s (dedup must be invisible)", got, goldenFleetHash)
	}
	if st.Collapsed == 0 {
		t.Error("32-host fleet collapsed nothing — catalog discreteness broken")
	}
	if st.Simulated+st.Collapsed != 32 {
		t.Errorf("simulated %d + collapsed %d != 32 hosts", st.Simulated, st.Collapsed)
	}
	if st.Simulated >= 32 {
		t.Errorf("simulated %d of 32 — dedup saved nothing", st.Simulated)
	}
}

func TestRunStreamStatsMatchSummarize(t *testing.T) {
	cfg := quickConfig(16)
	var pts []Point
	st, err := RunStream(cfg, func(p Point) error {
		pts = append(pts, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Summarize(pts)
	// Execution accounting is RunStream-only; the scatter statistics must
	// agree exactly (same aggregator, same insertion order).
	want.Simulated, want.Collapsed, want.CacheSkipped = st.Simulated, st.Collapsed, st.CacheSkipped
	if st != want {
		t.Errorf("RunStream stats %+v\n != Summarize %+v", st, want)
	}
}

func TestFleetWithCacheMatchesUncached(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(24)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = store
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fleetHash(cold) != fleetHash(plain) || fleetHash(warm) != fleetHash(plain) {
		t.Error("cached fleet diverges from uncached")
	}
	if store.Stats().Hits == 0 {
		t.Error("warm fleet pass hit nothing")
	}
}

// TestMultiWindowCacheSkipAccounted pins satellite behavior: a cache
// configured on a multi-window fleet is skipped for every host, the skip
// is logged once, and Stats report the count.
func TestMultiWindowCacheSkipAccounted(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	cfg := Config{Hosts: 4, WindowsPerHost: 2, Seed: 1,
		Warmup: 2 * sim.Millisecond, Measure: 3 * sim.Millisecond,
		Cache: store, Log: &log}
	st, err := RunStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheSkipped != 4 {
		t.Errorf("CacheSkipped = %d, want 4", st.CacheSkipped)
	}
	if n := strings.Count(log.String(), "bypass the run cache"); n != 1 {
		t.Errorf("skip notice logged %d times, want once:\n%s", n, log.String())
	}
	if st.Simulated != 4 {
		t.Errorf("Simulated = %d, want 4 (multi-window hosts must not dedup)", st.Simulated)
	}
	if hits, misses := store.Hits(), store.Misses(); hits != 0 || misses != 0 {
		t.Errorf("store touched for multi-window hosts: %d hits, %d misses", hits, misses)
	}
}

func TestHostScenarioRandomAccess(t *testing.T) {
	cfg := quickConfig(64)
	// Deriving host 37 in isolation must equal deriving it after others.
	p1, m1 := HostScenario(cfg, 37)
	for i := 0; i < 64; i++ {
		HostScenario(cfg, i)
	}
	p2, m2 := HostScenario(cfg, 37)
	if p1 != p2 || m1 != m2 {
		t.Error("HostScenario not random-access")
	}
	// Different fleet seeds must change the draw for at least some hosts.
	cfg2 := cfg
	cfg2.Seed = 2
	diff := 0
	for i := 0; i < 64; i++ {
		a, _ := HostScenario(cfg, i)
		b, _ := HostScenario(cfg2, i)
		if a != b {
			diff++
		}
	}
	if diff == 0 {
		t.Error("fleet seed has no effect on host scenarios")
	}
}

// TestFleetDESRouterGolden: a fidelity router in ModeDES (no early stop)
// must be invisible — the golden fleet hash is unchanged with the
// routing layer compiled in and enabled.
func TestFleetDESRouterGolden(t *testing.T) {
	cfg := quickConfig(32)
	router, err := fidelity.New(fidelity.Config{Mode: fidelity.ModeDES})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = router
	var points []Point
	st, err := RunStream(cfg, func(p Point) error {
		points = append(points, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetHash(points); got != goldenFleetHash {
		t.Errorf("ModeDES-routed fleet hash = %s, want %s (router must be invisible)", got, goldenFleetHash)
	}
	if st.FluidRouted != 0 || st.EarlyStopped != 0 || st.Audited != 0 {
		t.Errorf("ModeDES routed approximately: %+v", st)
	}
	if st.Simulated+st.Collapsed != 32 {
		t.Errorf("simulated %d + collapsed %d != 32 hosts", st.Simulated, st.Collapsed)
	}
}

// TestFleetAutoRouterAccounting: ModeAuto with audit and early stopping
// on a mid-size fleet — accounting must add up, qualitative Figure 1
// claims must survive, and every audited point must be within tolerance.
func TestFleetAutoRouterAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run is slow")
	}
	// Small fleet and coarse anchor grid: the anchor calibration runs
	// |signatures|×|ants|×|seeds| DES points up front, which must stay
	// affordable under -race (make check runs this suite race-enabled).
	cfg := quickConfig(120)
	cfg.Warmup, cfg.Measure = 2*sim.Millisecond, 4*sim.Millisecond
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         0.08,
		AuditRate:   0.25,
		EarlyStop:   true,
		AnchorSeeds: SeedPool(cfg),
		AnchorAnts:  []int{0, 8, 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = router
	st, err := RunStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stats: %+v", st)
	if st.Hosts != 120 {
		t.Fatalf("Hosts = %d", st.Hosts)
	}
	// Every host is either executed under some strategy, served from a
	// memoized anchor, or collapsed by dedup; anchor runs are extra
	// simulations beyond the host count.
	if got := st.Simulated - st.AnchorRuns + st.FluidRouted + st.Collapsed; got != 120 {
		t.Errorf("execution accounting does not add up: sim %d - anchors %d + fluid %d + collapsed %d = %d, want 120",
			st.Simulated, st.AnchorRuns, st.FluidRouted, st.Collapsed, got)
	}
	if st.FluidRouted == 0 {
		t.Error("no host fluid-routed — auto routing is vacuous on the fleet mix")
	}
	if st.Pearson <= 0 {
		t.Errorf("utilization–drop correlation = %v, want positive", st.Pearson)
	}
	if st.Audited > 0 && st.AuditMaxErr > router.Tol() {
		t.Errorf("audit max error %.4f exceeds tolerance %.3f (%d/%d over)",
			st.AuditMaxErr, router.Tol(), st.AuditOverTol, st.Audited)
	}
}

// TestFleetGoldenWithObservatory pins the tentpole passivity property at
// fleet scale: attaching the observatory leaves the golden fleet hash
// byte-identical, dedup still collapses hosts (collapsed hosts replay
// the memoized report), and every host lands in the collector.
func TestFleetGoldenWithObservatory(t *testing.T) {
	cfg := quickConfig(32)
	collector := observatory.NewCollector(observatory.DefaultConfig())
	cfg.Observatory = collector
	var points []Point
	st, err := RunStream(cfg, func(p Point) error {
		points = append(points, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetHash(points); got != goldenFleetHash {
		t.Errorf("observed fleet hash = %s, want %s (observatory must be passive)", got, goldenFleetHash)
	}
	if st.Collapsed == 0 {
		t.Error("observatory disabled dedup — memoized reports should keep it on")
	}
	s := collector.Summary()
	if s.Hosts != 32 {
		t.Errorf("collector saw %d hosts, want 32", s.Hosts)
	}
	if s.Episodes == 0 {
		t.Error("32-host fleet produced no congestion episodes (catalog has saturating workloads)")
	}
	if len(s.Cells) == 0 {
		t.Error("no catalog cells aggregated")
	}
}

// TestObservatoryForcesFullDES: with an observatory configured, both the
// fidelity router and the run cache are bypassed (with log notes), and
// the bypass is accounted in CacheSkipped.
func TestObservatoryForcesFullDES(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	router, err := fidelity.New(fidelity.Config{Mode: fidelity.ModeDES})
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	cfg := quickConfig(8)
	cfg.Cache = store
	cfg.Exec = router
	cfg.Log = &log
	cfg.Observatory = observatory.NewCollector(observatory.DefaultConfig())
	st, err := RunStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheSkipped != 8 {
		t.Errorf("CacheSkipped = %d, want 8 (observatory bypasses the cache)", st.CacheSkipped)
	}
	if hits, misses := store.Hits(), store.Misses(); hits != 0 || misses != 0 {
		t.Errorf("store touched under observatory: %d hits, %d misses", hits, misses)
	}
	if !strings.Contains(log.String(), "observatory forces full DES") {
		t.Errorf("router-disabled notice missing:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "bypass the run cache") {
		t.Errorf("cache-bypass notice missing:\n%s", log.String())
	}
	if st.FluidRouted != 0 || st.EarlyStopped != 0 {
		t.Errorf("router still routed under observatory: %+v", st)
	}
}

// TestCellLabelConsistent: the cell label is deterministic, random-access,
// and names the same SKU and antagonist tier HostScenario derives.
func TestCellLabelConsistent(t *testing.T) {
	cfg := quickConfig(64)
	labels := make(map[string]bool)
	for i := 0; i < 64; i++ {
		l1 := CellLabel(cfg, i)
		if l2 := CellLabel(cfg, i); l1 != l2 {
			t.Fatalf("CellLabel(%d) not deterministic: %q vs %q", i, l1, l2)
		}
		p, _ := HostScenario(cfg, i)
		if want := fmt.Sprintf("sku%dt", p.Threads); !strings.Contains(l1, want) {
			t.Errorf("label %q does not name SKU %s", l1, want)
		}
		if want := fmt.Sprintf("/ant%d", p.AntagonistCores); !strings.HasSuffix(l1, want) {
			t.Errorf("label %q does not end with %s", l1, want)
		}
		labels[l1] = true
	}
	if len(labels) < 2 {
		t.Error("64 hosts share one cell label — catalog labeling collapsed")
	}
}

// TestRunRangeConcatenationMatchesFullRun pins the property serve's
// sharding depends on: hosts are random-access, so running the fleet as
// disjoint index ranges (on private pools, like shard workers do) and
// concatenating the ranges in order is byte-identical to one full run —
// including against the committed golden.
func TestRunRangeConcatenationMatchesFullRun(t *testing.T) {
	cfg := quickConfig(32)
	var merged []Point
	var simulated uint64
	for _, r := range [][2]int{{0, 9}, {9, 10}, {10, 24}, {24, 32}} {
		rcfg := cfg
		rcfg.Pool = runner.New(2)
		stats, err := RunRange(rcfg, r[0], r[1], func(p Point) error {
			merged = append(merged, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Hosts != r[1]-r[0] {
			t.Fatalf("range [%d,%d) reported %d hosts", r[0], r[1], stats.Hosts)
		}
		simulated += stats.Simulated
	}
	if got := fleetHash(merged); got != goldenFleetHash {
		t.Errorf("concatenated range hash = %s, want %s", got, goldenFleetHash)
	}
	if simulated == 0 {
		t.Error("no simulations accounted across ranges")
	}
	// Range Stats fold the same aggregates a full run would when merged
	// over the same ordered points.
	full := Summarize(merged)
	whole, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w := Summarize(whole); w != full {
		t.Errorf("summaries diverge:\nranges: %+v\nfull:   %+v", full, w)
	}
}

// TestRunRangeValidation: out-of-fleet ranges are errors, not silent
// truncation — a coordinator bug must not drop hosts.
func TestRunRangeValidation(t *testing.T) {
	cfg := quickConfig(8)
	for _, r := range [][2]int{{-1, 4}, {4, 4}, {5, 4}, {0, 9}} {
		if _, err := RunRange(cfg, r[0], r[1], nil); err == nil {
			t.Errorf("range [%d,%d) accepted", r[0], r[1])
		}
	}
}

// TestFleetAutoRouterRerunDeterministic pins the serving invariant
// behind hicserve's resident routers: rerunning an identical fleet
// against the SAME router (calibration now fully resident) must
// reproduce the first pass byte-for-byte. Routing decisions therefore
// cannot depend on what happened to be calibrated when a point
// arrived — the regression this guards is anchor-coincident points
// fluid-routing on a cold pass but anchor-reusing on a warm one.
func TestFleetAutoRouterRerunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibrated fleet twice")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Hosts: 32, Seed: 1, Warmup: 2 * sim.Millisecond, Measure: 3 * sim.Millisecond, Cache: store}
	router, err := fidelity.New(fidelity.Config{
		Mode: fidelity.ModeAuto, Tol: 0.08, EarlyStop: true,
		Cache: store, AnchorSeeds: SeedPool(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = router
	run := func() ([]Point, Stats) {
		var pts []Point
		st, err := RunStream(cfg, func(p Point) error {
			pts = append(pts, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts, st
	}
	cold, cs := run()
	warm, ws := run()
	if fleetHash(cold) != fleetHash(warm) {
		for i := range cold {
			if cold[i] != warm[i] {
				t.Errorf("host %d diverges on rerun: %+v vs %+v", cold[i].Host, cold[i], warm[i])
			}
		}
	}
	if cs.AnchorRuns == 0 {
		t.Error("cold pass calibrated nothing — test is vacuous")
	}
	if ws.AnchorRuns != 0 || ws.Simulated != 0 {
		t.Errorf("warm pass re-executed: %d anchors, %d simulations (want 0, 0)", ws.AnchorRuns, ws.Simulated)
	}
}

// estopCounter is an obs.Sink counting early_stop events.
type estopCounter struct{ n atomic.Uint64 }

func (c *estopCounter) Emit(e obs.Event) {
	if e.Kind == obs.KindEarlyStop {
		c.n.Add(1)
	}
}
func (*estopCounter) StartRun(string, int64, ...string) *obs.Run { return nil }
func (*estopCounter) RunMetrics(obs.Snapshot)                    {}

// TestEarlyStopEventPerStoppedRun: on an auto fleet with early stop and
// full warm start, every early-stopped run — anchor, DES-routed point,
// checkpoint donor or warm start — emits exactly one early_stop event
// to the router's own sink, on the cold pass and on the warm pass.
func TestEarlyStopEventPerStoppedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run is slow")
	}
	cfg := quickConfig(12)
	cfg.Warmup, cfg.Measure = 2*sim.Millisecond, 4*sim.Millisecond
	dir := t.TempDir()
	for pass := 0; pass < 2; pass++ {
		store, err := runcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sink := &estopCounter{}
		router, err := fidelity.New(fidelity.Config{
			Mode:        fidelity.ModeAuto,
			Tol:         0.08,
			EarlyStop:   true,
			Warm:        fidelity.WarmFull,
			WarmStore:   store,
			AnchorSeeds: SeedPool(cfg),
			AnchorAnts:  []int{0, 15},
			Sink:        sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Exec = router
		if _, err := RunStream(cfg, nil); err != nil {
			t.Fatal(err)
		}
		c := router.Counters()
		if c.EarlyStopped == 0 {
			t.Fatalf("pass %d: nothing early-stopped — the check is vacuous (%+v)", pass, c)
		}
		if got := sink.n.Load(); got != c.EarlyStopped {
			t.Errorf("pass %d: %d early_stop events for %d early-stopped runs (%+v)", pass, got, c.EarlyStopped, c)
		}
		if pass == 1 && c.WarmStarted == 0 {
			t.Errorf("warm pass warm-started nothing: %+v", c)
		}
	}
}
