package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hic/internal/cluster"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/runcache"
)

// harness is a coordinator on a loopback listener plus its workers —
// the full wire path (lease protocol, HTTP cache mounts), nothing
// mocked.
type harness struct {
	t       *testing.T
	srv     *Server
	ts      *httptest.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workers []*Worker
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	if opts.Store == nil {
		store, err := runcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
	}
	if opts.WarmStore == nil {
		warm, err := runcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.WarmStore = warm
	}
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, srv: srv, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(h.close)
	return h
}

func (h *harness) close() {
	if h.cancel != nil {
		h.cancel()
	}
	h.wg.Wait()
	h.ts.Close()
}

// startWorkers launches n workers and waits until all are registered.
func (h *harness) startWorkers(n int, tweak func(i int, w *Worker)) {
	h.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	for i := 0; i < n; i++ {
		w := NewWorker(h.ts.URL, WorkerOptions{
			Name:    "tw",
			Threads: 2,
			Poll:    5 * time.Millisecond,
		})
		if tweak != nil {
			tweak(i, w)
		}
		h.workers = append(h.workers, w)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			w.Run(ctx) //nolint:errcheck // ends on cancel
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range h.workers {
		for w.ID() == "" {
			if time.Now().After(deadline) {
				h.t.Fatal("workers did not register")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func (h *harness) query(q QueryRequest) (*QueryResult, []cluster.Point) {
	h.t.Helper()
	var pts []cluster.Point
	res, err := NewClient(h.ts.URL, nil).Query(context.Background(), q,
		func(e QueryEvent) error {
			if e.Kind == KindPoint && e.Point != nil {
				pts = append(pts, *e.Point)
			}
			return nil
		})
	if err != nil {
		h.t.Fatal(err)
	}
	return res, pts
}

// quickQuery matches the cluster package's quickConfig so results can
// be cross-checked against a direct single-process run.
func quickQuery(hosts int) QueryRequest {
	return QueryRequest{
		Hosts:      hosts,
		Seed:       1,
		WarmupMS:   3,
		MeasureMS:  5,
		NoCache:    true, // byte-golden path: no cache, no router
		Points:     true,
		TimeoutSec: 120,
	}
}

// singleProcess runs the same scenario unsharded and returns the
// reference scatter.
func singleProcess(t *testing.T, q QueryRequest) ([]cluster.Point, cluster.Stats) {
	t.Helper()
	cfg := q.ClusterConfig()
	var pts []cluster.Point
	st, err := cluster.RunStream(cfg, func(p cluster.Point) error {
		pts = append(pts, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts, st
}

// TestShardedQueryMatchesSingleProcess is the core tentpole invariant:
// a query sharded across two workers over the wire merges to aggregates
// byte-identical to one in-process run — same point stream, same hash,
// same Stats scatter fields — regardless of which worker ran what.
func TestShardedQueryMatchesSingleProcess(t *testing.T) {
	h := newHarness(t, Options{LeaseTimeout: 30 * time.Second})
	h.startWorkers(2, nil)

	q := quickQuery(48)
	q.RangeHosts = 5 // 10 ranges: both workers participate
	res, streamed := h.query(q)

	ref, refStats := singleProcess(t, q)
	if got, want := res.AggregateHash, cluster.HashPoints(ref); got != want {
		t.Errorf("sharded hash %s != single-process %s", got, want)
	}
	if got, want := cluster.HashPoints(streamed), cluster.HashPoints(ref); got != want {
		t.Errorf("streamed points diverge from the single-process scatter")
	}
	if res.Points != len(ref) {
		t.Errorf("merged %d points, want %d", res.Points, len(ref))
	}
	// Scatter statistics (including the order-sensitive reservoir
	// quantiles) must match exactly; execution accounting differs by
	// construction (dedup is per-worker, not global).
	got, want := res.Stats, refStats
	got.Simulated, got.Collapsed = want.Simulated, want.Collapsed
	if got != want {
		t.Errorf("merged stats:\n%+v\nwant:\n%+v", got, want)
	}
	if res.MergeSkew > 1e-9 {
		t.Errorf("merge skew %g (the moment cross-check disagrees with the point fold)", res.MergeSkew)
	}
	if res.Ranges != 10 {
		t.Errorf("ranges = %d, want 10", res.Ranges)
	}
	if res.Workers != 2 {
		t.Errorf("workers = %d, want 2 (both should report ranges)", res.Workers)
	}
	if res.Reassigned != 0 || res.Duplicates != 0 {
		t.Errorf("healthy run reassigned %d / rejected %d", res.Reassigned, res.Duplicates)
	}
}

// TestWorkerFailureReassigns is the failure-path satellite: a worker
// that dies holding a lease must not lose the range or corrupt the
// merge. The coordinator reassigns after the lease times out and the
// merged aggregates still byte-match a healthy single-worker run, with
// no range double-counted.
func TestWorkerFailureReassigns(t *testing.T) {
	// The lease timeout must comfortably exceed one healthy range's
	// runtime (else slow-but-alive workers get spuriously reassigned),
	// so keep ranges tiny and windows short.
	h := newHarness(t, Options{LeaseTimeout: 5 * time.Second})
	h.startWorkers(2, func(i int, w *Worker) {
		if i == 0 {
			// Completes one range, then dies holding its second lease.
			w.abandonAfter = 1
		}
	})

	q := quickQuery(16)
	q.WarmupMS, q.MeasureMS = 1, 2
	q.RangeHosts = 2 // 8 ranges
	res, _ := h.query(q)

	ref, _ := singleProcess(t, q)
	if got, want := res.AggregateHash, cluster.HashPoints(ref); got != want {
		t.Errorf("post-failure hash %s != single-process %s", got, want)
	}
	if res.Points != len(ref) {
		t.Errorf("merged %d points, want %d (a double-counted or dropped range would change this)",
			res.Points, len(ref))
	}
	if res.Reassigned == 0 {
		t.Error("no lease was reassigned — the dead worker's range was never reclaimed")
	}
	// Duplicates are tolerated (a spuriously reassigned range completing
	// twice), but never double-counted: the point count and hash above
	// are the real invariant.
}

// TestDuplicateCompletionRejected pins first-completion-wins directly:
// replaying a /shard/done body must be rejected, not merged twice.
func TestDuplicateCompletionRejected(t *testing.T) {
	h := newHarness(t, Options{LeaseTimeout: time.Hour})
	h.startWorkers(1, nil)
	w := h.workers[0]

	// Drive the protocol by hand: one-job range, executed twice.
	q := quickQuery(4)
	q.RangeHosts = 4
	resCh := make(chan *QueryResult, 1)
	go func() {
		res, _ := h.query(q)
		resCh <- res
	}()

	// The real worker completes the single range; wait for the result.
	res := <-resCh
	if res.Duplicates != 0 {
		t.Fatalf("clean run rejected %d duplicates", res.Duplicates)
	}

	// Now replay a stale completion for a finished (deleted) job: the
	// coordinator must refuse it rather than resurrect state.
	stale := RangePartial{Job: "q1", RangeID: 0, Worker: w.ID(), Lo: 0, Hi: 4}
	body, _ := json.Marshal(stale)
	resp, err := http.Post(h.ts.URL+DonePath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack struct {
		Accepted bool `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted {
		t.Error("stale completion for a finished job was accepted")
	}
}

// TestResidentStateMakesSecondQueryWarm is the serving point: the
// second identical query is served from resident routers and the
// shared cache — zero anchor runs, zero new simulations, identical
// aggregates.
func TestResidentStateMakesSecondQueryWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibrated fleet twice")
	}
	h := newHarness(t, Options{LeaseTimeout: 30 * time.Second})
	h.startWorkers(1, nil)

	q := QueryRequest{
		Hosts: 48, Seed: 1, WarmupMS: 2, MeasureMS: 4,
		Fidelity: "auto", Tol: 0.08, EarlyStop: true,
		RangeHosts: 12, TimeoutSec: 300,
	}
	cold, _ := h.query(q)
	if cold.Stats.AnchorRuns == 0 {
		t.Error("cold auto query calibrated nothing")
	}
	if cold.Prefetched == 0 {
		t.Error("cold auto query dispensed no prefetch leases (signature extraction broke)")
	}
	warm, _ := h.query(q)
	if warm.AggregateHash != cold.AggregateHash {
		t.Errorf("warm hash %s != cold %s (residency must not change results)",
			warm.AggregateHash, cold.AggregateHash)
	}
	if warm.Stats.AnchorRuns != 0 {
		t.Errorf("warm query ran %d anchors, want 0 (router must stay resident)", warm.Stats.AnchorRuns)
	}
	if warm.Stats.Simulated != 0 {
		t.Errorf("warm query simulated %d hosts, want 0 (cache + resident calibration)", warm.Stats.Simulated)
	}
	ws := h.workers[0].Stats()
	if ws.Routers != 1 {
		t.Errorf("worker holds %d routers, want 1 shared across both queries", ws.Routers)
	}
}

// TestNoCacheQueryGetsItsOwnRouter: a no_cache query and a cached
// query that agree on every routing knob still run on distinct resident
// routers, because only the cached query's router may touch the shared
// cache. Both give the same aggregates.
func TestNoCacheQueryGetsItsOwnRouter(t *testing.T) {
	h := newHarness(t, Options{LeaseTimeout: 30 * time.Second})
	h.startWorkers(1, nil)

	q := QueryRequest{Hosts: 8, Seed: 1, WarmupMS: 2, MeasureMS: 3,
		EarlyStop: true, TimeoutSec: 120}
	cached, _ := h.query(q)
	q.NoCache = true
	uncached, _ := h.query(q)
	if ws := h.workers[0].Stats(); ws.Routers != 2 {
		t.Errorf("worker holds %d routers, want 2 (no_cache shared the cached query's router)", ws.Routers)
	}
	if uncached.AggregateHash != cached.AggregateHash {
		t.Errorf("no_cache hash %s != cached %s", uncached.AggregateHash, cached.AggregateHash)
	}
}

// TestQueryValidation: malformed queries are rejected up front, before
// any lease is cut.
func TestQueryValidation(t *testing.T) {
	h := newHarness(t, Options{})
	for _, bad := range []string{
		`{"hosts": 0}`,
		`{"hosts": -3}`,
		`{"hosts": 8, "fidelity": "psychic"}`,
		`{"hosts": 8, "warm": "lukewarm"}`,
		`{"hosts": 8, "range_hosts": -1}`,
		`{not json`,
	} {
		resp, err := http.Post(h.ts.URL+QueryPath, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// Unregistered workers cannot take leases.
	resp, err := http.Post(h.ts.URL+NextPath, "application/json", strings.NewReader(`{"worker_id":"ghost"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("ghost worker poll: status %d, want 403", resp.StatusCode)
	}
}

// TestRemovedQueryKnobsAreIgnored: a query from an older client that
// still disables knee search, calibration transfer or prefetch decodes,
// validates and keys the same resident router as one without those
// fields. "Off" was what the first two asked for, and it is now the
// only behaviour; prefetch never changed results, so it always runs.
func TestRemovedQueryKnobsAreIgnored(t *testing.T) {
	const base = `"hosts":8,"seed":3,"fidelity":"auto","tol":0.1,"early_stop":true`
	var old, cur QueryRequest
	if err := json.NewDecoder(strings.NewReader(`{` + base + `,"no_knee_search":true,"no_transfer":true,"no_prefetch":true}`)).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(strings.NewReader(`{` + base + `}`)).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	if err := old.Validate(); err != nil {
		t.Fatalf("old-client query rejected: %v", err)
	}
	if got, want := old.FidelitySignature(), cur.FidelitySignature(); got != want {
		t.Errorf("old-client signature %q, want %q", got, want)
	}
	if !old.Prefetchable() {
		t.Error("an old-client auto query with no_prefetch skips prefetch; prefetch always runs in auto mode")
	}
}

// TestCacheMountsServeSharedStores: the coordinator's cache mounts are
// live runcache HTTP backends — a worker-side store dedups through
// them, and warm blobs round-trip.
func TestCacheMountsServeSharedStores(t *testing.T) {
	h := newHarness(t, Options{})

	remote := runcache.NewStore(runcache.NewHTTP(
		runcache.RemoteURL(h.ts.URL, runcache.RemoteResultsPath), nil))
	key := strings.Repeat("ab", 32)
	computes := 0
	compute := func() (host.Results, error) {
		computes++
		return host.Results{LinkUtilization: 0.5}, nil
	}
	if _, err := remote.GetOrCompute(key, "v", "canon", compute); err != nil {
		t.Fatal(err)
	}
	// A second client (fresh mem layer) dedups through the mount.
	remote2 := runcache.NewStore(runcache.NewHTTP(
		runcache.RemoteURL(h.ts.URL, runcache.RemoteResultsPath), nil))
	if _, err := remote2.GetOrCompute(key, "v", "canon", compute); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Errorf("computed %d times through the results mount, want 1", computes)
	}
	// The entry landed in the coordinator's disk store.
	if !h.srv.opts.Store.Contains(key, "v", "canon") {
		t.Error("results mount did not persist to the coordinator store")
	}

	warm := runcache.NewStore(runcache.NewHTTP(
		runcache.RemoteURL(h.ts.URL, runcache.RemoteWarmPath), nil))
	bkey := strings.Repeat("cd", 32)
	type ckpt struct{ Blob string }
	if err := warm.PutBlob(bkey, "v", "canon", ckpt{Blob: "checkpoint"}); err != nil {
		t.Fatal(err)
	}
	var got ckpt
	if ok := warm.GetBlob(bkey, "v", "canon", &got); !ok || got.Blob != "checkpoint" {
		t.Errorf("warm blob round trip = %+v, %v", got, ok)
	}
}

// TestObsSharesCoordinatorMux: with a control plane configured, one
// mux serves both the query API and /metrics (the single-port
// satellite), and a query registers as a tracked run.
func TestObsSharesCoordinatorMux(t *testing.T) {
	osrv := obs.NewServer(obs.Options{})
	h := newHarness(t, Options{Obs: osrv, LeaseTimeout: 30 * time.Second})
	h.startWorkers(1, nil)

	q := quickQuery(8)
	q.Points = false
	h.query(q)

	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	if !strings.Contains(buf.String(), "hic_obs_uptime_seconds") {
		t.Error("/metrics not served from the coordinator mux")
	}
	if !strings.Contains(buf.String(), `run="serve:`) {
		t.Errorf("query did not register as a tracked run:\n%.400s", buf.String())
	}

	var st struct {
		Workers  int    `json:"workers"`
		Queries  uint64 `json:"queries"`
		RangesOK uint64 `json:"ranges_completed"`
	}
	sresp, err := http.Get(h.ts.URL + StatusPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 || st.Queries != 1 || st.RangesOK == 0 {
		t.Errorf("status = %+v", st)
	}
}

// TestCoordinatorStoreSeriesOnce wires the control plane as hicserve
// does (the result store registered as a source, the warm store owned
// by the coordinator): one scrape carries each hic_runcache_* series
// once, the result store's unlabeled and the warm store's under
// store="warm".
func TestCoordinatorStoreSeriesOnce(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	osrv := obs.NewServer(obs.Options{Warn: io.Discard})
	osrv.AddSource(store)
	h := newHarness(t, Options{Store: store, Obs: osrv})
	h.srv.opts.WarmStore.Get("k", "v", "k") // one miss on the warm store only

	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for name, wantWarm := range map[string]float64{"hic_runcache_hits_total": 0, "hic_runcache_misses_total": 1} {
		if v, err := doc.Value(name); err != nil || v != 0 {
			t.Errorf("unlabeled %s = %v, %v; want the result store's 0", name, v, err)
		}
		var warm []obs.PromSample
		for _, smp := range doc.Find(name) {
			if smp.Labels["store"] == "warm" {
				warm = append(warm, smp)
			}
		}
		if len(warm) != 1 {
			t.Errorf(`%s{store="warm"}: %d samples, want 1`, name, len(warm))
		} else if warm[0].Value != wantWarm {
			t.Errorf(`%s{store="warm"} = %g, want %g`, name, warm[0].Value, wantWarm)
		}
	}
}

// TestCoordinatorCountsServedStoreTraffic runs what `hicserve
// -local-workers 2` runs: a cold and then a warm `-warm calib` auto
// query, with the control plane wired as hicserve wires it. The
// workers fetch results and calibrations through the coordinator's
// cache mounts, and those served hits must show on its /metrics: the
// result store's unlabeled hic_runcache_hits_total and the warm
// store's under store="warm".
func TestCoordinatorCountsServedStoreTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibrated fleet twice")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	osrv := obs.NewServer(obs.Options{Warn: io.Discard})
	osrv.AddSource(store)
	h := newHarness(t, Options{Store: store, Obs: osrv, LeaseTimeout: 30 * time.Second})
	h.startWorkers(2, nil)

	q := QueryRequest{
		Hosts: 48, Seed: 1, WarmupMS: 2, MeasureMS: 3,
		Fidelity: "auto", Warm: "calib", TimeoutSec: 300,
	}
	cold, _ := h.query(q)
	warm, _ := h.query(q)
	if warm.AggregateHash != cold.AggregateHash {
		t.Errorf("warm hash %s != cold %s", warm.AggregateHash, cold.AggregateHash)
	}

	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	series := map[string]float64{}
	for _, name := range []string{"hic_runcache_hits_total", "hic_runcache_puts_total"} {
		for _, smp := range doc.Find(name) {
			series[name+"{store="+smp.Labels["store"]+"}"] = smp.Value
		}
	}
	for _, name := range []string{
		"hic_runcache_hits_total{store=}", "hic_runcache_puts_total{store=}",
		"hic_runcache_hits_total{store=warm}", "hic_runcache_puts_total{store=warm}",
	} {
		if series[name] == 0 {
			t.Errorf("coordinator %s = 0 after a cold and a warm query; series %v", name, series)
		}
	}
}

// TestSplitRanges pins the shard granularity rules.
func TestSplitRanges(t *testing.T) {
	rs := splitRanges(100, 0, 2)
	if len(rs) != 17 { // 100/(2*8)=6 per range
		t.Errorf("auto split gave %d ranges", len(rs))
	}
	covered := 0
	prev := 0
	for _, r := range rs {
		if r.lo != prev {
			t.Fatalf("gap or overlap at %d", r.lo)
		}
		covered += r.hi - r.lo
		prev = r.hi
	}
	if covered != 100 {
		t.Errorf("ranges cover %d hosts, want 100", covered)
	}
	if n := len(splitRanges(10, 4, 1)); n != 3 {
		t.Errorf("explicit split gave %d ranges, want 3", n)
	}
	if n := len(splitRanges(3, 0, 16)); n != 3 {
		t.Errorf("tiny fleet split gave %d ranges, want 3 single-host ranges", n)
	}
}
