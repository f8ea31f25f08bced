package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hic/internal/cluster"
	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/trace"
)

// TestTracedQueryByteIdenticalWithSpans is the tracing tentpole's
// contract: a traced query returns the full lifecycle as spans — queue
// and merge on the coordinator track, one track per worker carrying
// its lease envelopes and execution windows — while the merged hash
// stays byte-identical to the untraced and single-process runs.
func TestTracedQueryByteIdenticalWithSpans(t *testing.T) {
	h := newHarness(t, Options{LeaseTimeout: 30 * time.Second})
	h.startWorkers(2, nil)

	q := quickQuery(24)
	q.Points = false
	q.RangeHosts = 3 // 8 ranges: both workers participate
	plain, _ := h.query(q)

	q.Trace = true
	traced, _ := h.query(q)

	ref, _ := singleProcess(t, q)
	if traced.AggregateHash != plain.AggregateHash || traced.AggregateHash != cluster.HashPoints(ref) {
		t.Errorf("tracing changed bytes: traced %s, untraced %s, single-process %s",
			traced.AggregateHash, plain.AggregateHash, cluster.HashPoints(ref))
	}
	if plain.TraceID != "" || len(plain.Trace) != 0 || plain.Phases != nil {
		t.Errorf("untraced result carries trace payload: id=%q spans=%d", plain.TraceID, len(plain.Trace))
	}
	if traced.TraceID == "" {
		t.Fatal("traced result has no trace id")
	}

	// Every lifecycle stage is present, attributed to the right track.
	tracks := map[string]bool{}
	names := map[string]int{}
	workerRangeSpans, execSpans := 0, 0
	for _, sp := range traced.Trace {
		tracks[sp.Track] = true
		names[sp.Name]++
		if sp.EndNs < sp.StartNs {
			t.Errorf("span %q ends before it starts", sp.Name)
		}
		if strings.HasPrefix(sp.Track, "worker ") {
			if strings.HasPrefix(sp.Name, "range ") {
				workerRangeSpans++
				if sp.Args["points"] <= 0 {
					t.Errorf("range span %q has no points arg: %v", sp.Name, sp.Args)
				}
			}
			if sp.Name == "exec" {
				execSpans++
			}
		}
	}
	if names["queue"] != 1 || names["merge"] != 1 || names["execute"] != 1 {
		t.Errorf("coordinator lifecycle spans missing: %v", names)
	}
	if !tracks["coordinator"] {
		t.Errorf("no coordinator track in %v", tracks)
	}
	// One track per worker that reported a range.
	if got := len(tracks) - 1; got != traced.Workers {
		t.Errorf("%d worker tracks, want %d (tracks %v)", got, traced.Workers, tracks)
	}
	if workerRangeSpans != traced.Ranges {
		t.Errorf("%d range spans, want %d", workerRangeSpans, traced.Ranges)
	}
	if execSpans != traced.Ranges {
		t.Errorf("%d exec spans, want %d (every lease reports its execution window)", execSpans, traced.Ranges)
	}

	// Phase breakdown is populated and plausible.
	if traced.Phases == nil {
		t.Fatal("traced result has no phase breakdown")
	}
	if traced.Phases.ExecuteMS <= 0 || traced.Phases.MergeMS <= 0 {
		t.Errorf("phases = %+v, want positive execute/merge", traced.Phases)
	}
	if traced.Phases.PrefetchMS != 0 {
		t.Errorf("plain-DES query reports a prefetch phase: %+v", traced.Phases)
	}

	// The spans export as a loadable Chrome trace with one named thread
	// per track.
	var buf bytes.Buffer
	if err := trace.WriteChromeWallSpans(&buf, "query "+traced.TraceID, traced.Trace); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	threadNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threadNames[ev.Args["name"].(string)] = true
		}
	}
	for track := range tracks {
		if !threadNames[track] {
			t.Errorf("track %q has no thread_name metadata in the export", track)
		}
	}
}

// TestWorkerFailureVisibility is the lease-expiry observability
// satellite: a worker dying mid-range must surface on every plane —
// lease_expired (and an early worker_stale WARN) on the obs event
// stream, a stale registry entry with the expiry attributed — while
// the merged hash stays byte-identical.
func TestWorkerFailureVisibility(t *testing.T) {
	osrv := obs.NewServer(obs.Options{Warn: io.Discard})
	h := newHarness(t, Options{Obs: osrv, LeaseTimeout: 5 * time.Second})
	h.startWorkers(2, func(i int, w *Worker) {
		if i == 0 {
			// Completes one range, then dies holding its second lease.
			w.abandonAfter = 1
		}
	})
	dead := h.workers[0]

	q := quickQuery(16)
	q.WarmupMS, q.MeasureMS = 1, 2
	q.RangeHosts = 2 // 8 ranges
	res, _ := h.query(q)

	ref, _ := singleProcess(t, q)
	if got, want := res.AggregateHash, cluster.HashPoints(ref); got != want {
		t.Errorf("post-failure hash %s != single-process %s", got, want)
	}
	if res.Reassigned == 0 {
		t.Fatal("no lease was reassigned — the test did not exercise expiry")
	}

	// The event stream shows the lifecycle: grants, completions, the
	// stale WARN, and the expiry — stale strictly before expiry (early
	// notice is the point).
	resp, err := http.Get(h.ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var staleSeq, expireSeq uint64
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds[e.Kind]++
		switch e.Kind {
		case obs.KindWorkerStale:
			if e.Key != dead.ID() {
				t.Errorf("worker_stale names %q, want the dead worker %q", e.Key, dead.ID())
			}
			if staleSeq == 0 {
				staleSeq = e.Seq
			}
		case obs.KindLeaseExpired:
			if e.Key != dead.ID() {
				t.Errorf("lease_expired names %q, want the dead worker %q", e.Key, dead.ID())
			}
			if expireSeq == 0 {
				expireSeq = e.Seq
			}
		}
	}
	if kinds[obs.KindLeaseGrant] == 0 || kinds[obs.KindLeaseDone] == 0 {
		t.Errorf("lease lifecycle events missing: %v", kinds)
	}
	if expireSeq == 0 {
		t.Fatalf("no lease_expired event emitted; kinds: %v", kinds)
	}
	if staleSeq == 0 {
		t.Fatalf("no worker_stale WARN emitted; kinds: %v", kinds)
	}
	if staleSeq >= expireSeq {
		t.Errorf("worker_stale (seq %d) did not precede lease_expired (seq %d)", staleSeq, expireSeq)
	}

	// The registry shows the dead worker stale with the expiry
	// attributed, and the survivor fresh.
	var reg struct {
		Workers       []WorkerInfo `json:"workers"`
		StaleAfterSec float64      `json:"stale_after_sec"`
	}
	wresp, err := http.Get(h.ts.URL + WorkersPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if err := json.NewDecoder(wresp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Workers) != 2 {
		t.Fatalf("registry has %d workers, want 2", len(reg.Workers))
	}
	for _, info := range reg.Workers {
		if info.ID == dead.ID() {
			if !info.Stale {
				t.Errorf("dead worker not stale: %+v", info)
			}
			if info.Expirations == 0 {
				t.Errorf("dead worker has no expirations attributed: %+v", info)
			}
		} else if info.Stale {
			t.Errorf("surviving worker marked stale: %+v", info)
		}
	}
}

// TestFederatedMetricsSumToMergedCounters is the federation tentpole's
// contract plus the golden exposition gate: the coordinator's /metrics
// exposes per-worker hic_worker_* series (validated through
// obs.ParseProm) whose per-counter sums equal the merged query's
// counters — every counter of the cluster.Stats enumeration, each of
// the router's also exported as hic_fidelity_* — with label-free
// hic_workers_* fleet rollups agreeing.
func TestFederatedMetricsSumToMergedCounters(t *testing.T) {
	osrv := obs.NewServer(obs.Options{Warn: io.Discard})
	h := newHarness(t, Options{Obs: osrv, LeaseTimeout: 30 * time.Second})
	h.startWorkers(2, nil)

	q := quickQuery(24)
	q.Points = false
	q.NoCache = false  // exercise the cache so collapse/hit deltas flow
	q.RangeHosts = 3   // 8 ranges
	q.EarlyStop = true // route through a router so its counters flow
	res, _ := h.query(q)

	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("coordinator exposition does not parse: %v", err)
	}

	sumOf := func(name string) float64 {
		var sum float64
		for _, s := range doc.Find(name) {
			if s.Labels["worker"] == "" {
				t.Errorf("%s sample missing worker label: %+v", name, s)
			}
			sum += s.Value
		}
		return sum
	}
	// Per-worker series sum to the merged query's counters.
	res.Stats.Each(func(name string, want uint64) {
		if got := sumOf("hic_worker_" + name); got != float64(want) {
			t.Errorf("sum(hic_worker_%s) = %g, want %d (the merged query's counter)", name, got, want)
		}
	})
	if res.Stats.DESRouted == 0 || res.Stats.EarlyStopped == 0 {
		t.Errorf("router counters did not flow: %+v", res.Stats.Counters)
	}
	// Every router counter is also a live hic_fidelity_* series.
	router, err := fidelity.New(fidelity.Config{})
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	router.MetricsInto(func(name, _ string, _ float64) { exported[name] = true })
	res.Stats.Counters.Each(func(name string, _ uint64) {
		if !exported["hic_fidelity_"+name] {
			t.Errorf("router exposition is missing hic_fidelity_%s", name)
		}
	})
	if got := sumOf("hic_worker_ranges_done_total"); got != float64(res.Ranges) {
		t.Errorf("sum(hic_worker_ranges_done_total) = %g, want %d", got, res.Ranges)
	}

	// Fleet rollups are the label-free sums of the labeled series.
	for _, name := range []string{"simulated_total", "hosts_done_total"} {
		rolled, err := doc.Value("hic_workers_" + name)
		if err != nil {
			t.Errorf("fleet rollup hic_workers_%s: %v", name, err)
			continue
		}
		if got := sumOf("hic_worker_" + name); rolled != got {
			t.Errorf("hic_workers_%s = %g, want the per-worker sum %g", name, rolled, got)
		}
	}

	// Golden exposition: the federated name set is present and typed.
	for _, name := range []string{
		"hic_worker_last_seen_seconds", "hic_worker_stale", "hic_worker_backoff_ms",
		"hic_worker_active_lease", "hic_worker_ranges_done_total",
		"hic_worker_prefetches_done_total", "hic_worker_expirations_total",
		"hic_worker_duplicates_total", "hic_worker_hosts_done_total",
		"hic_worker_simulated_total", "hic_worker_exec_ms_total",
		"hic_worker_pool_tasks_total",
		"hic_workers_registered", "hic_workers_stale", "hic_workers_active_leases",
		"hic_workers_ranges_done_total", "hic_workers_simulated_total",
	} {
		if len(doc.Find(name)) == 0 {
			t.Errorf("exposition is missing %s", name)
		}
		if doc.Types[name] == "" {
			t.Errorf("%s has no TYPE line", name)
		}
	}

	// The registry endpoint agrees with the exposition by construction:
	// same counters map, same fold.
	var reg struct {
		Workers []WorkerInfo `json:"workers"`
	}
	wresp, err := http.Get(h.ts.URL + WorkersPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if err := json.NewDecoder(wresp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	var regSum float64
	for _, info := range reg.Workers {
		if info.Stale {
			t.Errorf("healthy worker marked stale: %+v", info)
		}
		regSum += info.Counters["simulated_total"]
	}
	if regSum != float64(res.Stats.Simulated) {
		t.Errorf("registry simulated sum %g != merged %d", regSum, res.Stats.Simulated)
	}
}

// TestWorkerMetricSource pins the worker's own -listen plane surface:
// lease counters, idle/backoff state, and the resident pool and cache
// series, all through a live scrape.
func TestWorkerMetricSource(t *testing.T) {
	h := newHarness(t, Options{LeaseTimeout: 30 * time.Second})
	h.startWorkers(1, nil)

	q := quickQuery(8)
	q.Points = false
	q.RangeHosts = 4
	h.query(q)

	// Let the worker hit at least one empty poll so backoff is live.
	time.Sleep(30 * time.Millisecond)

	osrv := obs.NewServer(obs.Options{Warn: io.Discard})
	osrv.AddSource(h.workers[0])
	var buf bytes.Buffer
	if err := osrv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("worker exposition does not parse: %v\n%s", err, buf.String())
	}
	if v, err := doc.Value("hic_serve_worker_leases_total"); err != nil || v < 2 {
		t.Errorf("hic_serve_worker_leases_total = %g (%v), want >= 2", v, err)
	}
	if v, err := doc.Value("hic_serve_worker_hosts_total"); err != nil || v != 8 {
		t.Errorf("hic_serve_worker_hosts_total = %g (%v), want 8", v, err)
	}
	if v, err := doc.Value("hic_serve_worker_executing"); err != nil || v != 0 {
		t.Errorf("hic_serve_worker_executing = %g (%v), want 0 (idle)", v, err)
	}
	if v, err := doc.Value("hic_serve_worker_idle_backoff_ms"); err != nil || v <= 0 {
		t.Errorf("hic_serve_worker_idle_backoff_ms = %g (%v), want > 0 after empty polls", v, err)
	}
	for _, name := range []string{"hic_pool_workers", "hic_runcache_hits_total",
		"hic_serve_worker_since_last_lease_seconds", "hic_serve_worker_routers"} {
		if len(doc.Find(name)) == 0 {
			t.Errorf("worker exposition is missing %s\n%s", name, buf.String())
		}
	}
}

// TestServeTraceDisabledZeroAlloc pins the zero-overhead-when-disabled
// discipline for query tracing: on an untraced query every trace hook
// is a method on a nil *queryTrace, and none of them may allocate.
// Run by name in the Makefile's check-tests under the plain runtime.
func TestServeTraceDisabledZeroAlloc(t *testing.T) {
	var qt *queryTrace
	t0 := time.Now()
	t1 := t0.Add(time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		qt.grant("range", t0)
		qt.span("range 0 [0,8)", "worker w1", t0, t1, nil)
		qt.rangeDone(t1)
		qt.barrier(t1)
		qt.fold(t1)
		if spans, phases := qt.finish(t1); spans != nil || phases != nil {
			t.Fatal("nil trace produced output")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled trace path allocates %.1f per query lifecycle, want 0", allocs)
	}
}
