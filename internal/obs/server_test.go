package obs

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hic/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestServer pins the server clock so uptime, rates, and ETAs in the
// exposition are exact.
func newTestServer(clk *fakeClock, w io.Writer) *Server {
	if w == nil {
		w = io.Discard
	}
	s := NewServer(Options{Warn: w, EventCap: 64})
	s.now = clk.now
	s.start = clk.t
	return s
}

// fakeSource stands in for runner.Pool / runcache.Store / the fidelity
// router: a fixed set of live samples.
type fakeSource struct{}

func (fakeSource) MetricsInto(emit func(name, typ string, v float64)) {
	emit("hic_pool_workers", "gauge", 4)
	emit("hic_pool_slots_busy", "gauge", 3)
	emit("hic_pool_slots_idle", "gauge", 1)
	emit("hic_pool_tasks_done_total", "counter", 128)
}

// TestWriteMetricsGolden drives a deterministic server state through
// every exposition section — self counters, kind counts, run registry,
// live sources, fleet rollup — and compares against the golden file.
// The output must also survive the package's own 0.0.4 parser.
func TestWriteMetricsGolden(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(clk, nil)
	s.AddSource(fakeSource{})

	r := s.StartRun("fleet", 10)
	for i := 0; i < 4; i++ {
		s.Emit(Event{Kind: KindPointStart, Run: "fleet", Point: i})
		clk.advance(time.Second)
		r.Advance(1)
		s.Emit(Event{Kind: KindPointFinish, Run: "fleet", Point: i, DurMS: 1000})
	}
	s.Emit(Event{Kind: KindCacheCollapse, Key: "abcd", Why: "memo"})
	s.Emit(Event{Kind: KindFidelityRoute, Route: "fluid", Why: "below knee"})

	snap := metrics.Snapshot{
		Counters: map[string]uint64{"nic.rx.drops": 7, "host.events": 1000},
		Gauges:   map[string]metrics.GaugeSnapshot{"nic.rx.queue": {Value: 3, Max: 12}},
		Histograms: map[string]metrics.HistogramSnapshot{
			"pkt.latency": {Count: 500, Sum: 2.5},
		},
	}
	s.RunMetrics(snap)
	s.RunMetrics(snap) // counters sum, gauge max is idempotent

	clk.advance(time.Second) // 5s total uptime at scrape time
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}

	doc, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	checks := []struct {
		name string
		want float64
	}{
		{"hic_obs_uptime_seconds", 5},
		{"hic_obs_events_total", 11}, // run_start + 4×(point_start+point_finish) + collapse + route
		{"hic_obs_warnings_total", 0},
		{"hic_pool_workers", 4},
		{"hic_fleet_runs_total", 2},
		{"hic_fleet_nic_rx_drops_total", 14},
		{"hic_fleet_nic_rx_queue_max", 12},
		{"hic_fleet_pkt_latency_count", 1000},
		{"hic_fleet_pkt_latency_sum", 5},
	}
	for _, c := range checks {
		got, err := doc.Value(c.name)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %g, want %g", c.name, got, c.want)
		}
	}
	runs := doc.Find("hic_obs_run_done")
	if len(runs) != 1 || runs[0].Labels["run"] != "fleet" || runs[0].Value != 4 {
		t.Errorf("hic_obs_run_done = %+v", runs)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s (re-run with -update after intentional changes)\n--- got ---\n%s--- want ---\n%s",
			golden, buf.String(), want)
	}
}

func TestEmitWarnsImmediately(t *testing.T) {
	clk := newFakeClock()
	var warnings bytes.Buffer
	s := newTestServer(clk, &warnings)

	s.Emit(Event{Kind: KindAuditResult, Key: "sig", Value: 0.01, Tol: 0.05})
	if warnings.Len() != 0 {
		t.Fatalf("within-tolerance audit warned: %q", warnings.String())
	}
	s.Emit(Event{Kind: KindAuditResult, Key: "sig", Value: 0.09, Tol: 0.05, OverTol: true})
	s.Emit(Event{Kind: KindWarning, Why: "profiler: disk full"})

	lines := strings.Split(strings.TrimSpace(warnings.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d warning lines, want 2:\n%s", len(lines), warnings.String())
	}
	if !strings.HasPrefix(lines[0], "obs: WARN {") || !strings.Contains(lines[0], `"over_tol":true`) {
		t.Errorf("audit warning line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "disk full") {
		t.Errorf("warning line = %q", lines[1])
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Value("hic_obs_warnings_total"); v != 2 {
		t.Errorf("hic_obs_warnings_total = %g, want 2", v)
	}
}

func TestStartRunBracketsEvents(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(clk, nil)
	r := s.StartRun("bench", 2, "a", "b")
	r.Advance(2)
	r.Finish()
	evs := s.ring.Snapshot()
	if len(evs) != 2 || evs[0].Kind != KindRunStart || evs[1].Kind != KindRunFinish {
		t.Fatalf("events = %+v, want run_start then run_finish", evs)
	}
	if evs[0].Run != "bench" || evs[1].Run != "bench" {
		t.Errorf("run labels = %q, %q", evs[0].Run, evs[1].Run)
	}
	if evs[0].WallNs == 0 {
		t.Error("WallNs not stamped")
	}
}

// TestMetricNameStabilityAcrossZero is the exposition-stability gate:
// the series names and types a registry exports must be identical
// before and after Registry.Zero(), because arena reuse Zeroes the same
// registry between simulations and dashboards key on stable names.
func TestMetricNameStabilityAcrossZero(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("nic.rx.drops").Add(9)
	reg.Counter("host.sched.preemptions").Add(2)
	reg.Gauge("nic.rx.queue").Set(5)
	reg.Histogram("pkt.latency").Observe(1.5)
	reg.Histogram("pkt.latency").Observe(2.5)

	export := func() (names []string, types map[string]string) {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		doc, err := ParseProm(&buf)
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
		}
		seen := map[string]bool{}
		for _, s := range doc.Samples {
			if !seen[s.Name] {
				seen[s.Name] = true
				names = append(names, s.Name)
			}
		}
		sort.Strings(names)
		return names, doc.Types
	}

	namesBefore, typesBefore := export()
	if len(namesBefore) == 0 {
		t.Fatal("no samples exported")
	}
	reg.Zero()
	namesAfter, typesAfter := export()

	if strings.Join(namesBefore, ",") != strings.Join(namesAfter, ",") {
		t.Errorf("series names changed across Zero():\nbefore %v\nafter  %v", namesBefore, namesAfter)
	}
	for name, typ := range typesBefore {
		if typesAfter[name] != typ {
			t.Errorf("TYPE of %s changed across Zero(): %s -> %s", name, typ, typesAfter[name])
		}
	}
	// And the zeroed values really are zero.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := doc.Value("hic_nic_rx_drops"); v != 0 {
		t.Errorf("hic_nic_rx_drops = %g after Zero, want 0", v)
	}
}

// TestDisabledPathZeroAlloc is the control plane's half of the
// zero-alloc gate: with no sink installed, the instrumented layers'
// entire obs interaction — the global read, the nil check, and every
// nil-safe *Run method — performs zero allocations, so -listen-less
// runs stay on the allocation-free hot path.
func TestDisabledPathZeroAlloc(t *testing.T) {
	if Default() != nil {
		t.Fatal("sink installed at test start")
	}
	var r *Run
	if allocs := testing.AllocsPerRun(1000, func() {
		if s := Default(); s != nil {
			t.Fatal("sink appeared mid-test")
		}
		r.Advance(1)
		r.SetPhase("simulate")
		r.Finish()
		_ = r.Label()
	}); allocs != 0 {
		t.Errorf("disabled instrumentation path allocates %.1f per run, want 0", allocs)
	}
}

func TestGlobalSinkInstall(t *testing.T) {
	if Default() != nil {
		t.Fatal("sink installed at test start")
	}
	clk := newFakeClock()
	s := newTestServer(clk, nil)
	Set(s)
	defer Set(nil)
	if Default() != Sink(s) {
		t.Error("Default did not return the installed sink")
	}
	Set(nil)
	if Default() != nil {
		t.Error("Set(nil) did not uninstall")
	}
}

// TestRegisterSharesMuxWithoutPanic pins the serve-daemon contract: the
// control plane can be registered onto a mux that already serves its
// own API under some of the same patterns, the host's handlers win the
// conflicts, and everything else still works — no duplicate-pattern
// panic, one port.
func TestRegisterSharesMuxWithoutPanic(t *testing.T) {
	s := NewServer(Options{Warn: io.Discard})
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "host root")
	})
	mux.HandleFunc("/api/v1/query", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "host api")
	})

	added := s.Register(mux)
	for _, p := range added {
		if p == "/" {
			t.Errorf("Register overrode the host's %q handler", p)
		}
	}
	found := map[string]bool{}
	for _, p := range added {
		found[p] = true
	}
	for _, want := range []string{"/metrics", "/progress", "/events", "/debug/pprof/"} {
		if !found[want] {
			t.Errorf("Register skipped %q on a mux that does not serve it", want)
		}
	}

	// Registering twice must be a no-op, not a panic.
	if again := s.Register(mux); len(again) != 0 {
		t.Errorf("second Register added %v", again)
	}

	get := func(path string) string {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Body.String()
	}
	if got := get("/"); got != "host root" {
		t.Errorf("GET / = %q, want the host handler", got)
	}
	if got := get("/api/v1/query"); got != "host api" {
		t.Errorf("GET /api/v1/query = %q, want the host handler", got)
	}
	if got := get("/metrics"); !strings.Contains(got, "hic_obs_uptime_seconds") {
		t.Errorf("GET /metrics not served by control plane:\n%s", got)
	}
	if got := get("/progress"); !strings.Contains(got, "\"runs\"") {
		t.Errorf("GET /progress not served by control plane:\n%s", got)
	}
}

// TestEventsSinceCursor drives /events with the ?since= cursor: a
// tailer passing back the last seq it saw reads each event exactly
// once.
func TestEventsSinceCursor(t *testing.T) {
	s := NewServer(Options{Warn: io.Discard, EventCap: 64})
	for i := 0; i < 6; i++ {
		s.Emit(Event{Kind: KindPointFinish, Point: i})
	}
	get := func(path string) []string {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		body := strings.TrimSpace(rec.Body.String())
		if body == "" {
			return nil
		}
		return strings.Split(body, "\n")
	}
	if lines := get("/events"); len(lines) != 6 {
		t.Fatalf("/events returned %d lines, want 6", len(lines))
	}
	tail := get("/events?since=4")
	if len(tail) != 2 {
		t.Fatalf("/events?since=4 returned %d lines, want 2:\n%s", len(tail), strings.Join(tail, "\n"))
	}
	if !strings.Contains(tail[0], `"seq":5`) || !strings.Contains(tail[1], `"seq":6`) {
		t.Errorf("tail lines = %v, want seqs 5 and 6", tail)
	}
	if lines := get("/events?since=6"); len(lines) != 0 {
		t.Errorf("/events?since=newest returned %d lines, want 0", len(lines))
	}
	// since composes with n: newest-2 of the after-cursor window.
	if lines := get("/events?since=2&n=2"); len(lines) != 2 || !strings.Contains(lines[0], `"seq":5`) {
		t.Errorf("/events?since=2&n=2 = %v, want seqs [5 6]", lines)
	}
}

// TestWorkerStaleWarnsImmediately pins the serve-layer staleness event
// into the immediate-WARN set alongside warnings and failed audits.
func TestWorkerStaleWarnsImmediately(t *testing.T) {
	var warn bytes.Buffer
	s := NewServer(Options{Warn: &warn, EventCap: 64})
	s.Emit(Event{Kind: KindWorkerStale, Run: "serve:q1", Key: "w2-b", Value: 3.5})
	if !strings.Contains(warn.String(), "obs: WARN") || !strings.Contains(warn.String(), "worker_stale") {
		t.Fatalf("worker_stale did not raise an immediate warning; warn output:\n%s", warn.String())
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hic_obs_warnings_total 1") {
		t.Errorf("warnings counter did not advance:\n%s", buf.String())
	}
}
