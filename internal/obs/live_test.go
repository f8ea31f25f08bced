// External tests: these exercise the served HTTP surface with the real
// instrumented sources (runner.Pool, runcache.Store), which import obs
// and therefore cannot appear in the in-package tests.
package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/runner"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServedEndpoints(t *testing.T) {
	s, err := obs.Start("127.0.0.1:0", obs.Options{Warn: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	pool := runner.New(4)
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.AddSource(pool)
	s.AddSource(store)

	// Some live state: a tracked run mid-flight and a few events.
	r := s.StartRun("fleet", 100, "simulate", "aggregate")
	r.Advance(25)
	s.Emit(obs.Event{Kind: obs.KindCacheCollapse, Key: "k", Why: "memo"})

	t.Run("index", func(t *testing.T) {
		body, _ := get(t, base+"/")
		for _, want := range []string{"/metrics", "/progress", "/events", "/debug/pprof/"} {
			if !strings.Contains(body, want) {
				t.Errorf("index missing %q", want)
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		body, ct := get(t, base+"/metrics")
		if !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("Content-Type = %q, want 0.0.4 exposition", ct)
		}
		doc, err := obs.ParseProm(strings.NewReader(body))
		if err != nil {
			t.Fatalf("/metrics does not parse: %v\n%s", err, body)
		}
		if v, err := doc.Value("hic_pool_workers"); err != nil || v != 4 {
			t.Errorf("hic_pool_workers = %v, %v; want 4", v, err)
		}
		// All slots idle: nothing is running through the pool right now.
		if v, err := doc.Value("hic_pool_slots_idle"); err != nil || v != 4 {
			t.Errorf("hic_pool_slots_idle = %v, %v; want 4", v, err)
		}
		for _, name := range []string{"hic_runcache_hits_total", "hic_runcache_misses_total", "hic_runcache_collapses_total"} {
			if _, err := doc.Value(name); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if len(doc.Find("hic_obs_run_done")) != 1 {
			t.Error("run registry absent from /metrics")
		}
	})

	t.Run("progress", func(t *testing.T) {
		body, ct := get(t, base+"/progress")
		if !strings.Contains(ct, "application/json") {
			t.Errorf("Content-Type = %q", ct)
		}
		var out struct {
			Runs      []obs.RunStatus `json:"runs"`
			Aggregate obs.RunStatus   `json:"aggregate"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("/progress not JSON: %v\n%s", err, body)
		}
		if len(out.Runs) != 1 || out.Runs[0].Run != "fleet" || out.Runs[0].Done != 25 {
			t.Errorf("runs = %+v", out.Runs)
		}
		if out.Runs[0].Phase != "simulate" {
			t.Errorf("phase = %q, want simulate", out.Runs[0].Phase)
		}
		if out.Aggregate.Run != "all" || out.Aggregate.Total != 100 {
			t.Errorf("aggregate = %+v", out.Aggregate)
		}
	})

	t.Run("events", func(t *testing.T) {
		body, _ := get(t, base+"/events?n=1")
		lines := strings.Split(strings.TrimSpace(body), "\n")
		if len(lines) != 1 {
			t.Fatalf("?n=1 returned %d lines", len(lines))
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
			t.Fatalf("event line not JSON: %v", err)
		}
		if e.Kind != obs.KindCacheCollapse {
			t.Errorf("newest event kind = %q, want cache_collapse", e.Kind)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		body, _ := get(t, base+"/debug/pprof/")
		if !strings.Contains(body, "goroutine") {
			t.Error("pprof index missing goroutine profile")
		}
		// A short CPU profile proves the handler is wired, not just routed.
		resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(b) == 0 {
			t.Errorf("profile: status %d, %d bytes", resp.StatusCode, len(b))
		}
	})
}

// TestEachStoreSeriesOnce registers a result store and a router that
// owns a warm store, as the CLIs do, and scrapes once: every
// hic_runcache_* series appears exactly once, the result store's
// unlabeled and the warm store's under store="warm". Registering the
// warm store as a source of its own would print each name twice, which
// ParseProm rejects.
func TestEachStoreSeriesOnce(t *testing.T) {
	s := obs.NewServer(obs.Options{Warn: io.Discard})
	results, warm := runcache.NewMemory(), runcache.NewMemory()
	router, err := fidelity.New(fidelity.Config{Warm: fidelity.WarmCalib, WarmStore: warm})
	if err != nil {
		t.Fatal(err)
	}
	s.AddSource(results)
	s.AddSource(router)
	results.Get("a", "v", "a") // one miss on the result store
	warm.Get("b", "v", "b")    // two on the warm store
	warm.Get("c", "v", "c")

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ParseProm(&buf)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, buf.String())
	}
	if v, err := doc.Value("hic_runcache_misses_total"); err != nil || v != 1 {
		t.Errorf("unlabeled hic_runcache_misses_total = %v, %v; want the result store's 1", v, err)
	}
	for _, name := range []string{"hic_runcache_hits_total", "hic_runcache_misses_total",
		"hic_runcache_collapses_total", "hic_runcache_corrupt_total"} {
		samples := doc.Find(name)
		if len(samples) != 2 {
			t.Errorf("%s: %d samples, want 2 (result store + warm store)", name, len(samples))
			continue
		}
		var labeled []obs.PromSample
		for _, smp := range samples {
			if len(smp.Labels) > 0 {
				labeled = append(labeled, smp)
			}
		}
		if len(labeled) != 1 || labeled[0].Labels["store"] != "warm" {
			t.Errorf("%s: labeled samples %+v, want one with store=\"warm\"", name, labeled)
		}
		if name == "hic_runcache_misses_total" && len(labeled) == 1 && labeled[0].Value != 2 {
			t.Errorf(`hic_runcache_misses_total{store="warm"} = %g, want 2`, labeled[0].Value)
		}
	}
}

func TestProfilerWritesFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := obs.Start("127.0.0.1:0", obs.Options{
		Warn:            io.Discard,
		ProfileDir:      dir,
		ProfileInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cpu, heap int
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		switch {
		case strings.HasPrefix(e.Name(), "cpu-"):
			cpu++
		case strings.HasPrefix(e.Name(), "heap-"):
			heap++
		}
	}
	if cpu == 0 || heap == 0 {
		t.Errorf("profiler wrote %d cpu + %d heap profiles, want at least one of each (%v)", cpu, heap, names)
	}
}

func TestFlagsNoListenIsNoop(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := obs.RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	srv, err := f.Start(io.Discard)
	if err != nil || srv != nil {
		t.Fatalf("Start without -listen = %v, %v; want nil, nil", srv, err)
	}
	if obs.Default() != nil {
		t.Error("global sink installed without -listen")
	}
}

func TestFlagsStartInstallsGlobalSink(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := obs.RegisterFlags(fs)
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	var logw strings.Builder
	srv, err := f.Start(&logw)
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil {
		t.Fatal("Start returned nil server with -listen set")
	}
	defer func() {
		srv.Close()
		obs.Set(nil)
	}()
	if obs.Default() == nil {
		t.Error("global sink not installed")
	}
	if !strings.Contains(logw.String(), "control plane listening on http://") {
		t.Errorf("startup log = %q", logw.String())
	}
}
