package runcache

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hic/internal/host"
)

// TestGetBumpsRecencyForPrune is the LRU-correctness guard: a cache hit
// must refresh the entry's mtime so -cache-max-mb pruning evicts cold
// entries instead of hot ones. Before the Backend refactor, Prune
// ordered by write-time mtime only, so the most-used entry could be the
// first one evicted.
func TestGetBumpsRecencyForPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3)
	var entrySize int64
	for i := range keys {
		canon := string(rune('a' + i))
		keys[i] = Key("v1", canon)
		if err := s.Put(keys[i], "v1", canon, host.Results{AppThroughputGbps: float64(i)}); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, keys[i]+".json"))
		if err != nil {
			t.Fatal(err)
		}
		entrySize = info.Size()
		// All written "long ago"; entry 0 is the oldest write.
		old := time.Now().Add(time.Duration(i-48) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, keys[i]+".json"), old, old); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh store (empty memory layer) reads entry 0 from disk: that
	// hit must make it the *most* recently used entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(keys[0], "v1", "a"); !ok {
		t.Fatal("disk entry not served")
	}

	// Budget for one entry: the two untouched entries must go, the hot
	// one must survive.
	removed, _, err := s2.Prune(entrySize + entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("Prune removed %d entries, want 2", removed)
	}
	s3, _ := Open(dir)
	if _, ok := s3.Get(keys[0], "v1", "a"); !ok {
		t.Fatal("recently-read entry was evicted; prune is not LRU over access time")
	}
	for i := 1; i < 3; i++ {
		if s3.Contains(keys[i], "v1", string(rune('a'+i))) {
			t.Fatalf("cold entry %d survived the prune", i)
		}
	}
}

// TestBlobGetBumpsRecency mirrors the result-entry guard for the warm
// namespace: calibration blobs that keep being loaded must not be the
// first evicted from a bounded warm store.
func TestBlobGetBumpsRecency(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key("hic-calib-test", "sig")
	if err := s.PutBlob(key, "hic-calib-test", "sig", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	path := filepath.Join(dir, key+".json")
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if !s.GetBlob(key, "hic-calib-test", "sig", &out) {
		t.Fatal("blob not served")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(info.ModTime()) > time.Hour {
		t.Fatalf("blob hit did not bump mtime (still %v)", info.ModTime())
	}
}

// TestContainsDoesNotBumpRecency: Contains is a pure peek — the fidelity
// warm-start planner probes many keys it may never use, and those probes
// must not distort the LRU order real hits establish.
func TestContainsDoesNotBumpRecency(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := Key("v1", "a")
	if err := s.Put(key, "v1", "a", host.Results{}); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	path := filepath.Join(dir, key+".json")
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir)
	if !s2.Contains(key, "v1", "a") {
		t.Fatal("entry not found")
	}
	info, _ := os.Stat(path)
	if time.Since(info.ModTime()) < 24*time.Hour {
		t.Fatal("Contains bumped mtime; peeks must not count as use")
	}
}

// TestHTTPBackendRoundTrip drives a client Store through Store.Handler
// to a disk-backed server store: results and blobs written by one side
// must be served to the other byte-compatibly, remote hits must bump
// recency on the server's disk, and a second client must dedup against
// the first client's writes.
func TestHTTPBackendRoundTrip(t *testing.T) {
	serverDir := t.TempDir()
	serverStore, err := Open(serverDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serverStore.Handler())
	defer srv.Close()

	client := NewStore(NewHTTP(srv.URL, nil))
	r := host.Results{AppThroughputGbps: 88.25, DropRatePct: 1.5}
	key := Key("v1", "canon")
	if _, ok := client.Get(key, "v1", "canon"); ok {
		t.Fatal("empty remote store returned a hit")
	}
	if err := client.Put(key, "v1", "canon", r); err != nil {
		t.Fatal(err)
	}
	// The server's disk now holds the entry; a *fresh* client (empty
	// memory layer) and the server's own store both serve it.
	client2 := NewStore(NewHTTP(srv.URL, nil))
	got, ok := client2.Get(key, "v1", "canon")
	if !ok || got != r {
		t.Fatalf("remote round trip lost data: ok=%v got=%+v", ok, got)
	}
	if got, ok := serverStore.Get(key, "v1", "canon"); !ok || got != r {
		t.Fatalf("server-side store does not see the client's write: ok=%v got=%+v", ok, got)
	}

	// Version isolation holds across the wire (fresh client: the memory
	// layer is keyed by content address, which in real use already embeds
	// the version).
	if _, ok := NewStore(NewHTTP(srv.URL, nil)).Get(key, "v2", "canon"); ok {
		t.Fatal("version-mismatched entry served remotely")
	}

	// Blobs share the transport.
	type calib struct{ Gain float64 }
	bkey := Key("hic-calib-test", "sig")
	if err := client.PutBlob(bkey, "hic-calib-test", "sig", calib{Gain: 1.5}); err != nil {
		t.Fatal(err)
	}
	var out calib
	if !client2.GetBlob(bkey, "hic-calib-test", "sig", &out) || out.Gain != 1.5 {
		t.Fatalf("remote blob round trip lost data: %+v", out)
	}

	// GetOrCompute across two clients: the second must be a remote hit,
	// not a recompute.
	computes := 0
	key2 := Key("v1", "shared")
	for _, c := range []*Store{client, client2} {
		if _, err := c.GetOrCompute(key2, "v1", "shared", func() (host.Results, error) {
			computes++
			return host.Results{AppThroughputGbps: 50}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if computes != 1 {
		t.Fatalf("computed %d times across two clients sharing a backend, want 1", computes)
	}

	// A remote GET bumps the server-side mtime (the coordinator's LRU
	// honors worker access order).
	old := time.Now().Add(-48 * time.Hour)
	path := filepath.Join(serverDir, key2+".json")
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	client3 := NewStore(NewHTTP(srv.URL, nil))
	if _, ok := client3.Get(key2, "v1", "shared"); !ok {
		t.Fatal("shared entry not served")
	}
	if info, _ := os.Stat(path); time.Since(info.ModTime()) > time.Hour {
		t.Fatal("remote hit did not bump server-side recency")
	}

	// Remote stores have no local entries: Prune and Len are no-ops,
	// never errors — the coordinator owns eviction.
	if n, err := client.Len(); err != nil || n != 0 {
		t.Fatalf("remote Len = %d (%v), want 0, nil", n, err)
	}
	if removed, _, err := client.Prune(1); err != nil || removed != 0 {
		t.Fatalf("remote Prune removed %d (%v), want 0, nil", removed, err)
	}
}

// TestBackendHandlerRejectsBadKeys pins Store.Handler's path-traversal
// guard: only 64-char lowercase hex keys reach the backend.
func TestBackendHandlerRejectsBadKeys(t *testing.T) {
	store, _ := Open(t.TempDir())
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()
	for _, path := range []string{
		"/../../etc/passwd",
		"/short",
		"/" + Key("v", "c") + "X",
		"/ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789", // uppercase
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestHTTPBackendUnreachableDegradesToMiss: a dead coordinator must cost
// hit rate, not correctness — Load is a miss, and only Store errors.
func TestHTTPBackendUnreachableDegradesToMiss(t *testing.T) {
	dead := httptest.NewServer(nil)
	url := dead.URL
	dead.Close()
	s := NewStore(NewHTTP(url, nil))
	if _, ok := s.Get(Key("v1", "x"), "v1", "x"); ok {
		t.Fatal("unreachable backend produced a hit")
	}
	if err := s.Put(Key("v1", "x"), "v1", "x", host.Results{}); err == nil {
		t.Fatal("Put against an unreachable backend must error (results are never silently dropped)")
	}
	computed := false
	if _, err := s.GetOrCompute(Key("v1", "y"), "v1", "y", func() (host.Results, error) {
		computed = true
		return host.Results{}, nil
	}); err == nil || !computed {
		t.Fatalf("GetOrCompute err=%v computed=%v: compute must run, and the failed Put must surface", err, computed)
	}
	if be, ok := s.be.(*HTTPBackend); !ok || be.Errors() == 0 {
		t.Fatal("transport failures not counted")
	}
}

func TestRemoteURL(t *testing.T) {
	for _, tc := range []struct{ base, want string }{
		{"http://coord:8080", "http://coord:8080" + RemoteResultsPath},
		{"http://coord:8080/", "http://coord:8080" + RemoteResultsPath},
		{"http://coord:8080/custom/mount", "http://coord:8080/custom/mount"},
		{"http://coord:8080/custom/mount/", "http://coord:8080/custom/mount"},
	} {
		if got := RemoteURL(tc.base, RemoteResultsPath); got != tc.want {
			t.Errorf("RemoteURL(%q) = %q, want %q", tc.base, got, tc.want)
		}
	}
}

// TestHandlerCountsServedTraffic: lookups and writes a store serves to
// remote clients count on that store, so a coordinator's
// hic_runcache_* series show its workers' traffic.
func TestHandlerCountsServedTraffic(t *testing.T) {
	served, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(served.Handler())
	defer srv.Close()

	key := Key("v1", "canon")
	client := NewStore(NewHTTP(srv.URL, nil))
	if _, ok := client.Get(key, "v1", "canon"); ok {
		t.Fatal("empty remote store returned a hit")
	}
	if err := client.Put(key, "v1", "canon", host.Results{AppThroughputGbps: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := NewStore(NewHTTP(srv.URL, nil)).Get(key, "v1", "canon"); !ok {
			t.Fatal("stored entry not served")
		}
	}
	if st := served.Stats(); st.Hits != 2 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("served store Stats() = %+v, want 2 hits, 1 miss, 1 put", st)
	}
	got := map[string]float64{}
	served.MetricsInto(func(name, _ string, v float64) { got[name] = v })
	if got["hic_runcache_hits_total"] != 2 || got["hic_runcache_misses_total"] != 1 || got["hic_runcache_puts_total"] != 1 {
		t.Errorf("served store series = %v", got)
	}
}
