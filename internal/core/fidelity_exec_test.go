package core_test

import (
	"testing"

	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/runcache"
	"hic/internal/sim"
)

// TestGoldenDeterminismViaDESRouter proves the fidelity layer is
// invisible when disabled: routing the golden scenarios through a
// ModeDES router (the -fidelity=des CLI path) reproduces the exact
// pre-fidelity hashes pinned in determinism_test.go.
func TestGoldenDeterminismViaDESRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	router, err := fidelity.New(fidelity.Config{Mode: fidelity.ModeDES})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7} {
		for _, name := range []string{"fig3", "fig6"} {
			p := goldenParams(name, seed)
			r, err := core.RunVia(router, p, nil, nil)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			key := name + "/seed=" + map[uint64]string{1: "1", 7: "7"}[seed]
			if got := resultHash(r); got != goldenHashes[key] {
				t.Errorf("DES router: %s results hash = %s, want %s (router not transparent)",
					key, got, goldenHashes[key])
			}
		}
	}
	c := router.Counters()
	if c.FluidRouted != 0 || c.EarlyStopped != 0 {
		t.Errorf("ModeDES router took an approximate path: %+v", c)
	}
}

// TestFluidAndDESNeverShareCacheEntry pins the cache-salt separation the
// runcache package documents: a fluid-computed result stored in a cache
// directory can never satisfy a pure-DES lookup for the same Params.
// The DES run after a fluid run of the identical scenario must miss,
// simulate, and still produce the golden hash.
func TestFluidAndDESNeverShareCacheEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := goldenParams("fig3", 1)

	router, err := fidelity.New(fidelity.Config{Mode: fidelity.ModeFluid})
	if err != nil {
		t.Fatal(err)
	}
	version, _, err := router.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if version == core.SimVersion {
		t.Fatalf("fig3 point fell back to DES (version %q); fluid domain regressed", version)
	}
	if runcache.Key(version, p.Canonical()) == p.CacheKey() {
		t.Fatal("fluid version salt produced the pure-DES cache key")
	}
	if _, err := core.RunVia(router, p, store, nil); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses != 1 {
		t.Fatalf("fluid run: misses=%d, want 1", st.Misses)
	}

	des, err := core.RunVia(nil, p, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Hits != 0 {
		t.Fatalf("pure-DES lookup hit a fluid entry: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("misses=%d, want 2 (fluid and DES entries are distinct)", st.Misses)
	}
	if got := resultHash(des); got != goldenHashes["fig3/seed=1"] {
		t.Fatalf("DES result after fluid run hashes %s, want golden %s", got, goldenHashes["fig3/seed=1"])
	}
}

// TestWarmAndDESNeverShareCacheEntry extends the salt-separation pin to
// the checkpoint-warm-start layer: a warm-started result stored in a
// cache directory can never satisfy a pure-DES lookup for the same
// Params — the DES run after it must miss and simulate cold.
func TestWarmAndDESNeverShareCacheEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	warmDir := t.TempDir()
	p := core.DefaultParams(4)
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond

	// Process 1: a cold run donates a checkpoint to the warm store.
	warm1, err := runcache.Open(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := fidelity.New(fidelity.Config{Mode: fidelity.ModeDES, Warm: fidelity.WarmFull, WarmStore: warm1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunVia(r1, p, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Process 2: a sibling point warm-starts from the persisted donor
	// into a result cache.
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.Seed = 42
	warm2, err := runcache.Open(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fidelity.New(fidelity.Config{Mode: fidelity.ModeDES, Warm: fidelity.WarmFull, WarmStore: warm2, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	version, _, err := r2.Plan(p2)
	if err != nil {
		t.Fatal(err)
	}
	if version == core.SimVersion {
		t.Fatalf("sibling point planned pure DES (version %q); no warm start happened", version)
	}
	if runcache.Key(version, p2.Canonical()) == p2.CacheKey() {
		t.Fatal("warm version salt produced the pure-DES cache key")
	}
	if _, err := core.RunVia(r2, p2, store, nil); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses != 1 {
		t.Fatalf("warm run: misses=%d, want 1", st.Misses)
	}

	// A pure-DES lookup of the same Params must not see the warm entry.
	if _, err := core.RunVia(nil, p2, store, nil); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Hits != 0 {
		t.Fatalf("pure-DES lookup hit a warm-started entry: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("misses=%d, want 2 (warm and DES entries are distinct)", st.Misses)
	}
}
