package core_test

import (
	"fmt"
	"testing"

	"hic/internal/core"
	"hic/internal/runcache"
)

// TestPooledGoldenDeterminism is the worker-pool counterpart of
// TestGoldenDeterminism: the golden scenarios run through RunEach —
// worker arenas, engine/registry reuse, a batch-local memory store — with
// every scenario duplicated, twice back to back so the second batch
// lands on arenas dirtied by the first. Every result, including the
// dedup-served duplicates, must still match the pre-rewrite golden
// hashes. This is the proof that arena reuse and dedup are invisible.
func TestPooledGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	var ps []core.Params
	var keys []string
	for _, seed := range []uint64{1, 7} {
		for _, name := range []string{"fig3", "fig6"} {
			// Two copies of each scenario: the second must be collapsed
			// onto the first by the memory store without changing its result.
			for c := 0; c < 2; c++ {
				ps = append(ps, goldenParams(name, seed))
				keys = append(keys, fmt.Sprintf("%s/seed=%d", name, seed))
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		rs, err := collect(ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if got := resultHash(r); got != goldenHashes[keys[i]] {
				t.Errorf("pass %d: %s (input %d) hash = %s, want %s (arena reuse or dedup changed results)",
					pass, keys[i], i, got, goldenHashes[keys[i]])
			}
		}
	}
}

// TestRunEachMatchesSerialRuns proves the pooled stream emits exactly
// the results of running each scenario alone on fresh substrate, in
// input order.
func TestRunEachMatchesSerialRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	ps := []core.Params{
		goldenParams("fig3", 1),
		goldenParams("fig6", 1),
		goldenParams("fig3", 1), // duplicate — exercises dedup in the stream
	}
	want := make([]core.Results, len(ps))
	for i, p := range ps {
		r, err := core.RunOn(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var gotIdx []int
	err := core.RunEach(nil, ps, nil, func(i int, r core.Results) error {
		gotIdx = append(gotIdx, i)
		if resultHash(r) != resultHash(want[i]) {
			t.Errorf("streamed result %d diverges from its serial run", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIdx) != len(ps) {
		t.Fatalf("emitted %d of %d", len(gotIdx), len(ps))
	}
	for i, v := range gotIdx {
		if v != i {
			t.Fatalf("emission out of order: %v", gotIdx)
		}
	}
}

// TestRunManyCachedPooled drives the cached sweep path over the pool:
// a cold batch with duplicates must cost one simulation per distinct
// scenario, and a warm batch zero.
func TestRunManyCachedPooled(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ps := []core.Params{
		goldenParams("fig3", 1),
		goldenParams("fig3", 1),
		goldenParams("fig3", 1),
	}
	rs, err := collect(ps, store)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if got := resultHash(r); got != goldenHashes["fig3/seed=1"] {
			t.Errorf("cold result %d hash = %s, want golden", i, got)
		}
	}
	st := store.Stats()
	if st.Misses != 1 {
		t.Errorf("cold batch Misses = %d, want 1 (duplicates must not simulate)", st.Misses)
	}
	if st.Hits+st.Collapses != 2 {
		t.Errorf("cold batch hits+collapses = %d+%d, want 2", st.Hits, st.Collapses)
	}

	rs2, err := collect(ps, store)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs2 {
		if got := resultHash(r); got != goldenHashes["fig3/seed=1"] {
			t.Errorf("warm result %d hash = %s, want golden", i, got)
		}
	}
	if after := store.Stats(); after.Misses != st.Misses {
		t.Errorf("warm batch simulated: misses %d -> %d", st.Misses, after.Misses)
	}
}

// collect runs ps as a pure-DES RunEach batch and gathers the in-order
// stream into a slice.
func collect(ps []core.Params, cache *runcache.Store) ([]core.Results, error) {
	rs := make([]core.Results, len(ps))
	err := core.RunEach(nil, ps, cache, func(i int, r core.Results) error {
		rs[i] = r
		return nil
	})
	return rs, err
}
