package runcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hic/internal/host"
)

// waitCollapses parks until the store reports want collapsed callers.
// Collapse counters increment before a caller parks on the in-flight
// wait, so reaching want means exactly one caller is computing and
// want callers are parked — the release below then provably exercises
// the collapse path, not a lucky interleaving.
func waitCollapses(t *testing.T, current func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for current() != want {
		if time.Now().After(deadline) {
			t.Fatalf("collapses stuck at %d, want %d", current(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// collapses reads a store's in-flight collapse count.
func collapses(s *Store) func() uint64 {
	return func() uint64 { return s.Stats().Collapses }
}

// The TestFlight* cases pin the in-flight collapse and the memo on a
// memory-only store, the dedup layer of every caller without a cache.

func TestFlightCollapsesConcurrentCalls(t *testing.T) {
	s := NewMemory()
	const callers = 16
	var computes atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]host.Results, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.GetOrCompute("k", "v", "c", func() (host.Results, error) {
				<-gate // hold every other caller in the in-flight wait
				computes.Add(1)
				return host.Results{RxPackets: 42}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	waitCollapses(t, collapses(s), callers-1)
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, r := range results {
		if r.RxPackets != 42 {
			t.Fatalf("caller %d got %+v", i, r)
		}
	}
	if st := s.Stats(); st.Collapses != callers-1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("Stats() = %+v, want %d collapses and one miss", st, callers-1)
	}
}

// TestFlightMemoization: later calls on a memory store are memory-layer
// hits, never recomputed and never counted as collapses.
func TestFlightMemoization(t *testing.T) {
	var computes atomic.Int32
	compute := func() (host.Results, error) {
		computes.Add(1)
		return host.Results{Drops: 7}, nil
	}
	s := NewMemory()
	for i := 0; i < 5; i++ {
		r, err := s.GetOrCompute("k", "v", "c", compute)
		if err != nil || r.Drops != 7 {
			t.Fatalf("call %d: r=%+v err=%v", i, r, err)
		}
	}
	if computes.Load() != 1 {
		t.Fatalf("memory store computed %d times, want 1", computes.Load())
	}
	if st := s.Stats(); st.Hits != 4 || st.Misses != 1 || st.Collapses != 0 {
		t.Fatalf("Stats() = %+v, want 4 hits, 1 miss, 0 collapses", st)
	}
	if r, ok := s.Get("k", "v", "c"); !ok || r.Drops != 7 {
		t.Fatalf("Get after compute = %+v, %v", r, ok)
	}
	if !s.Contains("k", "v", "c") || s.Contains("other", "v", "c") {
		t.Fatal("Contains disagrees with the memory layer")
	}
	if n, err := s.Len(); n != 0 || err != nil {
		t.Fatalf("Len() = %d, %v on a memory store, want 0", n, err)
	}
}

func TestFlightErrorsNotMemoized(t *testing.T) {
	s := NewMemory()
	boom := errors.New("boom")
	calls := 0
	if _, err := s.GetOrCompute("k", "v", "c", func() (host.Results, error) {
		calls++
		return host.Results{Goodput: 1}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	r, err := s.GetOrCompute("k", "v", "c", func() (host.Results, error) {
		calls++
		return host.Results{Goodput: 9}, nil
	})
	if err != nil || r.Goodput != 9 {
		t.Fatalf("retry after error: r=%+v err=%v", r, err)
	}
	if calls != 2 {
		t.Fatalf("compute calls = %d, want 2 (error must not be memoized)", calls)
	}
}

// TestFlightConcurrentErrorsNotMemoized drives the error path under
// contention: every caller collapsed onto a failing computation receives
// its error, and the failure leaves no residue — a later concurrent wave
// on the same key computes exactly once and succeeds.
func TestFlightConcurrentErrorsNotMemoized(t *testing.T) {
	s := NewMemory()
	boom := errors.New("boom")
	const callers = 8

	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.GetOrCompute("k", "v", "c", func() (host.Results, error) {
				<-gate // park every other caller in the in-flight wait
				return host.Results{}, boom
			})
		}(i)
	}
	waitCollapses(t, collapses(s), callers-1)
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("collapsed caller %d got err = %v, want the leader's error", i, err)
		}
	}

	// Second wave: the error must not have been memoized, and the retry
	// collapses onto a single fresh computation that everyone shares.
	var computes atomic.Int32
	gate2 := make(chan struct{})
	before := s.Stats().Collapses
	results := make([]host.Results, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			results[i], err = s.GetOrCompute("k", "v", "c", func() (host.Results, error) {
				<-gate2
				computes.Add(1)
				return host.Results{Goodput: 9}, nil
			})
			if err != nil {
				t.Errorf("retry caller %d: %v", i, err)
			}
		}(i)
	}
	waitCollapses(t, collapses(s), before+callers-1)
	close(gate2)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("retry computed %d times, want 1 (error memoized or collapse stuck)", got)
	}
	for i, r := range results {
		if r.Goodput != 9 {
			t.Fatalf("retry caller %d got %+v", i, r)
		}
	}
}

func TestFlightDistinctKeysDoNotCollapse(t *testing.T) {
	s := NewMemory()
	for _, k := range []string{"a", "b", "c"} {
		if _, err := s.GetOrCompute(k, "v", "c", func() (host.Results, error) {
			return host.Results{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Collapses != 0 || st.Misses != 3 {
		t.Fatalf("Stats() = %+v across distinct keys, want 3 misses and 0 collapses", st)
	}
}

// TestStoreGetOrComputeSingleflight drives the store-level entry point
// concurrently: one simulation, one miss, and N-1 collapses for a cold
// key; pure hits afterwards.
func TestStoreGetOrComputeSingleflight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var computes atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.GetOrCompute("key1", "v1", "canon1", func() (host.Results, error) {
				<-gate
				computes.Add(1)
				return host.Results{Reads: 5}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	waitCollapses(t, collapses(s), callers-1)
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times", computes.Load())
	}
	st := s.Stats()
	if st.Collapses != callers-1 {
		t.Fatalf("Collapses = %d, want %d", st.Collapses, callers-1)
	}
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}

	// A later call is a plain memory-layer hit, no new compute.
	if _, err := s.GetOrCompute("key1", "v1", "canon1", func() (host.Results, error) {
		t.Fatal("computed despite stored entry")
		return host.Results{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Hits != st.Hits+1 {
		t.Fatalf("Hits = %d, want %d", got.Hits, st.Hits+1)
	}
}

func TestSummaryMentionsCollapses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Summary(); got != "0 hits, 0 misses" {
		t.Fatalf("Summary() = %q", got)
	}
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.GetOrCompute("k", "v", "c", func() (host.Results, error) {
				<-gate
				return host.Results{}, nil
			})
		}()
	}
	waitCollapses(t, collapses(s), 1)
	close(gate)
	wg.Wait()
	if got := s.Summary(); got != "0 hits, 1 misses, 1 singleflight collapses" {
		t.Fatalf("Summary() = %q", got)
	}
}
