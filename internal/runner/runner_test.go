package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryIndexOnce(t *testing.T) {
	p := New(4)
	const n = 1000
	var counts [n]atomic.Int32
	err := p.Map(n, func(i int, a *Arena) error {
		if a == nil {
			return errors.New("nil arena")
		}
		counts[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	p := New(2)
	for _, n := range []int{0, -3} {
		called := false
		if err := p.Map(n, func(int, *Arena) error { called = true; return nil }); err != nil {
			t.Fatal(err)
		}
		if called {
			t.Fatalf("fn called for n=%d", n)
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	p := New(4)
	wantErr := errors.New("boom")
	err := p.Map(500, func(i int, a *Arena) error {
		if i == 17 || i == 400 {
			return fmt.Errorf("i=%d: %w", i, wantErr)
		}
		return nil
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "i=17") {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
}

func TestMapOrderedEmitsInOrder(t *testing.T) {
	p := New(8)
	const n = 777
	var got []int
	err := MapOrdered(p, n, func(i int, a *Arena) (int, error) {
		if i%7 == 0 { // stagger completion order
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		}
		return i * 3, nil
	}, func(i, v int) error {
		if v != i*3 {
			return fmt.Errorf("index %d: value %d", i, v)
		}
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("emission out of order at %d: got index %d", i, v)
		}
	}
}

func TestMapOrderedEmptyInput(t *testing.T) {
	p := New(4)
	for _, n := range []int{0, -1} {
		err := MapOrdered(p, n, func(i int, a *Arena) (int, error) {
			t.Errorf("task ran for n=%d", n)
			return 0, nil
		}, func(i, v int) error {
			t.Errorf("emit called for n=%d", n)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestMapOrderedMoreWorkersThanItems covers dispatch when worker
// capacity exceeds the item count: most workers exit without ever
// drawing a chunk, and every chunk holds a single item.
func TestMapOrderedMoreWorkersThanItems(t *testing.T) {
	p := New(16)
	const n = 3
	var got []int
	err := MapOrdered(p, n, func(i int, a *Arena) (int, error) {
		return i * 10, nil
	}, func(i, v int) error {
		if v != i*10 {
			return fmt.Errorf("index %d: value %d", i, v)
		}
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("emission out of order at %d: got index %d", i, v)
		}
	}
}

// TestMapOrderedPartialLastChunk picks n so the chunk size exceeds the
// final chunk's item count (1601 items, chunk 50 ⇒ last chunk of 1):
// the hi-clamp must not emit phantom indices or drop the tail.
func TestMapOrderedPartialLastChunk(t *testing.T) {
	p := New(4)
	const n = 1601
	if c := chunkFor(n, p.Workers()); n%c == 0 {
		t.Fatalf("chunk %d divides %d; pick an n that leaves a partial chunk", c, n)
	}
	var next int
	err := MapOrdered(p, n, func(i int, a *Arena) (int, error) {
		return i, nil
	}, func(i, v int) error {
		if i != next || v != i {
			return fmt.Errorf("emit(%d, %d), want emit(%d, %d)", i, v, next, next)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("emitted %d of %d", next, n)
	}
}

func TestMapOrderedSingleWorker(t *testing.T) {
	p := New(1)
	const n = 200
	var inFlight, maxInFlight atomic.Int32
	var next int
	err := MapOrdered(p, n, func(i int, a *Arena) (int, error) {
		if c := inFlight.Add(1); c > maxInFlight.Load() {
			maxInFlight.Store(c)
		}
		defer inFlight.Add(-1)
		return i * 2, nil
	}, func(i, v int) error {
		if i != next || v != i*2 {
			return fmt.Errorf("emit(%d, %d), want emit(%d, %d)", i, v, next, 2*next)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("emitted %d of %d", next, n)
	}
	if m := maxInFlight.Load(); m > 1 {
		t.Fatalf("single-worker pool ran %d tasks concurrently", m)
	}
}

func TestMapOrderedEmitErrorAborts(t *testing.T) {
	p := New(4)
	wantErr := errors.New("sink full")
	var emitted atomic.Int32
	err := MapOrdered(p, 400, func(i int, a *Arena) (int, error) {
		return i, nil
	}, func(i, v int) error {
		if emitted.Add(1) == 10 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestMapOrderedTaskErrorSkipsEmission(t *testing.T) {
	p := New(4)
	wantErr := errors.New("task died")
	var mu sync.Mutex
	seen := map[int]bool{}
	err := MapOrdered(p, 100, func(i int, a *Arena) (int, error) {
		if i == 50 {
			return 0, wantErr
		}
		return i, nil
	}, func(i, v int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[50] {
		t.Fatal("failed index was emitted")
	}
	for i := 51; i < 100; i++ {
		if seen[i] {
			t.Fatalf("index %d emitted after an earlier index failed (ordered emission must stop)", i)
		}
	}
}

// TestArenaReusedAcrossRuns proves workers actually recycle their arenas:
// across many tasks on a small pool, the set of distinct engines seen
// equals the worker count, and arena run counts sum to the task count.
func TestArenaReusedAcrossRuns(t *testing.T) {
	const workers, n = 3, 200
	p := New(workers)
	var mu sync.Mutex
	engines := map[any]bool{}
	err := p.Map(n, func(i int, a *Arena) error {
		e, _, _ := a.Acquire()
		mu.Lock()
		engines[e] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) > workers {
		t.Fatalf("saw %d distinct engines with %d workers — arenas not reused", len(engines), workers)
	}
	var runs uint64
	for _, a := range p.arenas() {
		runs += a.Runs()
	}
	if runs != n {
		t.Fatalf("arena run counts sum to %d, want %d", runs, n)
	}
}

// TestConcurrentMapsShareSlots runs two Maps on one pool at once; both
// must finish and each index run exactly once per Map.
func TestConcurrentMapsShareSlots(t *testing.T) {
	p := New(2)
	const n = 300
	var wg sync.WaitGroup
	errs := make([]error, 2)
	counts := [2][n]atomic.Int32{}
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			errs[m] = p.Map(n, func(i int, a *Arena) error {
				counts[m][i].Add(1)
				return nil
			})
		}(m)
	}
	wg.Wait()
	for m := 0; m < 2; m++ {
		if errs[m] != nil {
			t.Fatalf("map %d: %v", m, errs[m])
		}
		for i := 0; i < n; i++ {
			if c := counts[m][i].Load(); c != 1 {
				t.Fatalf("map %d index %d ran %d times", m, i, c)
			}
		}
	}
}

func TestWorkersDefaults(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("Workers() = %d", w)
	}
	if w := New(-5).Workers(); w < 1 {
		t.Fatalf("Workers() = %d", w)
	}
	if Shared() != Shared() {
		t.Fatal("Shared() not a singleton")
	}
}

func TestChunkFor(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{0, 4, 1},
		{1, 4, 1},
		{32, 4, 1},
		{1600, 4, 50},
		{1 << 20, 4, 64}, // clamped
	}
	for _, c := range cases {
		if got := chunkFor(c.n, c.workers); got != c.want {
			t.Errorf("chunkFor(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}
