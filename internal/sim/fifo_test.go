package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth checks FIFO order and indexed
// access against a plain slice while the ring wraps and grows, and that
// a bounded-depth queue stops allocating.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	var ref []int
	rng := NewRNG(3)
	next := 0
	for step := 0; step < 20000; step++ {
		if rng.Uint64n(3) != 0 || len(ref) == 0 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, q.Len(), len(ref))
		}
		if i := len(ref) / 2; len(ref) > 0 && *q.At(i) != ref[i] {
			t.Fatalf("step %d: At(%d) = %d, want %d", step, i, *q.At(i), ref[i])
		}
	}
	for len(ref) > 0 {
		if got := q.Pop(); got != ref[0] {
			t.Fatalf("drain: popped %d, want %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for i := 0; i < 8; i++ {
			q.Pop()
		}
	}); allocs != 0 {
		t.Errorf("bounded-depth FIFO allocates %.1f objects/op, want 0", allocs)
	}
}
