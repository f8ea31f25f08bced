package core_test

import (
	"runtime"
	"testing"

	"hic/internal/core"
	"hic/internal/sim"
)

// TestDESPointSteadyStateZeroAllocs gates the allocation-free DES
// datapath: once a point has warmed up (event free list, per-DMA,
// per-translation and per-hop record pools, FIFO rings and in-flight
// windows grown to their working depth), simulating more time must not
// allocate. It runs the fig3 testbed — 12 receiver cores, IOMMU on,
// spans off — for 2 ms of warm-up, then for 1 ms more, and allows at
// most one heap allocation per 100 delivered packets.
func TestDESPointSteadyStateZeroAllocs(t *testing.T) {
	tb, err := core.DefaultParams(12).BuildOn(nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	tb.Engine.Run(sim.Time(0).Add(2 * sim.Millisecond))
	delivered := tb.CPU.Processed()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb.Engine.Run(sim.Time(0).Add(3 * sim.Millisecond))
	runtime.ReadMemStats(&after)

	delivered = tb.CPU.Processed() - delivered
	allocs := after.Mallocs - before.Mallocs
	if delivered < 1000 {
		t.Fatalf("only %d packets delivered in the measured millisecond; the testbed is not loaded", delivered)
	}
	if allocs*100 > delivered {
		t.Errorf("%d allocations for %d delivered packets in steady state, want at most 1 per 100", allocs, delivered)
	}
	t.Logf("%d allocations, %d delivered packets", allocs, delivered)
}
