package sim_test

// Hot-path benchmarks for the event engine. `make bench` runs these;
// `make check` runs a 1x smoke pass plus TestEngineSteadyStateZeroAllocs,
// which gates the allocation-free property of the free-listed 4-ary heap.

import (
	"math"
	"testing"

	"hic/internal/sim"
)

// BenchmarkEngineScheduleFire measures the minimal schedule→fire cycle:
// one event scheduled and executed per iteration, free list warm: no
// event allocation and no interface boxing per cycle.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := sim.NewEngine(1)
	nop := func() {}
	e.After(1, nop)
	e.Drain()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, nop)
		e.Drain()
	}
}

// churnDepth is the number of outstanding events the churn benchmarks
// keep in the queue — comparable to a busy testbed run's schedule depth.
const churnDepth = 256

// BenchmarkEngineChurn measures steady-state heap churn: churnDepth
// self-rescheduling events with pseudorandom deadlines, so every fire
// performs one pop and one push against a populated 4-ary heap.
func BenchmarkEngineChurn(b *testing.B) {
	e := sim.NewEngine(1)
	target := uint64(b.N) + churnDepth
	var tick func()
	tick = func() {
		if e.Processed() >= target {
			e.Stop()
			return
		}
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	for i := 0; i < churnDepth; i++ {
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(math.MaxInt64 - 1)
}

// BenchmarkEngineTicker measures one periodic tick: the ticker's bound
// callback makes rescheduling closure-free.
func BenchmarkEngineTicker(b *testing.B) {
	e := sim.NewEngine(1)
	ticks := 0
	tk := e.Every(sim.Microsecond, func() { ticks++ })
	defer tk.Stop()
	e.Run(sim.Time(0).Add(sim.Microsecond)) // warm the free list
	b.ReportAllocs()
	b.ResetTimer()
	end := e.Now().Add(sim.Microsecond * sim.Duration(b.N))
	e.Run(end)
	if ticks < b.N {
		b.Fatalf("expected ≥%d ticks, got %d", b.N, ticks)
	}
}

// TestEngineSteadyStateZeroAllocs gates the tentpole property: once the
// free list is warm, the schedule→fire cycle and periodic ticks perform
// zero heap allocations. Run by `go test` and therefore by `make check`.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	nop := func() {}
	e.After(1, nop)
	e.Drain()
	if allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, nop)
		e.Drain()
	}); allocs != 0 {
		t.Errorf("schedule→fire cycle allocates %.1f objects/op, want 0", allocs)
	}

	tkEngine := sim.NewEngine(2)
	ticks := 0
	tk := tkEngine.Every(sim.Microsecond, func() { ticks++ })
	defer tk.Stop()
	end := sim.Time(0).Add(sim.Microsecond)
	tkEngine.Run(end)
	if allocs := testing.AllocsPerRun(1000, func() {
		end = end.Add(sim.Microsecond)
		tkEngine.Run(end)
	}); allocs != 0 {
		t.Errorf("ticker tick allocates %.1f objects/op, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}
