package sim_test

// Hot-path benchmarks for the event engine. `make bench` runs these;
// `make check` runs a 1x smoke pass plus TestEngineSteadyStateZeroAllocs,
// which gates the allocation-free property of the pooled radix queue.

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
// performs one pop and one push against a populated queue.
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

// BenchmarkEngineHostMix replays the event mix one DES point keeps in its
// queue, which is deeper and far more spread out than Churn's: 480
// per-connection retransmit-scan tickers at 50 µs, 300 pacing timers
// re-armed 250–500 µs out, and 16 datapath chains stepping through the
// short stage delays (2 ns doorbell to 5 µs completion) and starting over.
// About 800 events are pending throughout.
func BenchmarkEngineHostMix(b *testing.B) {
	e := sim.NewEngine(1)
	target := uint64(b.N)
	stopAtTarget := func() bool {
		if e.Processed() >= target {
			e.Stop()
			return true
		}
		return false
	}
	for i := 0; i < 480; i++ {
		var scan func()
		scan = func() {
			if !stopAtTarget() {
				e.After(50*sim.Microsecond, scan)
			}
		}
		e.After(sim.Duration(1+e.RNG().Intn(50_000)), scan)
	}
	pace := func() sim.Duration { return 250*sim.Microsecond + sim.Duration(e.RNG().Intn(250_001)) }
	for i := 0; i < 300; i++ {
		var timer func()
		timer = func() {
			if !stopAtTarget() {
				e.After(pace(), timer)
			}
		}
		e.After(pace(), timer)
	}
	stages := [...]sim.Duration{2, 100, 300, 400, 1200, 2900, 5000}
	for i := 0; i < 16; i++ {
		stage := i % len(stages)
		var step func()
		step = func() {
			if !stopAtTarget() {
				stage = (stage + 1) % len(stages)
				e.After(stages[stage], step)
			}
		}
		e.After(stages[stage], step)
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

	// Cancel-per-fire churn: every fire disarms a timer and re-arms it,
	// the retransmit-timer pattern, so Cancel's unlink and the node's
	// reuse must both be allocation-free.
	ce := sim.NewEngine(3)
	var timer sim.EventID
	timerFn := func() {}
	var step func()
	step = func() {
		timer.Cancel()
		timer = ce.After(5000, timerFn)
		ce.After(10, step)
	}
	ce.After(10, step)
	cend := ce.Run(1000)
	if allocs := testing.AllocsPerRun(1000, func() {
		cend += 10
		ce.Run(cend)
	}); allocs != 0 {
		t.Errorf("cancel-per-fire churn allocates %.1f objects/op, want 0", allocs)
	}

	// Reset-then-rerun: an arena reuses one engine across runs, so a reset
	// must keep the node pool and the rerun must draw only from it.
	re := sim.NewEngine(4)
	rerun := func() {
		re.Reset(4)
		for i := 0; i < 64; i++ {
			re.After(sim.Duration(1+re.RNG().Intn(1<<20)), nop)
		}
		re.Run(1 << 19)
	}
	rerun()
	if allocs := testing.AllocsPerRun(100, rerun); allocs != 0 {
		t.Errorf("Reset-then-rerun cycle allocates %.1f objects/op, want 0", allocs)
	}
}
