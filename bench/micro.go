package main

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"hic/internal/core"
	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/runcache"
	"hic/internal/sim"
)

// microBenchtime bounds each layer microbenchmark.
const microBenchtime = "200ms"

// microbenchmarks times single public layer functions on a realistic
// mix and adds their per-call cost to m.
func microbenchmarks(dir string, m map[string]float64) error {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		return err
	}
	fig6 := regimes[len(regimes)-1].params()
	fig6.Warmup, fig6.Measure = 2*sim.Millisecond, 8*sim.Millisecond
	delays, err := hostDelays(fig6)
	if err != nil {
		return err
	}
	store, err := runcache.Open(dir)
	if err != nil {
		return err
	}
	benches := []struct {
		name  string
		scale float64 // ns per reported unit
		fn    func(b *testing.B)
	}{
		{"sim.schedule_fire_ns", 1, engineChurn},
		{"pkt.lifecycle_ns", 1, packetLifecycle},
		{"metrics.observe_ns", 1, func(b *testing.B) {
			h := metrics.NewHistogram(16)
			for i := 0; i < b.N; i++ {
				h.Observe(delays[i%len(delays)])
			}
		}},
		{"fluid.solve_us", 1e3, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunFluid(fig6); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"runcache.blob_roundtrip_us", 1e3, func(b *testing.B) {
			blob := make(map[string][]float64)
			for t := 0; t < 16; t++ {
				blob[string(rune('a'+t))] = []float64{float64(t), 0.9 + float64(t)/100, 1e-3 * float64(t)}
			}
			const version, canonical = "bench-blob-1", "blob roundtrip"
			key := runcache.Key(version, canonical)
			var out map[string][]float64
			for i := 0; i < b.N; i++ {
				if err := store.PutBlob(key, version, canonical, blob); err != nil {
					b.Fatal(err)
				}
				if !store.GetBlob(key, version, canonical, &out) {
					b.Fatal("blob not found after put")
				}
			}
		}},
	}
	for _, bm := range benches {
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			return fmt.Errorf("microbenchmark %s failed", bm.name)
		}
		m[bm.name] = float64(r.T.Nanoseconds()) / float64(r.N) / bm.scale
	}
	return nil
}

// churnDepth is the number of self-rescheduling event chains in flight,
// like a fig6 point's concurrent DMA completions.
const churnDepth = 256

// engineChurn is the engine's event mix: each fire reschedules itself
// at a random delay and re-arms a cancelled timer, as a retransmit
// timer is armed and disarmed per delivered packet.
func engineChurn(b *testing.B) {
	e := sim.NewEngine(1)
	target := uint64(b.N) + churnDepth
	var timer sim.EventID
	var tick func()
	noop := func() {}
	tick = func() {
		if e.Processed() >= target {
			e.Stop()
			return
		}
		timer.Cancel()
		timer = e.After(sim.Duration(5000), noop)
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	for i := 0; i < churnDepth; i++ {
		e.After(sim.Duration(1+e.RNG().Intn(997)), tick)
	}
	b.ResetTimer()
	e.Run(math.MaxInt64 - 1)
}

// packetLifecycle is one pooled data packet and its ack, from
// allocation to release.
func packetLifecycle(b *testing.B) {
	pl := pkt.NewPool()
	for i := 0; i < b.N; i++ {
		p := pl.Data(uint64(i), 1, 0, uint64(i), 4096)
		a := pl.Ack(uint64(i), p)
		pl.Release(p)
		pl.Release(a)
	}
}

// hostDelays runs p and returns 4096 values drawn from its measured
// host-delay distribution by interpolating the recorded quantiles.
func hostDelays(p core.Params) ([]float64, error) {
	tb, err := p.Build()
	if err != nil {
		return nil, err
	}
	tb.Run(p.Warmup, p.Measure)
	h := tb.Registry.Snapshot().Histograms["transport.host.delay.ns"]
	qs := []float64{0, 0.5, 0.9, 0.99, 0.999, 1}
	vs := []float64{h.Min, h.P50, h.P90, h.P99, h.P999, h.Max}
	out := make([]float64, 4096)
	for i := range out {
		u := (float64(i) + 0.5) / float64(len(out))
		j := 1
		for j < len(qs)-1 && qs[j] < u {
			j++
		}
		out[i] = vs[j-1] + (u-qs[j-1])/(qs[j]-qs[j-1])*(vs[j]-vs[j-1])
	}
	// Interleave so consecutive observations land in different buckets.
	for i := range out {
		j := int(mix(uint64(i)) % uint64(len(out)))
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}
