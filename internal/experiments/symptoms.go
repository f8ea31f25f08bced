package experiments

import (
	"fmt"

	"hic/internal/asciiplot"
	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/sim"
)

// ExtStrictMode compares the paper's loose-mode registration (fixed
// upfront mappings, no runtime invalidations) against the strict per-DMA
// map/unmap mode §3.1 dismisses as "known to cause even worse IOTLB
// misses" — every DMA pays a mapping update and always cold-misses.
func ExtStrictMode(o Options) (*Table, error) {
	threads := o.pick([]int{4, 8, 12, 16}, []int{4, 12})
	var ps []core.Params
	for _, th := range threads {
		loose := o.params(th)
		strict := loose
		strict.StrictIOMMU = true
		ps = append(ps, loose, strict)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-strict",
		Title: "Loose vs strict IOMMU mapping mode",
		Columns: []string{"cores", "loose_gbps", "strict_gbps", "loose_drop_pct",
			"strict_drop_pct", "loose_misses_per_pkt", "strict_misses_per_pkt"},
	}
	var loose, strict []float64
	for i, th := range threads {
		rl, rsx := rs[2*i], rs[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(th), f1(rl.AppThroughputGbps), f1(rsx.AppThroughputGbps),
			f2(rl.DropRatePct), f2(rsx.DropRatePct),
			f2(rl.IOTLBMissesPerPacket), f2(rsx.IOTLBMissesPerPacket),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(th))
		loose = append(loose, rl.AppThroughputGbps)
		strict = append(strict, rsx.AppThroughputGbps)
	}
	t.plots = []asciiplot.Series{
		{Name: "loose", Values: loose},
		{Name: "strict", Values: strict},
	}
	return t, nil
}

// ExtTailLatency measures application-level 16 KB read latency under
// growing memory antagonism: the introduction's claim that host
// congestion causes "hundreds of microseconds of tail latency".
func ExtTailLatency(o Options) (*Table, error) {
	cores := o.pick([]int{0, 4, 8, 12, 15}, []int{0, 12})
	const threads = 12
	var ps []core.Params
	for _, ac := range cores {
		p := o.params(threads)
		p.AntagonistCores = ac
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-tail",
		Title: "16KB read latency under memory antagonism (12 cores, IOMMU on)",
		Columns: []string{"antag_cores", "gbps", "read_p50_us", "read_p99_us",
			"read_p999_us", "hostdelay_p99_us"},
	}
	var p99 []float64
	for i, ac := range cores {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ac), f1(r.AppThroughputGbps),
			f1(float64(r.ReadLatencyP50) / 1000),
			f1(float64(r.ReadLatencyP99) / 1000),
			f1(float64(r.ReadLatencyP999) / 1000),
			f1(float64(r.HostDelayP99) / 1000),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(ac))
		p99 = append(p99, float64(r.ReadLatencyP99)/1000)
	}
	t.plots = []asciiplot.Series{{Name: "read p99 (µs)", Values: p99}}
	return t, nil
}

// ExtIsolation demonstrates the isolation violation the paper uses drop
// rate as a proxy for: a well-behaved, lightly loaded victim sharing the
// NIC input buffer with saturating aggressors suffers drops it would
// never see alone. The victim is modelled as an app-limited host
// scenario; the aggressor pressure comes from running the same victim
// load with the interconnect congested (blind zone) versus idle.
func ExtIsolation(o Options) (*Table, error) {
	type scenario struct {
		name    string
		threads int
		offered float64
	}
	scs := []scenario{
		{"victim alone (8 cores, 20 Gbps)", 8, 20},
		{"victim+aggressors (12 cores, saturating)", 12, 0},
	}
	var ps []core.Params
	for _, sc := range scs {
		p := o.params(sc.threads)
		p.OfferedGbps = sc.offered
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-isolation",
		Title:   "Shared NIC buffer: drops as an isolation violation",
		Columns: []string{"scenario", "gbps", "drop_pct", "hostdelay_p99_us", "read_p99_us"},
	}
	for i, sc := range scs {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			sc.name, f1(r.AppThroughputGbps), f2(r.DropRatePct),
			f1(float64(r.HostDelayP99) / 1000),
			f1(float64(r.ReadLatencyP99) / 1000),
		})
	}
	return t, nil
}

// ExtSawtooth samples throughput over time at the paper's 12-core
// IOMMU-on operating point, exposing the classic congestion-control
// sawtooth §3.1 describes (rate reduction → delay drops → rate grows →
// drops again).
func ExtSawtooth(o Options) (*Table, error) {
	p := o.params(12)
	bins := 24
	if o.Quick {
		bins = 8
	}
	binW := 2 * sim.Millisecond

	t := &Table{
		ID:      "ext-sawtooth",
		Title:   "Goodput and NIC buffer over time (12 cores, IOMMU on)",
		Columns: []string{"t_ms", "gbps", "nic_buffer_kb", "drops_in_bin"},
	}
	var series []float64
	// The drive samples fixed-width bins after the warmup instead of one
	// measure window; the table is the result, so it returns none.
	if _, err := core.Simulate(p, nil, func(tb *host.Testbed, p core.Params) core.Results {
		tb.Start()
		tb.Engine.Run(tb.Engine.Now().Add(p.Warmup))
		prevGoodput := tb.Receiver.GoodputBytes()
		prevDrops := tb.NIC.Stats().Drops
		start := tb.Engine.Now()
		for i := 0; i < bins; i++ {
			tb.Engine.Run(tb.Engine.Now().Add(binW))
			goodput := tb.Receiver.GoodputBytes()
			drops := tb.NIC.Stats().Drops
			gbps := float64(goodput-prevGoodput) * 8 / binW.Seconds() / 1e9
			elapsed := tb.Engine.Now().Sub(start)
			t.Rows = append(t.Rows, []string{
				f1(elapsed.Seconds() * 1000), f1(gbps),
				fmt.Sprint(tb.NIC.BufferUsed() >> 10),
				fmt.Sprint(drops - prevDrops),
			})
			t.xlabels = append(t.xlabels, f1(elapsed.Seconds()*1000))
			series = append(series, gbps)
			prevGoodput, prevDrops = goodput, drops
		}
		return core.Results{}
	}); err != nil {
		return nil, err
	}
	t.plots = []asciiplot.Series{{Name: "Gbps", Values: series}}
	return t, nil
}
