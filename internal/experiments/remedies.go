package experiments

import (
	"fmt"

	"hic/internal/asciiplot"
	"hic/internal/core"
	"hic/internal/model"
	"hic/internal/sim"
)

// ExtTargetDelay sweeps Swift's host-delay target — the paper's §3.1
// discussion: a lower target alone cannot prevent drops because in-flight
// bytes exceed the NIC buffer before any RTT-scale reaction.
func ExtTargetDelay(o Options) (*Table, error) {
	targets := o.pick([]int{25, 50, 75, 100, 150, 200}, []int{25, 100})
	const threads = 12
	var ps []core.Params
	for _, us := range targets {
		p := o.params(threads)
		p.HostTarget = sim.Duration(us) * sim.Microsecond
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-target",
		Title: "Swift host-delay target ablation (12 cores, IOMMU on)",
		Columns: []string{"target_us", "gbps", "drop_pct", "hostdelay_p50_us",
			"hostdelay_p99_us", "blind_threshold_gbps"},
	}
	var tput, drop []float64
	for i, us := range targets {
		r := rs[i]
		blind := model.CCBlindThreshold(1<<20, sim.Duration(us)*sim.Microsecond, 4096.0/4452.0)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(us), f1(r.AppThroughputGbps), f2(r.DropRatePct),
			f1(float64(r.HostDelayP50) / 1000), f1(float64(r.HostDelayP99) / 1000),
			f1(blind.Gbps()),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(us))
		tput = append(tput, r.AppThroughputGbps)
		drop = append(drop, r.DropRatePct)
	}
	t.plots = []asciiplot.Series{
		{Name: "Gbps", Values: tput},
		{Name: "drop%", Values: drop},
	}
	return t, nil
}

// ExtNICBuffer sweeps the NIC input buffer: larger buffers move the CC
// blind threshold (buffer/target) below the operating point, letting
// Swift see host congestion before drops.
func ExtNICBuffer(o Options) (*Table, error) {
	sizesKB := o.pick([]int{256, 512, 1024, 2048, 4096}, []int{512, 2048})
	const threads = 12
	var ps []core.Params
	for _, kb := range sizesKB {
		p := o.params(threads)
		p.NICBufferBytes = kb << 10
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-buffer",
		Title: "NIC input-buffer size ablation (12 cores, IOMMU on)",
		Columns: []string{"buffer_kb", "gbps", "drop_pct", "hostdelay_p99_us",
			"blind_threshold_gbps"},
	}
	var drop []float64
	for i, kb := range sizesKB {
		r := rs[i]
		blind := model.CCBlindThreshold(kb<<10, 100*sim.Microsecond, 4096.0/4452.0)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(kb), f1(r.AppThroughputGbps), f2(r.DropRatePct),
			f1(float64(r.HostDelayP99) / 1000), f1(blind.Gbps()),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(kb))
		drop = append(drop, r.DropRatePct)
	}
	t.plots = []asciiplot.Series{{Name: "drop%", Values: drop}}
	return t, nil
}

// ExtATS sweeps an ATS-style device TLB (§4(a)): translations cached on
// the NIC relieve the 128-entry IOTLB.
func ExtATS(o Options) (*Table, error) {
	entries := o.pick([]int{0, 128, 256, 512, 1024}, []int{0, 512})
	const threads = 16
	var ps []core.Params
	for _, n := range entries {
		p := o.params(threads)
		p.DeviceTLBEntries = n
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-ats",
		Title:   "ATS-style device TLB (16 cores, IOMMU on)",
		Columns: []string{"device_tlb", "gbps", "drop_pct", "misses_per_pkt"},
	}
	var tput []float64
	for i, n := range entries {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), f1(r.AppThroughputGbps), f2(r.DropRatePct),
			f2(r.IOTLBMissesPerPacket),
		})
		t.xlabels = append(t.xlabels, fmt.Sprint(n))
		tput = append(tput, r.AppThroughputGbps)
	}
	t.plots = []asciiplot.Series{{Name: "Gbps", Values: tput}}
	return t, nil
}

// ExtCXL scales the root-complex pipeline latency down, as a CXL-like
// interconnect might (§4(b)): shorter credit hold times raise the
// Little's-law bound.
func ExtCXL(o Options) (*Table, error) {
	scales := []float64{1.0, 0.75, 0.5, 0.25}
	if o.Quick {
		scales = []float64{1.0, 0.5}
	}
	const threads = 16
	var ps []core.Params
	for _, s := range scales {
		p := o.params(threads)
		p.LinkLatencyScale = s
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-cxl",
		Title:   "CXL-like link latency scaling (16 cores, IOMMU on)",
		Columns: []string{"latency_scale", "gbps", "drop_pct"},
	}
	var tput []float64
	for i, s := range scales {
		r := rs[i]
		t.Rows = append(t.Rows, []string{f2(s), f1(r.AppThroughputGbps), f2(r.DropRatePct)})
		t.xlabels = append(t.xlabels, f2(s))
		tput = append(tput, r.AppThroughputGbps)
	}
	t.plots = []asciiplot.Series{{Name: "Gbps", Values: tput}}
	return t, nil
}

// ExtMBA sweeps an MBA/MPAM-style memory-bandwidth reservation for the
// NIC (§4(c)) under heavy antagonism.
func ExtMBA(o Options) (*Table, error) {
	shares := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30}
	if o.Quick {
		shares = []float64{0, 0.2}
	}
	const threads, antag = 12, 12
	var ps []core.Params
	for _, s := range shares {
		p := o.params(threads)
		p.AntagonistCores = antag
		p.MemoryIOReservedShare = s
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-mba",
		Title:   "MBA-style NIC bandwidth reservation (12 cores, 12 antagonists)",
		Columns: []string{"io_reserved", "gbps", "drop_pct", "membw_gbps"},
	}
	var tput []float64
	for i, s := range shares {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			f2(s), f1(r.AppThroughputGbps), f2(r.DropRatePct), f1(r.MemoryBandwidthGBps),
		})
		t.xlabels = append(t.xlabels, f2(s))
		tput = append(tput, r.AppThroughputGbps)
	}
	t.plots = []asciiplot.Series{{Name: "Gbps", Values: tput}}
	return t, nil
}

// ExtSubRTT compares standard Swift against the §4 sub-RTT host
// congestion signal (NIC-originated marks with immediate reaction) in the
// blind zone where delay targets cannot fire.
func ExtSubRTT(o Options) (*Table, error) {
	type scenario struct {
		name   string
		antag  int
		subRTT bool
	}
	scs := []scenario{
		{"swift", 0, false},
		{"swift+subrtt", 0, true},
		{"swift antag=8", 8, false},
		{"swift+subrtt antag=8", 8, true},
	}
	if o.Quick {
		scs = scs[:2]
	}
	const threads = 12
	var ps []core.Params
	for _, sc := range scs {
		p := o.params(threads)
		p.AntagonistCores = sc.antag
		p.SubRTTHostECN = sc.subRTT
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-subrtt",
		Title:   "Sub-RTT host congestion signal (12 cores, IOMMU on)",
		Columns: []string{"scenario", "gbps", "drop_pct", "hostdelay_p99_us"},
	}
	for i, sc := range scs {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			sc.name, f1(r.AppThroughputGbps), f2(r.DropRatePct),
			f1(float64(r.HostDelayP99) / 1000),
		})
	}
	return t, nil
}

// ExtCCCompare runs Swift against the TCP-like baselines under host
// congestion (§4: "similar reasoning also applies for TCP-like
// protocols").
func ExtCCCompare(o Options) (*Table, error) {
	type scenario struct {
		name string
		cc   core.CC
	}
	scs := []scenario{
		{"swift (delay-based, host target)", core.CCSwift},
		{"dctcp (switch ECN)", core.CCDCTCP},
		{"loss-only (TCP-Reno-like)", core.CCDCTCP},
		{"fixed window (no feedback)", core.CCFixed},
	}
	if o.Quick {
		scs = scs[:2]
	}
	const threads = 12
	var ps []core.Params
	for i, sc := range scs {
		p := o.params(threads)
		p.CC = sc.cc
		if i == 1 {
			// DCTCP proper: switch marks above ~70 KB of port queue.
			p.FabricECNThresholdBytes = 70 << 10
		}
		// i == 2: DCTCP machinery with no marks configured anywhere —
		// additive increase + loss halving, i.e. a Reno-like TCP that
		// can only learn about host congestion from drops.
		if sc.cc == core.CCFixed {
			p.FixedCwnd = 1
		}
		ps = append(ps, p)
	}
	rs, err := o.runMany(ps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-cc",
		Title:   "Congestion control under host congestion (12 cores, IOMMU on)",
		Columns: []string{"protocol", "gbps", "drop_pct", "retransmits", "hostdelay_p99_us"},
	}
	for i, sc := range scs {
		r := rs[i]
		t.Rows = append(t.Rows, []string{
			sc.name, f1(r.AppThroughputGbps), f2(r.DropRatePct),
			fmt.Sprint(r.Retransmits), f1(float64(r.HostDelayP99) / 1000),
		})
	}
	return t, nil
}

// Registry maps experiment IDs to their definitions.
var Registry = map[string]func(Options) (*Table, error){
	"3":         Fig3,
	"4":         Fig4,
	"5":         Fig5,
	"6":         Fig6,
	"target":    ExtTargetDelay,
	"buffer":    ExtNICBuffer,
	"ats":       ExtATS,
	"cxl":       ExtCXL,
	"mba":       ExtMBA,
	"subrtt":    ExtSubRTT,
	"cc":        ExtCCCompare,
	"strict":    ExtStrictMode,
	"tail":      ExtTailLatency,
	"isolation": ExtIsolation,
	"sawtooth":  ExtSawtooth,
	"software":  ExtSoftwareVsInterconnect,
	"numa":      ExtNUMAPlacement,
	"fairness":  ExtFairness,
	"sender":    ExtSenderSide,
	"partition": ExtPartition,
	"budget":    ExtBudget,
	"ddio":      ExtDDIO,
	"onset":     ExtOnset,
}

// Order is the canonical presentation order of Registry entries.
var Order = []string{"3", "4", "5", "6", "target", "buffer", "ats", "cxl", "mba",
	"subrtt", "cc", "strict", "tail", "isolation", "sawtooth", "software", "numa", "fairness",
	"sender", "partition", "budget", "ddio", "onset"}
