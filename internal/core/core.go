// Package core is the library's front door: it exposes the paper's
// testbed as a small declarative API. Callers describe a scenario with
// Params — receiver threads, IOMMU on/off, hugepages, Rx region size,
// antagonist cores, congestion control, and the §4 extension knobs — and
// run it, getting back the measurements the paper plots (application
// throughput, drop rate, IOTLB misses per packet, memory bandwidth,
// host-delay percentiles).
//
// Every answer comes from one of five entry points:
//
//   - RunOn(p, a) simulates one scenario over its full windows. The DES
//     executor, fidelity audits, examples and the benchmark's single
//     point call it.
//   - Simulate(p, a, drive) is the funnel RunOn is built on: it
//     normalizes the windows, builds the testbed (on a worker arena when
//     one is supplied), hands it to drive, and folds the finished run
//     into the obs fleet rollup. Callers that prime, instrument, stop
//     early or capture a run pass their own drive: internal/fidelity
//     (early stop, warm starts, checkpoints), sweep probes, cluster
//     observatory fleets, hicfigs and hicbench.
//   - RunFluid(p) evaluates the analytical fluid solver instead; the
//     fidelity router and the benchmark call it.
//   - RunVia(exec, p, cache, a) runs one scenario through an Executor
//     and a runcache.Store, which collapses duplicates; cluster fleets
//     and single routed points use it.
//   - RunEach(exec, ps, cache, emit) fans scenarios out over the shared
//     worker pool (internal/runner) and streams results in input order;
//     sweeps, figure experiments and examples use it. Each worker owns
//     a reusable arena — engine free lists, packet pool, metrics
//     registry — reset between runs, and byte-identical duplicate
//     scenarios are collapsed to one simulation. Each simulation stays
//     single-threaded and deterministic for its seed, so sweeps are
//     both fast and reproducible.
package core

import (
	"fmt"

	"hic/internal/host"
	"hic/internal/iommu"
	"hic/internal/mem"
	"hic/internal/model"
	"hic/internal/obs"
	"hic/internal/pkt"
	"hic/internal/runner"
	"hic/internal/sim"
	"hic/internal/transport"
	"hic/internal/transport/dctcp"
	"hic/internal/transport/swift"
)

// CC selects the congestion-control protocol for a scenario.
type CC string

const (
	// CCSwift is the paper's protocol: delay-based with fabric and host
	// targets.
	CCSwift CC = "swift"
	// CCDCTCP is the ECN-fraction TCP-like baseline.
	CCDCTCP CC = "dctcp"
	// CCFixed sends with a constant window (no congestion reaction).
	CCFixed CC = "fixed"
)

// Params declares one scenario. The zero value is not runnable; start
// from DefaultParams.
type Params struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Threads is the receiver thread/core count (Figures 3–4 x-axis).
	Threads int
	// Senders is the number of sender machines.
	Senders int
	// RxRegionBytes is the per-thread registered Rx region (Figure 5).
	RxRegionBytes uint64
	// IOMMU enables DMA address translation.
	IOMMU bool
	// Hugepages maps payload regions with 2 MB pages (Figure 4 disables).
	Hugepages bool
	// AntagonistCores runs the STREAM antagonist (Figure 6 x-axis).
	AntagonistCores int
	// CC picks the protocol; CCSwift is the paper's setup.
	CC CC
	// FixedCwnd is the window for CCFixed (ignored otherwise; ≤0 ⇒ 1).
	FixedCwnd float64

	// HostTarget overrides Swift's host delay target (0 ⇒ 100 µs).
	HostTarget sim.Duration
	// NICBufferBytes overrides the NIC input buffer (0 ⇒ 1 MB).
	NICBufferBytes int
	// DeviceTLBEntries enables the ATS-style device TLB (§4(a)).
	DeviceTLBEntries int
	// StrictIOMMU switches to per-DMA map/unmap with invalidations —
	// the dynamic mode §3.1 notes is even worse than loose mode.
	StrictIOMMU bool
	// LinkLatencyScale scales the root-complex pipeline latency — the
	// CXL-style reduced-latency ablation (§4(b)). 0 means 1.0.
	LinkLatencyScale float64
	// MemoryIOReservedShare reserves memory bandwidth for the NIC — the
	// MBA/MPAM QoS ablation (§4(c)).
	MemoryIOReservedShare float64
	// SubRTTHostECN turns on the sub-RTT host congestion signal: the NIC
	// marks packets above half buffer occupancy and Swift (or DCTCP)
	// reacts immediately (§4 congestion-response discussion).
	SubRTTHostECN bool
	// FabricECNThresholdBytes enables switch ECN marking (used with
	// CCDCTCP).
	FabricECNThresholdBytes int
	// CPUCores caps stack processing cores independently of Threads
	// (0 = one per thread); InitialActiveCores and DynamicCoreScaling
	// drive the §4 software-congestion remedy.
	CPUCores           int
	InitialActiveCores int
	DynamicCoreScaling bool
	// AntagonistRemoteNUMA schedules the antagonist on the far NUMA
	// node (§4's coordinated-allocation response).
	AntagonistRemoteNUMA bool
	// CopyReadFraction overrides how much of each delivered payload the
	// receive-path copy re-reads from DRAM (0 = the calibrated default
	// of 0.28, matching the paper's measured 3.3 GB/s at full rate).
	// Footnote 2's DDIO discussion maps onto this knob: ≈0.05 models an
	// ideal direct-cache-access hit rate, 1.0 models DDIO disabled
	// (every copy fetches from DRAM).
	CopyReadFraction float64
	// PerQueueNICBuffers partitions the NIC input buffer per queue
	// (round-robin service) instead of the paper's shared SRAM.
	PerQueueNICBuffers bool
	// VictimConnGbps creates the asymmetric aggressor/victim workload
	// used by the buffer-partitioning ablation (see
	// host.Config.VictimConnGbps).
	VictimConnGbps float64
	// SenderHostModel enables the full sender-side TX path (footnote
	// 1's backpressure asymmetry); SenderAntagonistCores contends each
	// sender's memory bus.
	SenderHostModel       bool
	SenderAntagonistCores int
	// OfferedGbps caps the aggregate application demand across all
	// connections (0 = unlimited, i.e. the paper's saturating reads).
	// Hosts offered less than their access-link rate are how Figure 1's
	// low-utilization drops arise.
	OfferedGbps float64
	// BurstDuty, in (0,1), makes the workload bursty with the given duty
	// cycle over BurstPeriod (default 2 ms). Average utilization drops
	// with the duty cycle while burst onsets still overflow the NIC.
	BurstDuty   float64
	BurstPeriod sim.Duration

	// Warmup and Measure set the discarded and measured windows.
	Warmup  sim.Duration
	Measure sim.Duration
}

// DefaultParams returns the paper's baseline scenario at the given
// receiver thread count: 40 senders, IOMMU on, hugepages, 12 MB regions,
// Swift, no antagonist.
func DefaultParams(threads int) Params {
	return Params{
		Seed:          1,
		Threads:       threads,
		Senders:       40,
		RxRegionBytes: 12 << 20,
		IOMMU:         true,
		Hugepages:     true,
		CC:            CCSwift,
		Warmup:        20 * sim.Millisecond,
		Measure:       30 * sim.Millisecond,
	}
}

// Results re-exports the testbed measurement bundle.
type Results = host.Results

// hostConfig lowers Params onto the full substrate configuration.
func (p Params) hostConfig() (host.Config, error) {
	if p.Threads <= 0 {
		return host.Config{}, fmt.Errorf("core: Threads must be positive")
	}
	if p.Senders <= 0 {
		return host.Config{}, fmt.Errorf("core: Senders must be positive")
	}
	if p.Warmup < 0 || p.Measure <= 0 {
		return host.Config{}, fmt.Errorf("core: bad warmup/measure windows")
	}
	cfg := host.DefaultConfig(p.Threads)
	cfg.Seed = p.Seed
	cfg.Senders = p.Senders
	if p.RxRegionBytes > 0 {
		cfg.RxRegionBytes = p.RxRegionBytes
	}
	cfg.Hugepages = p.Hugepages
	cfg.AntagonistCores = p.AntagonistCores

	if !p.IOMMU {
		cfg.IOMMU = iommu.Config{Enabled: false}
	} else {
		if p.DeviceTLBEntries > 0 {
			cfg.IOMMU.DeviceTLBEntries = p.DeviceTLBEntries
		}
		if p.StrictIOMMU {
			cfg.IOMMU.Mode = iommu.StrictMode
		}
	}
	if p.NICBufferBytes > 0 {
		cfg.NIC.BufferBytes = p.NICBufferBytes
	}
	if p.SubRTTHostECN {
		cfg.NIC.HostECNThreshold = cfg.NIC.BufferBytes / 2
	}
	if p.LinkLatencyScale > 0 {
		cfg.PCIe.RootComplexLatency = sim.Duration(
			float64(cfg.PCIe.RootComplexLatency) * p.LinkLatencyScale)
	}
	if p.MemoryIOReservedShare > 0 {
		cfg.Memory.IOReservedShare = p.MemoryIOReservedShare
	}
	if p.FabricECNThresholdBytes > 0 {
		cfg.Fabric.ECNThresholdBytes = p.FabricECNThresholdBytes
	}
	if p.OfferedGbps > 0 {
		conns := float64(p.Senders * p.Threads)
		cfg.Transport.AppRateLimit = sim.BitsPerSecond(p.OfferedGbps * 1e9 / conns)
	}
	cfg.CPUCores = p.CPUCores
	cfg.InitialActiveCores = p.InitialActiveCores
	cfg.DynamicCoreScaling = p.DynamicCoreScaling
	cfg.AntagonistRemoteNUMA = p.AntagonistRemoteNUMA
	cfg.SenderHostModel = p.SenderHostModel
	cfg.SenderAntagonistCores = p.SenderAntagonistCores
	cfg.NIC.PerQueueBuffers = p.PerQueueNICBuffers
	if p.CopyReadFraction > 0 {
		cfg.CPU.CopyReadFraction = p.CopyReadFraction
	}
	cfg.VictimConnGbps = p.VictimConnGbps
	if p.BurstDuty > 0 {
		cfg.BurstDuty = p.BurstDuty
		cfg.BurstPeriod = p.BurstPeriod
		if cfg.BurstPeriod == 0 {
			cfg.BurstPeriod = 2 * sim.Millisecond
		}
	}

	switch p.CC {
	case CCSwift, "":
		scfg := swift.DefaultConfig()
		if p.HostTarget > 0 {
			scfg.HostTarget = p.HostTarget
		}
		scfg.SubRTTHostECN = p.SubRTTHostECN
		cfg.CC = func() (transport.CongestionControl, error) {
			return swift.New(scfg, cfg.InitialCwnd)
		}
	case CCDCTCP:
		dcfg := dctcp.DefaultConfig()
		dcfg.ReactToHostECN = p.SubRTTHostECN
		cfg.CC = func() (transport.CongestionControl, error) {
			return dctcp.New(dcfg, cfg.InitialCwnd)
		}
	case CCFixed:
		w := p.FixedCwnd
		if w <= 0 {
			w = 1
		}
		cfg.CC = func() (transport.CongestionControl, error) {
			return dctcp.NewFixed(w), nil
		}
	default:
		return host.Config{}, fmt.Errorf("core: unknown congestion control %q", p.CC)
	}
	return cfg, nil
}

// Build constructs the testbed without running it. Code that runs a
// point goes through Simulate, handing a drive func to instrument or
// read the testbed; Build is kept only because the bench module calls
// it.
func (p Params) Build() (*host.Testbed, error) {
	return p.BuildOn(nil)
}

// BuildOn constructs the testbed, reusing the arena's engine, packet
// pool, and registry when a worker arena is supplied (nil builds fresh
// substrate, identical to the pre-pool path). host.NewWith resets every
// reused component to its post-construction state, so the two paths
// produce bit-identical simulations.
func (p Params) BuildOn(a *runner.Arena) (*host.Testbed, error) {
	cfg, err := p.hostConfig()
	if err != nil {
		return nil, err
	}
	if a == nil {
		return host.New(cfg)
	}
	engine, pool, registry := a.Acquire()
	return host.NewWith(host.Runtime{Engine: engine, Pool: pool, Registry: registry}, cfg)
}

// RunOn executes one scenario over its full warmup and measure windows
// on a worker arena: the arena's engine free lists, packet pool, and
// metrics registry are reset and reused instead of reallocated, which
// is what makes fleet-scale fan-out allocation-flat. A nil arena builds
// fresh substrate.
func RunOn(p Params, a *runner.Arena) (Results, error) {
	return Simulate(p, a, nil)
}

// Simulate is the single-point DES funnel: it normalizes p's windows,
// builds the testbed on the arena (nil builds fresh substrate), runs
// drive on it, and folds the completed run's registry into the control
// plane's fleet-cumulative rollup. drive receives the normalized Params
// and returns the run's Results; a nil drive is the full-window run
// tb.Run(p.Warmup, p.Measure). Drives prime (tb.Prime), instrument
// (tb.EnableSpans, observatory.Attach), stop early (EarlyStop.Drive) or
// capture (tb.Snapshot) the testbed they are handed.
func Simulate(p Params, a *runner.Arena, drive func(tb *host.Testbed, p Params) Results) (Results, error) {
	p.normalizeWindows()
	tb, err := p.BuildOn(a)
	if err != nil {
		return Results{}, err
	}
	var res Results
	if drive == nil {
		res = tb.Run(p.Warmup, p.Measure)
	} else {
		res = drive(tb, p)
	}
	// Snapshotting here is safe — the run is done and the arena is
	// still exclusively ours — and the disabled path costs one atomic
	// load and a nil check.
	if s := obs.Default(); s != nil {
		s.RunMetrics(tb.Registry.Snapshot())
	}
	return res, nil
}

// normalizeWindows fills in the default warmup/measure windows so every
// execution (and cache-key computation) sees the windows that actually
// run.
func (p *Params) normalizeWindows() {
	if p.Warmup == 0 && p.Measure == 0 {
		d := DefaultParams(1)
		p.Warmup, p.Measure = d.Warmup, d.Measure
	}
}

// ModeledThroughput evaluates the paper's Little's-law bound for a
// scenario, using the scenario's PCIe credit pool and the measured
// misses-per-packet (the paper plots this line against measurement for
// the credit-limited regime, threads ≥ 10).
func ModeledThroughput(p Params, missesPerPacket float64) (sim.BitsPerSecond, error) {
	cfg, err := p.hostConfig()
	if err != nil {
		return 0, err
	}
	mtu := cfg.Transport.MTU
	wire := cfg.PCIe.WireBytes(mtu + cfg.NIC.CompletionBytes)

	// Tbase: link serialization (doubled — in the credit-limited regime
	// a granted packet also waits behind the transfer in service on the
	// serial link), three uncontended memory accesses (descriptor read,
	// payload write, completion write), a steady-state memory-FIFO
	// queueing allowance, and the root-complex pipeline.
	rate := float64(cfg.PCIe.RawBandwidth()) * cfg.PCIe.LinkEfficiency
	transmit := sim.BitsPerSecond(rate).TransmitTime(cfg.PCIe.WireBytes(mtu))
	memIdle := model.LoadLatency(cfg.Memory.BaseLatency, 0.15,
		cfg.Memory.LoadCurveA, cfg.Memory.LoadCurveB, cfg.Memory.MaxLoadFactor)
	const memQueueAllowance = 150 * sim.Nanosecond
	tbase := 2*transmit + 3*memIdle + memQueueAllowance + cfg.PCIe.RootComplexLatency

	// Tmiss: one walk read (PWC covers upper levels) + walker step.
	tmiss := memIdle + cfg.IOMMU.WalkStepLatency

	// Only the Rx-chain translations hold credits; the TX (ACK-side)
	// translations pressure the IOTLB but not the credit pool. Rx
	// translations are 3 of the 5 per packet.
	rxMisses := missesPerPacket * 3 / 5
	bound := model.ThroughputBound(cfg.PCIe.CreditBytes, wire, mtu, tbase, rxMisses, tmiss)

	// The bound cannot exceed the PCIe goodput or the wire ceiling.
	ceiling := model.MaxAchievableThroughput(cfg.Fabric.AccessLinkRate, mtu, pkt.HeaderBytes)
	if g := cfg.PCIe.Goodput(); sim.BitsPerSecond(float64(g)*float64(mtu)/float64(cfg.PCIe.WireBytes(mtu))) < ceiling {
		ceiling = sim.BitsPerSecond(float64(g) * float64(mtu) / float64(cfg.PCIe.WireBytes(mtu)))
	}
	if bound > ceiling {
		bound = ceiling
	}
	return bound, nil
}

// Paper-testbed constants re-exported for experiment code and docs.
var (
	// MaxAchievable is the ~92 Gbps application ceiling.
	MaxAchievable = model.MaxAchievableThroughput(sim.Gbps(100), 4096, pkt.HeaderBytes)
	// BlindThreshold is the ~81 Gbps CC reaction threshold.
	BlindThreshold = model.CCBlindThreshold(1<<20, 100*sim.Microsecond, 4096.0/4452.0)
)

// MemoryDefaults exposes the memory configuration used by the testbed
// (for experiment code that annotates results).
func MemoryDefaults() mem.Config { return mem.DefaultConfig() }
