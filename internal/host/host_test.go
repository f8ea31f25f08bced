package host

import (
	"flag"
	"testing"

	"hic/internal/iommu"
	"hic/internal/sim"
	"hic/internal/transport"
	"hic/internal/transport/swift"
)

// swiftConfig returns a testbed config with Swift CC.
func swiftConfig(threads int) Config {
	cfg := DefaultConfig(threads)
	cfg.CC = func() (transport.CongestionControl, error) {
		return swift.New(swift.DefaultConfig(), cfg.InitialCwnd)
	}
	return cfg
}

func runPoint(t testing.TB, cfg Config, warmup, measure sim.Duration) Results {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb.Run(warmup, measure)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Senders = 0 },
		func(c *Config) { c.Senders = 1 << 16 },
		func(c *Config) { c.ReceiverThreads = 0 },
		func(c *Config) { c.RxRegionBytes = 0 },
		func(c *Config) { c.AntagonistCores = -1 },
		func(c *Config) { c.CC = nil },
		func(c *Config) { c.InitialCwnd = 0 },
	}
	for i, mutate := range bad {
		cfg := swiftConfig(4)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	cfg := swiftConfig(4)
	cfg.Senders = 8
	res := runPoint(t, cfg, 2*sim.Millisecond, 5*sim.Millisecond)
	if res.Goodput == 0 {
		t.Fatal("no goodput")
	}
	if res.AppThroughputGbps <= 0 || res.AppThroughputGbps > 92.2 {
		t.Errorf("throughput = %.1f Gbps outside (0, 92.2]", res.AppThroughputGbps)
	}
	if res.DMAFaults != 0 {
		t.Errorf("DMA faults: %d", res.DMAFaults)
	}
	if res.SwitchDrops != 0 {
		t.Errorf("switch drops: %d (fabric must not be the bottleneck)", res.SwitchDrops)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := swiftConfig(2)
	cfg.Senders = 4
	a := runPoint(t, cfg, sim.Millisecond, 2*sim.Millisecond)
	b := runPoint(t, cfg, sim.Millisecond, 2*sim.Millisecond)
	if a != b {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	// Different seeds may legitimately converge to the same CPU-bound
	// equilibrium, so only bit-reproducibility is asserted.
}

// TestCalibrationCurves prints the fig3/fig6-style sweeps; run with
//
//	go test ./internal/host/ -run Calibration -v -calib
//
// It is skipped by default (it is a tool, not an assertion).
func TestCalibrationCurves(t *testing.T) {
	if testing.Short() || !*calib {
		t.Skip("calibration printout; enable with -calib")
	}
	warmup, measure := 20*sim.Millisecond, 30*sim.Millisecond

	t.Log("=== fig3: throughput vs threads (IOMMU ON/OFF) ===")
	for _, threads := range []int{2, 4, 6, 8, 10, 12, 14, 16} {
		on := swiftConfig(threads)
		off := swiftConfig(threads)
		off.IOMMU = iommu.Config{Enabled: false}
		ron := runPoint(t, on, warmup, measure)
		roff := runPoint(t, off, warmup, measure)
		t.Logf("threads=%2d ON:  %5.1f Gbps drop=%4.2f%% misses/pkt=%4.2f p50=%7v | OFF: %5.1f Gbps drop=%4.2f%%",
			threads, ron.AppThroughputGbps, ron.DropRatePct, ron.IOTLBMissesPerPacket,
			ron.HostDelayP50, roff.AppThroughputGbps, roff.DropRatePct)
	}

	t.Log("=== fig6: throughput vs antagonist cores (12 threads) ===")
	for _, cores := range []int{0, 2, 4, 6, 8, 10, 12, 15} {
		on := swiftConfig(12)
		on.AntagonistCores = cores
		off := swiftConfig(12)
		off.IOMMU = iommu.Config{Enabled: false}
		off.AntagonistCores = cores
		ron := runPoint(t, on, warmup, measure)
		roff := runPoint(t, off, warmup, measure)
		t.Logf("antag=%2d ON: %5.1f Gbps drop=%4.2f%% mem=%5.1f GB/s | OFF: %5.1f Gbps drop=%4.2f%% mem=%5.1f GB/s",
			cores, ron.AppThroughputGbps, ron.DropRatePct, ron.MemoryBandwidthGBps,
			roff.AppThroughputGbps, roff.DropRatePct, roff.MemoryBandwidthGBps)
	}
}

var calib = flag.Bool("calib", false, "print calibration sweeps")

// TestOneRetxScanEventPerPeriod: a testbed runs one retransmission-scan
// event per RetxScan period, however many connections it has. Before
// Start the other components' events do not depend on RetxScan, so
// halving the scan rate over k periods must remove exactly k/2 events.
func TestOneRetxScanEventPerPeriod(t *testing.T) {
	const periods = 20
	scan := transport.DefaultConfig().RetxScan
	events := func(senders, threads int, period sim.Duration) uint64 {
		cfg := swiftConfig(threads)
		cfg.Senders = senders
		cfg.Transport.RetxScan = period
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(tb.Conns); n != senders*threads {
			t.Fatalf("%d connections, want %d", n, senders*threads)
		}
		tb.Engine.Run(sim.Time(periods * scan))
		return tb.Engine.Processed()
	}
	for _, sh := range []struct{ senders, threads int }{{1, 1}, {8, 4}, {40, 12}} {
		if got := events(sh.senders, sh.threads, scan) - events(sh.senders, sh.threads, 2*scan); got != periods/2 {
			t.Errorf("%d connections: halving the scan rate removed %d events over %d periods, want %d",
				sh.senders*sh.threads, got, periods, periods/2)
		}
	}
}
