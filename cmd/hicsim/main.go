// Command hicsim runs a single host-congestion scenario and prints its
// measurements plus (optionally) the full metric registry.
//
// Example — the paper's 12-core IOMMU-on point with 8 antagonist cores:
//
//	hicsim -threads 12 -antagonists 8 -v
//
// Scenarios can also be loaded from JSON files (see configs/):
//
//	hicsim -config configs/fig6_antagonised.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/sim"
	"hic/internal/telemetry"
	"hic/internal/trace"
	"hic/internal/wire"
)

func main() {
	threads := flag.Int("threads", 12, "receiver threads/cores")
	senders := flag.Int("senders", 40, "sender machines")
	regionMB := flag.Int("region-mb", 12, "per-thread Rx region (MB)")
	iommuOn := flag.Bool("iommu", true, "enable the IOMMU")
	hugepages := flag.Bool("hugepages", true, "use 2MB payload mappings")
	antagonists := flag.Int("antagonists", 0, "STREAM antagonist cores")
	cc := flag.String("cc", "swift", "congestion control: swift, dctcp, fixed")
	hostTargetUS := flag.Int("host-target-us", 0, "Swift host delay target override (µs)")
	bufferKB := flag.Int("nic-buffer-kb", 0, "NIC input buffer override (KB)")
	deviceTLB := flag.Int("device-tlb", 0, "ATS-style device TLB entries")
	subRTT := flag.Bool("subrtt", false, "enable sub-RTT host congestion signal")
	warmupMS := flag.Int("warmup-ms", 20, "warmup window (ms)")
	measureMS := flag.Int("measure-ms", 30, "measurement window (ms)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	verbose := flag.Bool("v", false, "dump the full metric registry")
	configPath := flag.String("config", "", "load the scenario from a JSON core.Params file (overrides scenario flags)")
	tracePath := flag.String("trace", "", "write a time-series CSV (wide form) to this file")
	capturePath := flag.String("capture", "", "write a packet capture (wire format) to this file")
	traceUS := flag.Int("trace-period-us", 100, "trace sampling period (µs)")
	traceSpans := flag.Bool("trace-spans", false, "enable per-DMA span tracing and drop attribution")
	spanRate := flag.Float64("span-rate", 0.01, "head-based span sampling rate in [0,1] (with -trace-spans)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON (Perfetto-loadable) of the sampled spans to this file (implies -trace-spans)")
	metricsOut := flag.String("metrics-out", "", "write the metric registry in Prometheus text exposition format to this file")
	flag.Parse()

	p := core.DefaultParams(*threads)
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicsim: %v\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(data, &p); err != nil {
			fmt.Fprintf(os.Stderr, "hicsim: parsing %s: %v\n", *configPath, err)
			os.Exit(1)
		}
	}
	p.Seed = *seed
	if *configPath == "" {
		p.Senders = *senders
		p.RxRegionBytes = uint64(*regionMB) << 20
		p.IOMMU = *iommuOn
		p.Hugepages = *hugepages
		p.AntagonistCores = *antagonists
		p.CC = core.CC(*cc)
		p.SubRTTHostECN = *subRTT
		p.DeviceTLBEntries = *deviceTLB
		if *hostTargetUS > 0 {
			p.HostTarget = sim.Duration(*hostTargetUS) * sim.Microsecond
		}
		if *bufferKB > 0 {
			p.NICBufferBytes = *bufferKB << 10
		}
	}
	p.Warmup = sim.Duration(*warmupMS) * sim.Millisecond
	p.Measure = sim.Duration(*measureMS) * sim.Millisecond

	var (
		tb    *host.Testbed
		rec   *trace.Recorder
		telem *telemetry.Run
		cw    *wire.Writer
	)
	var capFile *os.File
	if *capturePath != "" {
		var err error
		capFile, err = os.Create(*capturePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicsim: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "wrote %s (%d packets)\n", *capturePath, cw.Count())
			capFile.Close()
		}()
	}
	res, err := core.Simulate(p, nil, func(t *host.Testbed, p core.Params) core.Results {
		tb = t
		if *tracePath != "" {
			rec = tb.EnableTrace(sim.Duration(*traceUS) * sim.Microsecond)
		}
		if *traceSpans || *traceOut != "" {
			telem = tb.EnableSpans(*spanRate)
		}
		if capFile != nil {
			cw = tb.EnableCapture(capFile)
		}
		return tb.Run(p.Warmup, p.Measure)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicsim: %v\n", err)
		os.Exit(1)
	}
	if rec != nil {
		if err := os.WriteFile(*tracePath, []byte(rec.Wide()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hicsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d samples)\n", *tracePath, rec.Len())
	}

	fmt.Printf("scenario: threads=%d senders=%d region=%dMB iommu=%v hugepages=%v antagonists=%d cc=%s\n",
		p.Threads, p.Senders, p.RxRegionBytes>>20, p.IOMMU, p.Hugepages, p.AntagonistCores, p.CC)
	fmt.Printf("app throughput:        %7.2f Gbps (ceiling %.1f)\n",
		res.AppThroughputGbps, core.MaxAchievable.Gbps())
	fmt.Printf("drop rate:             %7.2f %%\n", res.DropRatePct)
	fmt.Printf("IOTLB misses/packet:   %7.2f\n", res.IOTLBMissesPerPacket)
	fmt.Printf("memory bandwidth:      %7.1f GB/s\n", res.MemoryBandwidthGBps)
	fmt.Printf("link utilization:      %7.1f %%\n", res.LinkUtilization*100)
	fmt.Printf("host delay p50/p99:    %v / %v\n", res.HostDelayP50, res.HostDelayP99)
	fmt.Printf("retransmits:           %d\n", res.Retransmits)
	fmt.Printf("completed 16KB reads:  %d\n", res.Reads)
	if telem != nil {
		tr, led := telem.Tracer, telem.Drops
		fmt.Printf("\n--- pipeline telemetry (%d/%d packets sampled at rate %g) ---\n",
			tr.Sampled(), tr.Arrived(), tr.Rate())
		fmt.Print(telemetry.BreakdownTable(tr.Spans()))
		if led.Total() > 0 {
			fmt.Println("\n--- drop attribution ---")
			fmt.Print(led.Table())
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hicsim: %v\n", err)
				os.Exit(1)
			}
			if err := telemetry.WriteChromeTrace(f, telem); err != nil {
				fmt.Fprintf(os.Stderr, "hicsim: writing %s: %v\n", *traceOut, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s (%d spans, %d drop events)\n",
				*traceOut, len(tr.Spans()), len(led.Events()))
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicsim: %v\n", err)
			os.Exit(1)
		}
		if err := obs.WritePrometheus(f, tb.Registry.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "hicsim: writing %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}
	if *verbose {
		fmt.Println("\n--- metric registry ---")
		fmt.Print(tb.Registry.Dump())
	}
}
