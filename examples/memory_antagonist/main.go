// memory_antagonist reproduces the §3.2 scenario with the public API:
// STREAM instances contend the receiver's memory bus until the NIC's DMA
// writes are starved — drops and throughput collapse even though the
// access link is far from saturated.
//
//	go run ./examples/memory_antagonist
package main

import (
	"fmt"
	"log"

	"hic/internal/core"
	"hic/internal/sim"
)

func main() {
	fmt.Println("memory-bus-induced host congestion (§3.2)")
	fmt.Println("12 receiver cores, IOMMU on, STREAM antagonist sweep")
	fmt.Println()
	fmt.Printf("%12s  %9s  %12s  %7s  %9s\n",
		"antag cores", "app Gbps", "membw GB/s", "drop %", "link util")
	for _, cores := range []int{0, 4, 8, 12, 15} {
		p := core.DefaultParams(12)
		p.AntagonistCores = cores
		p.Warmup, p.Measure = 10*sim.Millisecond, 15*sim.Millisecond
		res, err := core.RunOn(p, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12d  %9.1f  %12.1f  %7.2f  %8.1f%%\n",
			cores, res.AppThroughputGbps, res.MemoryBandwidthGBps,
			res.DropRatePct, res.LinkUtilization*100)
	}

	fmt.Println()
	fmt.Println("note the last rows: the host drops packets while its access link")
	fmt.Println("runs well below line rate — the memory controller serves CPU and")
	fmt.Println("NIC first-come-first-served, and the CPUs win.")
}
