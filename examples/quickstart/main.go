// Quickstart: build the paper's testbed at one operating point and print
// the headline measurements.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hic/internal/core"
)

func main() {
	// The paper's §3.1 setup at 12 receiver cores: 40 senders issue
	// 16 KB remote reads over 4 KB-MTU packets, Swift congestion
	// control, IOMMU enabled with 2 MB hugepage mappings.
	params := core.DefaultParams(12)

	res, err := core.RunOn(params, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("host interconnect congestion — quickstart")
	fmt.Printf("  receiver cores:       %d\n", params.Threads)
	fmt.Printf("  app throughput:       %.1f Gbps (of %.1f achievable)\n",
		res.AppThroughputGbps, core.MaxAchievable.Gbps())
	fmt.Printf("  host drop rate:       %.2f %%\n", res.DropRatePct)
	fmt.Printf("  IOTLB misses/packet:  %.2f\n", res.IOTLBMissesPerPacket)
	fmt.Printf("  host delay p50/p99:   %v / %v\n", res.HostDelayP50, res.HostDelayP99)

	// The same point with memory protection disabled: the NIC-to-CPU
	// path is no longer translation-limited.
	params.IOMMU = false
	off, err := core.RunOn(params, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  with IOMMU off:       %.1f Gbps, %.2f %% drops\n",
		off.AppThroughputGbps, off.DropRatePct)
	fmt.Printf("  IOMMU-induced loss:   %.1f Gbps\n",
		off.AppThroughputGbps-res.AppThroughputGbps)
}
