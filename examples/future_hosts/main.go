// future_hosts exercises the §4 "looking forward" directions as runnable
// ablations: ATS-style device translation, CXL-like link latency,
// MBA-style memory QoS for the NIC, and a sub-RTT host congestion
// signal.
//
//	go run ./examples/future_hosts
package main

import (
	"fmt"
	"log"

	"hic/internal/core"
	"hic/internal/sim"
)

func run(name string, p core.Params) {
	p.Warmup, p.Measure = 10*sim.Millisecond, 15*sim.Millisecond
	res, err := core.RunOn(p, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s  %6.1f Gbps  %6.2f %% drops  p99 %v\n",
		name, res.AppThroughputGbps, res.DropRatePct, res.HostDelayP99)
}

func main() {
	fmt.Println("rethinking hosts, signals, and responses (§4)")
	fmt.Println()

	fmt.Println("— host architecture: ATS-style device TLB (16 cores) —")
	base16 := core.DefaultParams(16)
	run("IOMMU, 128-entry IOTLB", base16)
	ats := base16
	ats.DeviceTLBEntries = 1024
	run("+ 1024-entry device TLB (ATS)", ats)

	fmt.Println()
	fmt.Println("— host architecture: CXL-like link latency (16 cores) —")
	cxl := base16
	cxl.LinkLatencyScale = 0.5
	run("root-complex latency halved (CXL)", cxl)

	fmt.Println()
	fmt.Println("— memory QoS: MBA-style NIC reservation (12 cores, 12 antagonists) —")
	noisy := core.DefaultParams(12)
	noisy.AntagonistCores = 12
	run("FCFS memory bus", noisy)
	mba := noisy
	mba.MemoryIOReservedShare = 0.15
	run("+ 15% reserved for the NIC (MBA)", mba)

	fmt.Println()
	fmt.Println("— congestion response: sub-RTT host signal (12 cores) —")
	blind := core.DefaultParams(12)
	run("Swift, 100µs host target", blind)
	subrtt := blind
	subrtt.SubRTTHostECN = true
	run("+ sub-RTT host ECN", subrtt)
}
