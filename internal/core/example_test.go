package core_test

import (
	"fmt"
	"log"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/sim"
	"hic/internal/trace"
)

// Example reproduces one point of Figure 3 — the paper's baseline at 12
// receiver cores with the IOMMU enabled — through the public API. (No
// Output comment: simulation wall time makes this compile-checked
// documentation rather than a golden test.)
func Example() {
	p := core.DefaultParams(12)
	res, err := core.RunOn(p, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput %.1f Gbps, drops %.2f%%, %.2f IOTLB misses/packet\n",
		res.AppThroughputGbps, res.DropRatePct, res.IOTLBMissesPerPacket)
}

// ExampleRunEach sweeps Figure 6's antagonist axis in parallel on the
// shared worker pool (nil executor: pure DES; nil cache: batch-local
// dedup only), collecting the in-order stream into a slice.
func ExampleRunEach() {
	var ps []core.Params
	for _, antag := range []int{0, 8, 15} {
		p := core.DefaultParams(12)
		p.AntagonistCores = antag
		ps = append(ps, p)
	}
	rs := make([]core.Results, len(ps))
	err := core.RunEach(nil, ps, nil, func(i int, r core.Results) error {
		rs[i] = r
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range rs {
		fmt.Printf("antagonists=%d: %.1f Gbps\n", ps[i].AntagonistCores, r.AppThroughputGbps)
	}
}

// ExampleSimulate instruments the testbed from a drive func for
// time-series work.
func ExampleSimulate() {
	p := core.DefaultParams(8)
	var rec *trace.Recorder
	_, err := core.Simulate(p, nil, func(tb *host.Testbed, p core.Params) core.Results {
		rec = tb.EnableTrace(100 * sim.Microsecond)
		return tb.Run(p.Warmup, p.Measure)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d samples across %d series\n", rec.Len(), len(rec.Names()))
}
