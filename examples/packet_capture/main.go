// packet_capture taps the receiver NIC during a congested run, writes
// every arriving packet in the wire capture format, then reads the
// capture back and reports per-queue arrival statistics — the full
// capture → decode → analyze loop the wire package provides.
//
//	go run ./examples/packet_capture
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/sim"
	"hic/internal/wire"
)

func main() {
	p := core.DefaultParams(8)
	p.Senders = 16
	p.Warmup = 2 * sim.Millisecond
	p.Measure = 4 * sim.Millisecond

	var buf bytes.Buffer
	var cw *wire.Writer
	res, err := core.Simulate(p, nil, func(tb *host.Testbed, p core.Params) core.Results {
		cw = tb.EnableCapture(&buf)
		return tb.Run(p.Warmup, p.Measure)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("captured %d packets (%.1f MB) during a %.1f Gbps run\n",
		cw.Count(), float64(buf.Len())/1e6, res.AppThroughputGbps)

	// Decode the capture and aggregate per queue.
	perQueue := map[int]int{}
	var interarrival []sim.Duration
	var last sim.Time
	r := wire.NewReader(&buf)
	for {
		pk, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		perQueue[pk.Queue]++
		if last > 0 {
			interarrival = append(interarrival, pk.NICArrival.Sub(last))
		}
		last = pk.NICArrival
	}
	fmt.Println("\npackets per receive queue:")
	for q := 0; q < p.Threads; q++ {
		fmt.Printf("  queue %2d: %6d\n", q, perQueue[q])
	}
	var mean float64
	for _, d := range interarrival {
		mean += float64(d)
	}
	if len(interarrival) > 0 {
		mean /= float64(len(interarrival))
	}
	fmt.Printf("\nmean interarrival: %.0f ns (≈%.1f Gbps of 4452B wire packets)\n",
		mean, 4452*8/mean)
}
