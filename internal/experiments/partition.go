package experiments

import (
	"fmt"

	"hic/internal/core"
	"hic/internal/host"
)

// ExtPartition compares the paper's shared NIC SRAM against per-queue
// buffer partitioning under an asymmetric workload: eleven queues of
// saturating aggressors push the host into the congestion-control blind
// zone while the twelfth queue hosts a well-behaved, app-limited victim.
// With the shared buffer the aggressors' overflow drops the victim's
// packets too (the isolation violation the paper's drop-rate proxy
// captures); partitioned, the victim's own slice never fills.
func ExtPartition(o Options) (*Table, error) {
	type scenario struct {
		name      string
		partition bool
	}
	scs := []scenario{
		{"shared buffer (paper's NIC)", false},
		{"per-queue buffers", true},
	}
	const threads = 12
	t := &Table{
		ID:    "ext-partition",
		Title: "Shared vs partitioned NIC buffer: aggressors and a victim tenant",
		Columns: []string{"scenario", "gbps", "aggressor_drop_pct",
			"victim_drop_pct", "victim_gbps"},
	}
	for _, sc := range scs {
		p := o.params(threads)
		p.VictimConnGbps = 0.02 // 40 victim connections ≈ 0.8 Gbps total
		p.PerQueueNICBuffers = sc.partition
		var tb *host.Testbed
		res, err := core.Simulate(p, nil, func(t *host.Testbed, p core.Params) core.Results {
			tb = t
			return tb.Run(p.Warmup, p.Measure)
		})
		if err != nil {
			return nil, err
		}

		// Decompose drops and goodput into aggressors and the victim.
		dropsByFlow := tb.NIC.DropsByFlow()
		goodByFlow := tb.Receiver.GoodputByFlow()
		victimQ := threads - 1
		var aggDrops, vicDrops, aggPkts, vicPkts, vicBytes uint64
		for _, c := range tb.Conns {
			flow := c.Flow()
			q := int(flow & 0xffff)
			drops := dropsByFlow[flow]
			pkts := goodByFlow[flow] / 4096
			if q == victimQ {
				vicDrops += drops
				vicPkts += pkts
				vicBytes += goodByFlow[flow]
			} else {
				aggDrops += drops
				aggPkts += pkts
			}
		}
		pct := func(drops, delivered uint64) float64 {
			if drops+delivered == 0 {
				return 0
			}
			return float64(drops) / float64(drops+delivered) * 100
		}
		vicGbps := float64(vicBytes) * 8 / (p.Warmup + p.Measure).Seconds() / 1e9
		t.Rows = append(t.Rows, []string{
			sc.name, f1(res.AppThroughputGbps),
			f2(pct(aggDrops, aggPkts)), f2(pct(vicDrops, vicPkts)),
			fmt.Sprintf("%.2f", vicGbps),
		})
	}
	return t, nil
}
