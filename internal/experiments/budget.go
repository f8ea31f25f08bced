package experiments

import (
	"hic/internal/core"
	"hic/internal/host"
)

// ExtBudget decomposes the per-DMA latency into its stages — credit
// wait, link serialization, address translation, memory writes, root
// complex — across the paper's regimes. It is the empirical form of the
// §3.1 model: T_base is the translation-free sum, and the translation
// stage grows with M·T_miss as the IOTLB working set outgrows the cache
// (or the memory stage grows under antagonism, §3.2).
func ExtBudget(o Options) (*Table, error) {
	type scenario struct {
		name  string
		mut   func(*core.Params)
		quick bool // include in quick mode
	}
	scs := []scenario{
		{"8 cores (IOTLB fits)", func(p *core.Params) { p.Threads = 8 }, true},
		{"16 cores (IOTLB thrash)", func(p *core.Params) { p.Threads = 16 }, true},
		{"16 cores, 4K pages", func(p *core.Params) { p.Threads = 16; p.Hugepages = false }, false},
		{"12 cores, 12 antagonists", func(p *core.Params) { p.Threads = 12; p.AntagonistCores = 12 }, false},
	}
	if o.Quick {
		scs = scs[:2]
	}
	t := &Table{
		ID:    "ext-budget",
		Title: "Per-DMA latency budget by stage (mean ns)",
		Columns: []string{"scenario", "credit_wait", "link", "translate",
			"memory", "root_complex", "total", "gbps"},
	}
	for _, sc := range scs {
		p := o.params(12)
		sc.mut(&p)
		var tb *host.Testbed
		res, err := core.Simulate(p, nil, func(t *host.Testbed, p core.Params) core.Results {
			tb = t
			return tb.Run(p.Warmup, p.Measure)
		})
		if err != nil {
			return nil, err
		}
		mean := func(name string) float64 {
			return tb.Registry.Histogram(name).Mean()
		}
		wait := mean("nic.dma.stage.creditwait.ns")
		link := mean("nic.dma.stage.link.ns")
		xlate := mean("nic.dma.stage.translate.ns")
		memw := mean("nic.dma.stage.memory.ns")
		rc := mean("nic.dma.stage.rootcomplex.ns")
		t.Rows = append(t.Rows, []string{
			sc.name, f1(wait), f1(link), f1(xlate), f1(memw), f1(rc),
			f1(wait + link + xlate + memw + rc),
			f1(res.AppThroughputGbps),
		})
	}
	return t, nil
}
