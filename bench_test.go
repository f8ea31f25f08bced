// Package hic_test is the benchmark harness that regenerates every table
// and figure of the paper (and the §4 extension ablations). Each
// benchmark runs its experiment sweep and reports the headline numbers
// as custom benchmark metrics; run with -v to also print the full table.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig3 -v          # includes the rendered table
//
// The sweeps use the Quick fidelity (shorter windows, fewer points) so a
// full -bench=. pass stays in benchmark-friendly territory; cmd/hicfigs
// runs the full-fidelity versions.
package hic_test

import (
	"fmt"
	"testing"

	"hic/internal/cluster"
	"hic/internal/core"
	"hic/internal/experiments"
	"hic/internal/sim"
)

var benchOpts = experiments.Options{Seed: 1, Quick: true}

// runExperiment executes one experiment per benchmark iteration and
// reports metrics extracted by report.
func runExperiment(b *testing.B, fn func(experiments.Options) (*experiments.Table, error),
	report func(*testing.B, *experiments.Table)) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := fn(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil {
		report(b, last)
		if testing.Verbose() {
			b.Log("\n" + last.Render())
		}
	}
}

// colValue pulls a float cell out of a table by column name.
func colValue(b *testing.B, t *experiments.Table, row int, col string) float64 {
	b.Helper()
	for i, c := range t.Columns {
		if c == col {
			var v float64
			if _, err := fmt.Sscan(t.Rows[row][i], &v); err != nil {
				b.Fatalf("cell %q: %v", t.Rows[row][i], err)
			}
			return v
		}
	}
	b.Fatalf("no column %q", col)
	return 0
}

// BenchmarkFig3IOMMUSweep regenerates Figure 3: throughput, drops, and
// IOTLB misses per packet vs receiver cores, IOMMU on vs off.
func BenchmarkFig3IOMMUSweep(b *testing.B) {
	runExperiment(b, experiments.Fig3, func(b *testing.B, t *experiments.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(colValue(b, t, last, "on_gbps"), "on-gbps")
		b.ReportMetric(colValue(b, t, last, "off_gbps"), "off-gbps")
		b.ReportMetric(colValue(b, t, last, "on_misses_per_pkt"), "misses/pkt")
	})
}

// BenchmarkFig4Hugepages regenerates Figure 4: the hugepage ablation.
func BenchmarkFig4Hugepages(b *testing.B) {
	runExperiment(b, experiments.Fig4, func(b *testing.B, t *experiments.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(colValue(b, t, last, "huge_gbps"), "huge-gbps")
		b.ReportMetric(colValue(b, t, last, "4k_gbps"), "4k-gbps")
	})
}

// BenchmarkFig5RxRegion regenerates Figure 5: the Rx memory-region sweep.
func BenchmarkFig5RxRegion(b *testing.B) {
	runExperiment(b, experiments.Fig5, func(b *testing.B, t *experiments.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(colValue(b, t, 0, "on_gbps"), "4MB-gbps")
		b.ReportMetric(colValue(b, t, last, "on_gbps"), "16MB-gbps")
	})
}

// BenchmarkFig6MemoryAntagonist regenerates Figure 6: the STREAM sweep.
func BenchmarkFig6MemoryAntagonist(b *testing.B) {
	runExperiment(b, experiments.Fig6, func(b *testing.B, t *experiments.Table) {
		last := len(t.Rows) - 1
		b.ReportMetric(colValue(b, t, 0, "on_gbps"), "idle-gbps")
		b.ReportMetric(colValue(b, t, last, "on_gbps"), "antag-gbps")
		b.ReportMetric(colValue(b, t, last, "on_membw_gbps"), "membw-GBps")
	})
}

// BenchmarkFig1Cluster regenerates Figure 1: the fleet scatter.
func BenchmarkFig1Cluster(b *testing.B) {
	var stats cluster.Stats
	for i := 0; i < b.N; i++ {
		points, err := cluster.Run(cluster.Config{
			Hosts: 32, Seed: 1,
			Warmup:  3 * sim.Millisecond,
			Measure: 5 * sim.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats = cluster.Summarize(points)
	}
	b.ReportMetric(stats.Pearson, "pearson")
	b.ReportMetric(float64(stats.DroppingHosts), "dropping-hosts")
	b.ReportMetric(float64(stats.LowUtilDropping), "lowutil-dropping")
}

// BenchmarkExtTargetDelay ablates Swift's host-delay target.
func BenchmarkExtTargetDelay(b *testing.B) {
	runExperiment(b, experiments.ExtTargetDelay, func(b *testing.B, t *experiments.Table) {
		b.ReportMetric(colValue(b, t, 0, "drop_pct"), "low-target-drop%")
		b.ReportMetric(colValue(b, t, len(t.Rows)-1, "drop_pct"), "high-target-drop%")
	})
}

// BenchmarkExtNICBuffer ablates the NIC input-buffer size.
func BenchmarkExtNICBuffer(b *testing.B) {
	runExperiment(b, experiments.ExtNICBuffer, func(b *testing.B, t *experiments.Table) {
		b.ReportMetric(colValue(b, t, 0, "drop_pct"), "small-buf-drop%")
		b.ReportMetric(colValue(b, t, len(t.Rows)-1, "drop_pct"), "big-buf-drop%")
	})
}

// BenchmarkExtATS ablates the ATS-style device TLB (§4(a)).
func BenchmarkExtATS(b *testing.B) {
	runExperiment(b, experiments.ExtATS, func(b *testing.B, t *experiments.Table) {
		b.ReportMetric(colValue(b, t, 0, "gbps"), "no-ats-gbps")
		b.ReportMetric(colValue(b, t, len(t.Rows)-1, "gbps"), "ats-gbps")
	})
}

// BenchmarkExtCXL ablates root-complex latency (§4(b)).
func BenchmarkExtCXL(b *testing.B) {
	runExperiment(b, experiments.ExtCXL, func(b *testing.B, t *experiments.Table) {
		b.ReportMetric(colValue(b, t, 0, "gbps"), "pcie-gbps")
		b.ReportMetric(colValue(b, t, len(t.Rows)-1, "gbps"), "cxl-gbps")
	})
}

// BenchmarkExtMBA ablates memory-bandwidth QoS for the NIC (§4(c)).
func BenchmarkExtMBA(b *testing.B) {
	runExperiment(b, experiments.ExtMBA, func(b *testing.B, t *experiments.Table) {
		b.ReportMetric(colValue(b, t, 0, "gbps"), "fcfs-gbps")
		b.ReportMetric(colValue(b, t, len(t.Rows)-1, "gbps"), "reserved-gbps")
	})
}

// BenchmarkExtSubRTT ablates the sub-RTT host congestion signal (§4).
func BenchmarkExtSubRTT(b *testing.B) {
	runExperiment(b, experiments.ExtSubRTT, func(b *testing.B, t *experiments.Table) {
		b.ReportMetric(colValue(b, t, 0, "drop_pct"), "swift-drop%")
		b.ReportMetric(colValue(b, t, 1, "drop_pct"), "subrtt-drop%")
	})
}

// BenchmarkExtCCCompare compares Swift with the TCP-like baselines.
func BenchmarkExtCCCompare(b *testing.B) {
	runExperiment(b, experiments.ExtCCCompare, func(b *testing.B, t *experiments.Table) {
		b.ReportMetric(colValue(b, t, 0, "gbps"), "swift-gbps")
		b.ReportMetric(colValue(b, t, 1, "gbps"), "dctcp-gbps")
	})
}

// BenchmarkSinglePoint measures raw simulator speed at the paper's
// baseline operating point (12 cores, IOMMU on). One op is one whole
// point built from scratch: testbed construction, 1 ms of warm-up and
// 4 ms of measurement.
func BenchmarkSinglePoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams(12)
		p.Warmup = sim.Millisecond
		p.Measure = 4 * sim.Millisecond
		if _, err := core.RunOn(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
