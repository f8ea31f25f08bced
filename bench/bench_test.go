package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics fails unless got holds exactly the named metrics, each
// with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func smallRun(t *testing.T, name string, seed uint64, trace bool) (result, string) {
	t.Helper()
	res, digest, err := run(config{
		workload: name, seed: seed, trace: trace, small: true,
		workDir: t.TempDir(), traceDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed", name, seed, res.Failed, res.Attempted)
	}
	return res, digest
}

// TestWorkloads runs every workload at smoke-test size: all end-to-end
// metrics are emitted with their units, no op fails (for serve_warm,
// every merged hash equals the in-process one), and the digest is a
// function of the seed.
func TestWorkloads(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, err := lookup(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, d1 := smallRun(t, w.name, 1, false)
			checkMetrics(t, res.Metrics, s.EndToEnd)
			if _, again := smallRun(t, w.name, 1, false); again != d1 {
				t.Errorf("seed 1 gave digests %s and %s", d1, again)
			}
			if _, d2 := smallRun(t, w.name, 2, false); d2 == d1 {
				t.Errorf("seeds 1 and 2 gave the same digest %s", d1)
			}
		})
	}
}

// TestTracedRun checks a traced run's per-layer metrics and that the
// CPU ledger's rows sum to 100.
func TestTracedRun(t *testing.T) {
	s := readSpec(t)
	traceDir := t.TempDir()
	res, _, err := run(config{workload: "des_point", seed: 1, trace: true, small: true, workDir: t.TempDir(), traceDir: traceDir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	checkMetrics(t, res.Metrics, s.PerLayer)
	var sum float64
	for name, m := range res.Metrics {
		if filepath.Ext(name) == ".cpu_pct" {
			sum += m.Value
		}
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("ledger rows sum to %.2f, want 100", sum)
	}
	for _, f := range []string{"des_point.layers.json", "des_point.cpu.pprof"} {
		if _, err := os.Stat(filepath.Join(traceDir, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Log2", "hic/internal/metrics.(*Histogram).Observe", "hic/internal/sim.(*Engine).Run"}, "metrics"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "hic/internal/nic.(*NIC).rx"}, "runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"hic/internal/transport/swift.(*Swift).OnAck", "hic/internal/transport.(*Conn).ack"}, "transport"},
		{[]string{"hic/internal/stats.(*Moments).Add", "hic/internal/host.(*Testbed).RunAdaptive"}, "host"},
		{[]string{"time.Now", "main.timedBackend.Load", "hic/internal/runcache.(*Store).Get"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
