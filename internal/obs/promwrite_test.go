package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hic/internal/metrics"
)

// snapshotRegistry holds one of each snapshot shape whose rendering can
// drift: a counter past 1e6 (where %g would switch to exponent form), a
// gauge whose max differs from its value, and a histogram with a
// non-integral sum.
func snapshotRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("app.goodput.bytes").Add(30121984)
	reg.Counter("nic.rx.drops").Add(42)
	g := reg.Gauge("nic.buffer.bytes")
	g.Set(4096)
	g.Set(1234)
	h := reg.Histogram("nic.host.delay.ns")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i)*1000 + 0.25)
	}
	return reg
}

// TestWritePrometheusGolden pins the one-shot snapshot export byte for
// byte: hicsim and hiccap -metrics-out files are this output.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snapshotRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot export differs from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
	if _, err := ParseProm(&buf); err != nil {
		t.Errorf("snapshot export does not parse: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snapshotRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hic_app_goodput_bytes counter\nhic_app_goodput_bytes 30121984\n",
		"# TYPE hic_nic_rx_drops counter\nhic_nic_rx_drops 42\n",
		"# TYPE hic_nic_buffer_bytes gauge\nhic_nic_buffer_bytes 1234\nhic_nic_buffer_bytes_max 4096\n",
		"# TYPE hic_nic_host_delay_ns summary\n",
		`hic_nic_host_delay_ns{quantile="0.5"}`,
		"hic_nic_host_delay_ns_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE"); n != 4 {
		t.Errorf("%d TYPE lines, want one per family (4):\n%s", n, out)
	}
}

func TestPromName(t *testing.T) {
	cases := []struct{ prefix, in, want string }{
		{"hic_", "nic.rx.drops", "hic_nic_rx_drops"},
		{"hic_", "pcie.credit.wait.ns", "hic_pcie_credit_wait_ns"},
		{"hic_", "weird-name/x", "hic_weird_name_x"},
		{"hic_", "Mixed_Case.09", "hic_Mixed_Case_09"},
		{"hic_", "µs.latency", "hic__s_latency"}, // one rune, one underscore
		{"hic_", "bad\xffbyte", "hic_bad_byte"},  // one invalid byte, one underscore
		{"hic_fleet_", "nic.rx.queue", "hic_fleet_nic_rx_queue"},
	}
	for _, c := range cases {
		if got := promName(c.prefix, c.in); got != c.want {
			t.Errorf("promName(%q, %q) = %q, want %q", c.prefix, c.in, got, c.want)
		}
	}
}

// TestPromWriterGroupsFamilies: sources may interleave families (one
// worker's series after another's); the page still keeps each family's
// lines together under its one TYPE line, in first-appearance order.
func TestPromWriterGroupsFamilies(t *testing.T) {
	p := &promWriter{}
	sample(p, `hic_worker_stale{worker="w1"}`, "gauge", 0.0)
	sample(p, `hic_worker_done_total{worker="w1"}`, "counter", uint64(3))
	sample(p, `hic_worker_stale{worker="w2"}`, "gauge", 1.0)
	sample(p, `hic_worker_done_total{worker="w2"}`, "counter", uint64(4000000))
	var buf bytes.Buffer
	if err := p.flush(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE hic_worker_stale gauge
hic_worker_stale{worker="w1"} 0
hic_worker_stale{worker="w2"} 1
# TYPE hic_worker_done_total counter
hic_worker_done_total{worker="w1"} 3
hic_worker_done_total{worker="w2"} 4000000
`
	if got := buf.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}
