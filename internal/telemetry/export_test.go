package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hic/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun builds a small fixed run: two spans (one finished, one cut
// off mid-pipeline) and two classified drops.
func goldenRun() *Run {
	tr := NewTracer(sim.NewRNG(7), 1)

	sp := tr.MaybeStart(0xabc, 0x10002, 2, 5, 1000,
		Attr{Key: "buffer_bytes", Value: 4096})
	sp.Advance(StageNICBuffer, 3000)
	sp.Advance(StageCreditWait, 3500, Attr{Key: "credits_free", Value: 8192})
	sp.Advance(StageLink, 3800)
	sp.Advance(StageTranslate, 4100, Attr{Key: "misses", Value: 1})
	sp.Advance(StageMemory, 4600, Attr{Key: "load_factor", Value: 1.1})
	sp.Advance(StageRootComplex, 5800, Attr{Key: "credit_hold_ns", Value: 2300})
	sp.Advance(StageCPUQueue, 6000, Attr{Key: "core", Value: 2})
	sp.Advance(StageCPUProcess, 8857)
	sp.Finish(8857)

	sp2 := tr.MaybeStart(0xdef, 0x20000, 0, 9, 2000)
	sp2.Advance(StageNICBuffer, 2500)
	sp2.Advance(StageCreditWait, 2600)
	// left unfinished: the run ended mid-pipeline

	ctxs := []DropContext{
		{MemLoadFactor: 1.8, MemQueueDelay: 700, BufferBytes: 1 << 20},
		{IOTLBMissRate: 0.6, BufferBytes: 1 << 20},
	}
	i := 0
	led := NewDropLedger(func() DropContext { c := ctxs[i]; i++; return c })
	led.Record(4200, 0x30001, 1)
	led.Record(7000, 0x30002, 2)

	return &Run{Tracer: tr, Drops: led}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenRun()); err != nil {
		t.Fatal(err)
	}

	// Always a structural check: the output must parse as JSON with the
	// trace_event envelope.
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || len(doc.TraceEvents) == 0 {
		t.Fatalf("bad envelope: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from golden file (run with -update to regenerate)\ngot:\n%s", buf.String())
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, goldenRun()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, goldenRun()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same run differ")
	}
}

func TestStageBreakdown(t *testing.T) {
	run := goldenRun()
	stats := StageBreakdown(run.Tracer.Spans())
	if len(stats) == 0 {
		t.Fatal("no stage stats")
	}
	byName := map[string]StageStats{}
	var share float64
	for _, s := range stats {
		byName[s.Stage] = s
		share += s.SharePct
	}
	if share < 99.9 || share > 100.1 {
		t.Errorf("shares sum to %.2f%%, want 100%%", share)
	}
	// Two spans contribute nic_buffer; only the finished one reaches the CPU.
	if byName["nic_buffer"].Count != 2 {
		t.Errorf("nic_buffer count=%d, want 2", byName["nic_buffer"].Count)
	}
	if byName["cpu_process"].Count != 1 {
		t.Errorf("cpu_process count=%d, want 1", byName["cpu_process"].Count)
	}
	// Span 1's nic_buffer wait is 2000 ns; span 2's is 500 ns.
	if got := byName["nic_buffer"].MeanNs; got != 1250 {
		t.Errorf("nic_buffer mean=%v ns, want 1250", got)
	}

	tab := BreakdownTable(run.Tracer.Spans())
	for _, want := range []string{"stage", "nic_buffer", "share"} {
		if !strings.Contains(tab, want) {
			t.Errorf("breakdown table missing %q:\n%s", want, tab)
		}
	}
	if got := BreakdownTable(nil); got != "no sampled spans\n" {
		t.Errorf("empty table = %q", got)
	}
}

func TestRunSummary(t *testing.T) {
	run := goldenRun()
	s := run.Summary()
	if s.SampleRate != 1 || s.Arrived != 2 || s.Spans != 2 {
		t.Errorf("summary header = rate %v arrived %d spans %d", s.SampleRate, s.Arrived, s.Spans)
	}
	if s.Drops.Total != 2 || s.Drops.MemoryBus != 1 || s.Drops.IOTLBWalk != 1 {
		t.Errorf("drop summary = %+v", s.Drops)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("summary not JSON-encodable: %v", err)
	}
}

func TestWriteCaptureTrace(t *testing.T) {
	evs := []CaptureEvent{
		{Name: "data", Queue: 0, Start: 1000, End: 6000, Args: map[string]any{"seq": 1.0}},
		{Name: "data", Queue: 1, Start: 2000, End: 7500},
	}
	var buf bytes.Buffer
	if err := WriteCaptureTrace(&buf, "test capture", evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 1 process metadata + 2 thread metadata + 2 slices.
	if len(doc.TraceEvents) != 5 {
		t.Errorf("got %d events, want 5", len(doc.TraceEvents))
	}
}
