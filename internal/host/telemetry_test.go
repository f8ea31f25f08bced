package host

import (
	"bytes"
	"encoding/json"
	"testing"

	"hic/internal/obs"
	"hic/internal/sim"
	"hic/internal/telemetry"
)

// instrumentedRun builds a testbed, enables spans, runs it, and returns
// both halves.
func instrumentedRun(t testing.TB, cfg Config, rate float64, warmup, measure sim.Duration) (*telemetry.Run, Results) {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := tb.EnableSpans(rate)
	res := tb.Run(warmup, measure)
	return run, res
}

func TestSpansEndToEnd(t *testing.T) {
	cfg := swiftConfig(4)
	cfg.Senders = 8
	run, res := instrumentedRun(t, cfg, 0.1, 2*sim.Millisecond, 5*sim.Millisecond)
	if res.Goodput == 0 {
		t.Fatal("no goodput")
	}
	spans := run.Tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans sampled at 10% on a saturating run")
	}
	finished := 0
	for _, sp := range spans {
		if sp.Finished() {
			finished++
		}
	}
	if finished == 0 {
		t.Fatal("no span reached delivery")
	}
}

// The stage-sum invariant must hold on spans produced by the real
// pipeline, not just hand-built ones: every finished span's stage
// durations sum exactly to its end − start, with no unattributed time.
func TestSpanStageSumOverRealRun(t *testing.T) {
	cfg := swiftConfig(6)
	cfg.Senders = 10
	run, _ := instrumentedRun(t, cfg, 0.2, 2*sim.Millisecond, 5*sim.Millisecond)
	checked := 0
	for _, sp := range run.Tracer.Spans() {
		if !sp.Finished() {
			continue
		}
		var sum sim.Duration
		for _, st := range sp.Stages {
			sum += st.Duration()
		}
		if sum != sp.End.Sub(sp.Start) {
			t.Fatalf("span %d: stages sum to %v, span covers %v", sp.ID, sum, sp.End.Sub(sp.Start))
		}
		// A delivered packet passed through every pipeline stage.
		seen := map[telemetry.Stage]bool{}
		for _, st := range sp.Stages {
			seen[st.Stage] = true
		}
		for _, stage := range telemetry.Stages() {
			if !seen[stage] {
				t.Fatalf("span %d missing stage %v", sp.ID, stage)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no finished spans to check")
	}
}

// Same seed + same rate ⇒ byte-identical telemetry artifacts. This is
// the property that makes traces diffable across code changes.
func TestTelemetryDeterminism(t *testing.T) {
	artifacts := func() ([]byte, []byte, []byte) {
		cfg := swiftConfig(4)
		cfg.Senders = 8
		cfg.AntagonistCores = 8
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := tb.EnableSpans(0.05)
		tb.Run(2*sim.Millisecond, 5*sim.Millisecond)

		var chrome, prom bytes.Buffer
		if err := telemetry.WriteChromeTrace(&chrome, run); err != nil {
			t.Fatal(err)
		}
		if err := obs.WritePrometheus(&prom, tb.Registry.Snapshot()); err != nil {
			t.Fatal(err)
		}
		summary, err := json.Marshal(run.Summary())
		if err != nil {
			t.Fatal(err)
		}
		return chrome.Bytes(), prom.Bytes(), summary
	}
	c1, p1, s1 := artifacts()
	c2, p2, s2 := artifacts()
	if !bytes.Equal(c1, c2) {
		t.Error("chrome traces differ across identical runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("prometheus dumps differ across identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("summaries differ across identical runs")
	}
}

// The fig6 scenario: memory-bus antagonists force NIC drops at low link
// utilization. The ledger must attribute the overwhelming share of those
// drops to the memory bus — that is the paper's §3.2 diagnosis, and the
// acceptance bar for the attribution heuristic.
func TestDropAttributionAntagonised(t *testing.T) {
	cfg := swiftConfig(12)
	cfg.AntagonistCores = 12
	// Zero warmup: the drops concentrate in the startup transient before
	// Swift backs off, and the ledger (live from EnableSpans) must agree
	// with the NIC's measure-window counter.
	run, res := instrumentedRun(t, cfg, 0.01, 0, 10*sim.Millisecond)
	if res.Drops == 0 {
		t.Fatal("antagonised run produced no drops; scenario lost its bite")
	}
	led := run.Drops
	if led.Total() != res.Drops {
		t.Errorf("ledger counted %d drops, NIC counted %d", led.Total(), res.Drops)
	}
	if share := led.Share(telemetry.CauseMemoryBus); share < 0.9 {
		t.Errorf("memory-bus share = %.1f%%, want ≥90%% (bus=%d walk=%d overload=%d)",
			share*100, led.Count(telemetry.CauseMemoryBus),
			led.Count(telemetry.CauseIOTLBWalk), led.Count(telemetry.CauseOverload))
	}
}

// Without the antagonist but with the IOMMU thrashing (high thread
// count), drops should NOT be blamed on the memory bus.
func TestDropAttributionIOTLBThrash(t *testing.T) {
	cfg := swiftConfig(16)
	run, res := instrumentedRun(t, cfg, 0.01, 5*sim.Millisecond, 10*sim.Millisecond)
	if res.Drops == 0 {
		t.Skip("no drops at this operating point")
	}
	led := run.Drops
	if share := led.Share(telemetry.CauseMemoryBus); share > 0.1 {
		t.Errorf("memory-bus share = %.1f%% on an uncontended bus, want ≤10%%", share*100)
	}
	if share := led.Share(telemetry.CauseIOTLBWalk); share < 0.5 {
		t.Errorf("iotlb-walk share = %.1f%%, want ≥50%% in the thrash regime (walk=%d overload=%d)",
			share*100, led.Count(telemetry.CauseIOTLBWalk), led.Count(telemetry.CauseOverload))
	}
}

// Observation must not perturb the simulation: the sampling rate only
// decides what gets recorded, never how the run evolves, because the
// tracer draws from its own forked RNG. A rate-0 and a rate-0.5 run
// must produce identical Results.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	cfg := swiftConfig(4)
	cfg.Senders = 8
	_, base := instrumentedRun(t, cfg, 0, 2*sim.Millisecond, 5*sim.Millisecond)
	run, sampled := instrumentedRun(t, cfg, 0.5, 2*sim.Millisecond, 5*sim.Millisecond)
	if len(run.Tracer.Spans()) == 0 {
		t.Fatal("rate 0.5 sampled nothing")
	}
	if base != sampled {
		t.Errorf("sampling rate changed the simulation:\nrate 0:   %+v\nrate 0.5: %+v", base, sampled)
	}
}
