package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseline builds a fully populated report with healthy numbers.
func baseline() report {
	var r report
	r.Engine.New = benchResult{NsPerOp: 140, AllocsPerOp: 0, BytesPerOp: 0}
	r.PacketPath.Pooled = benchResult{NsPerOp: 24, AllocsPerOp: 0, BytesPerOp: 0}
	r.Fig6.EventsPerSec = 40e6
	r.Fig6.Events = 469758
	r.Fig6.AppGbps = 68.665344
	r.Observatory.SamplerOnEventsPerSec = 38e6
	r.Fleet.Hosts = 10000
	r.Fleet.HostsPerSec = 90
	r.Fleet.PeakMemBytes = 200 << 20
	r.Fidelity.Hosts = 10000
	r.Fidelity.HostsPerSec = 95
	r.Serve = serveBench{
		Hosts:             400,
		SingleHash:        "aaaa",
		ColdHash:          "aaaa",
		WarmHash:          "aaaa",
		HashMatch:         true,
		SingleHostsPerSec: 17,
		ColdHostsPerSec:   16.8,
		WarmHostsPerSec:   6000,
		ScalingRatio:      0.99,
		WarmSpeedup:       350,
		Workers:           2,
		Ranges:            16,
	}
	return r
}

func TestCompareSelfIsClean(t *testing.T) {
	c := compareReports(baseline(), baseline(), 0.25)
	if len(c.fails) != 0 {
		t.Errorf("self-compare failed: %v", c.fails)
	}
}

func TestCompareNoiseTolerance(t *testing.T) {
	old := baseline()
	// Within tolerance: slower but under 25%.
	within := baseline()
	within.Engine.New.NsPerOp = 140 * 1.2
	within.Fig6.EventsPerSec = 40e6 * 0.8
	if c := compareReports(old, within, 0.25); len(c.fails) != 0 {
		t.Errorf("within-tolerance drift failed: %v", c.fails)
	}
	// Improvements never fail, however large.
	faster := baseline()
	faster.Engine.New.NsPerOp = 10
	faster.Fig6.EventsPerSec = 400e6
	faster.Fleet.HostsPerSec = 900
	if c := compareReports(old, faster, 0.25); len(c.fails) != 0 {
		t.Errorf("improvement failed: %v", c.fails)
	}
}

func TestCompareCatchesRegressions(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*report)
		mention string
	}{
		{"slower engine", func(r *report) { r.Engine.New.NsPerOp *= 2 }, "engine.new.ns_per_op"},
		{"slower packet path", func(r *report) { r.PacketPath.Pooled.NsPerOp *= 2 }, "packet_path.pooled.ns_per_op"},
		{"fig6 throughput drop", func(r *report) { r.Fig6.EventsPerSec /= 2 }, "fig6_scenario.events_per_sec"},
		{"observatory overhead growth", func(r *report) { r.Observatory.SamplerOnEventsPerSec /= 2 }, "observatory.sampler_on_events_per_sec"},
		{"fleet throughput drop", func(r *report) { r.Fleet.HostsPerSec /= 2 }, "fleet.hosts_per_sec"},
		{"fleet memory growth", func(r *report) { r.Fleet.PeakMemBytes *= 2 }, "fleet.peak_mem_bytes"},
		{"fidelity throughput drop", func(r *report) { r.Fidelity.HostsPerSec /= 2 }, "fidelity.hosts_per_sec"},
		{"serve cold throughput drop", func(r *report) { r.Serve.ColdHostsPerSec /= 2 }, "serve.cold_hosts_per_sec"},
		{"serve scaling collapse", func(r *report) { r.Serve.ScalingRatio /= 2 }, "serve.scaling_ratio"},
		{"serve warm speedup loss", func(r *report) { r.Serve.WarmSpeedup /= 2 }, "serve.warm_speedup"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			degraded := baseline()
			c.mutate(&degraded)
			res := compareReports(baseline(), degraded, 0.25)
			if len(res.fails) != 1 {
				t.Fatalf("fails = %v, want exactly one", res.fails)
			}
			if !strings.Contains(res.fails[0], c.mention) {
				t.Errorf("failure %q does not mention %s", res.fails[0], c.mention)
			}
		})
	}
}

// TestCompareFig6WorkIsExact: the fig6 point's event count and
// throughput are simulated-work counts, so any difference fails at any
// tolerance, and a report without the section is skipped, not failed.
func TestCompareFig6WorkIsExact(t *testing.T) {
	for name, mutate := range map[string]func(*report){
		"one more event": func(r *report) { r.Fig6.Events++ },
		"throughput":     func(r *report) { r.Fig6.AppGbps += 1e-6 },
	} {
		changed := baseline()
		mutate(&changed)
		res := compareReports(baseline(), changed, 100.0)
		if len(res.fails) != 1 || !strings.Contains(res.fails[0], "fig6_scenario work changed") {
			t.Errorf("%s: fails = %v, want the fig6 work change", name, res.fails)
		}
	}
	absent := baseline()
	absent.Fig6 = fig6Scenario{}
	if res := compareReports(baseline(), absent, 0.25); len(res.fails) != 0 {
		t.Errorf("report without fig6 section failed: %v", res.fails)
	}
}

func TestCompareAllocationsAreExact(t *testing.T) {
	// One allocation per op on a zero-alloc path fails at any tolerance.
	degraded := baseline()
	degraded.Engine.New.AllocsPerOp = 1
	degraded.Engine.New.BytesPerOp = 48
	res := compareReports(baseline(), degraded, 100.0)
	if len(res.fails) != 2 {
		t.Fatalf("fails = %v, want allocs and bytes", res.fails)
	}
	for _, f := range res.fails {
		if !strings.Contains(f, "exact-class") {
			t.Errorf("failure %q not marked exact-class", f)
		}
	}
}

func TestCompareAuditOverTolFailsUnconditionally(t *testing.T) {
	degraded := baseline()
	degraded.Fidelity.AuditOverTol = 3
	degraded.Fidelity.AuditMaxErr = 0.09
	degraded.Fidelity.Tol = 0.05
	res := compareReports(baseline(), degraded, 100.0)
	if len(res.fails) != 1 || !strings.Contains(res.fails[0], "audit_over_tol") {
		t.Errorf("fails = %v, want the accuracy violation", res.fails)
	}
}

// TestCompareServeContractsFailUnconditionally: the two serving-layer
// correctness contracts — merged-aggregate byte-identity and warm-query
// residency — fail at any tolerance and any scale.
func TestCompareServeContractsFailUnconditionally(t *testing.T) {
	hashBroken := baseline()
	hashBroken.Serve.Hosts = 37 // scale mismatch must not save it
	hashBroken.Serve.WarmHash = "bbbb"
	hashBroken.Serve.HashMatch = false
	res := compareReports(baseline(), hashBroken, 100.0)
	if len(res.fails) != 1 || !strings.Contains(res.fails[0], "serve.hash_match") {
		t.Errorf("fails = %v, want the hash-identity violation", res.fails)
	}

	notResident := baseline()
	notResident.Serve.WarmAnchorRuns = 12
	res = compareReports(baseline(), notResident, 100.0)
	if len(res.fails) != 1 || !strings.Contains(res.fails[0], "serve.warm_anchor_runs") {
		t.Errorf("fails = %v, want the residency violation", res.fails)
	}
}

func TestCompareSkipsMismatchedScales(t *testing.T) {
	// A 400-host smoke bench against the 10k-host baseline: fleet and
	// fidelity rate sections skip with a note instead of failing.
	smoke := baseline()
	smoke.Fleet.Hosts = 400
	smoke.Fleet.HostsPerSec = 2 // wildly different; must not matter
	smoke.Fidelity.Hosts = 400
	smoke.Fidelity.HostsPerSec = 3
	res := compareReports(baseline(), smoke, 0.25)
	if len(res.fails) != 0 {
		t.Errorf("mismatched-scale compare failed: %v", res.fails)
	}
	notes := strings.Join(res.notes, "\n")
	if !strings.Contains(notes, "host counts differ") {
		t.Errorf("notes = %v, want a host-count skip note", res.notes)
	}
}

func TestCompareSkipsAbsentSections(t *testing.T) {
	// -fleet-hosts 0 leaves whole sections zeroed; they skip, the
	// benches that did run still gate.
	partial := baseline()
	partial.Fleet = fleetBench{}
	partial.Fidelity = fidelityBench{}
	partial.Engine.New.NsPerOp *= 3
	res := compareReports(baseline(), partial, 0.25)
	if len(res.fails) != 1 || !strings.Contains(res.fails[0], "engine.new.ns_per_op") {
		t.Errorf("fails = %v, want only the engine regression", res.fails)
	}
}

// TestCompareMetricNewInReport: a metric absent from the baseline but
// present in the new report (a section this tool grew after the
// baseline was committed) skips as "skipped (new)" instead of failing
// or reading like a mysterious absence.
func TestCompareMetricNewInReport(t *testing.T) {
	old := baseline()
	old.Observatory = observatoryBench{} // baseline predates the section
	res := compareReports(old, baseline(), 0.25)
	if len(res.fails) != 0 {
		t.Errorf("new-metric compare failed: %v", res.fails)
	}
	notes := strings.Join(res.notes, "\n")
	if !strings.Contains(notes, "observatory.sampler_on_events_per_sec: skipped (new)") ||
		!strings.Contains(notes, "absent from baseline") {
		t.Errorf("notes = %v, want a skipped-(new) note for the observatory metric", res.notes)
	}

	// And the mirror case: present in baseline, absent from new.
	missing := baseline()
	missing.Observatory = observatoryBench{}
	res = compareReports(baseline(), missing, 0.25)
	if len(res.fails) != 0 {
		t.Errorf("absent-new compare failed: %v", res.fails)
	}
	if !strings.Contains(strings.Join(res.notes, "\n"), "absent from new report") {
		t.Errorf("notes = %v, want an absent-from-new note", res.notes)
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", baseline())
	good := write("good.json", baseline())
	bad := baseline()
	bad.Engine.New.AllocsPerOp = 2
	badPath := write("bad.json", bad)

	if code := runCompare(old, good, 0.25); code != 0 {
		t.Errorf("self compare exit = %d, want 0", code)
	}
	if code := runCompare(old, badPath, 0.25); code == 0 {
		t.Error("degraded compare exit = 0, want nonzero")
	}
	if code := runCompare(filepath.Join(dir, "missing.json"), good, 0.25); code == 0 {
		t.Error("missing baseline exit = 0, want nonzero")
	}
}

// TestCommittedBaselineParses keeps the checked-in baseline loadable:
// the make-check gate does a real compare against it on every run.
func TestCommittedBaselineParses(t *testing.T) {
	rep, err := readReport(filepath.Join("..", "..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine.New.NsPerOp <= 0 || rep.Fleet.Hosts <= 0 {
		t.Errorf("baseline looks empty: engine %.1f ns, fleet %d hosts",
			rep.Engine.New.NsPerOp, rep.Fleet.Hosts)
	}
	if rep.Engine.New.AllocsPerOp != 0 || rep.PacketPath.Pooled.AllocsPerOp != 0 {
		t.Errorf("baseline hot paths not allocation-free: %d / %d allocs",
			rep.Engine.New.AllocsPerOp, rep.PacketPath.Pooled.AllocsPerOp)
	}
	if c := compareReports(rep, rep, 0.25); len(c.fails) != 0 {
		t.Errorf("baseline self-compare failed: %v", c.fails)
	}
}
