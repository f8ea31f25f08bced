package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The bench-regression gate: `hicbench -compare old.json new.json`
// re-reads two reports this tool wrote and classifies every comparable
// metric as OK, REGRESSED, or SKIPPED. Metrics come in two classes:
//
//   - exact: allocation counts on the allocation-free hot paths
//     (engine.new, packet_path.pooled). The committed baseline is zero
//     allocations; ANY increase fails, no tolerance — a single alloc
//     per op is the regression the zero-alloc work exists to prevent.
//     The fig6 point's event count and throughput are exact too: they
//     count simulated work, which no machine changes, so ANY difference
//     fails.
//   - noisy: wall-clock and rate metrics (ns/op, events/sec,
//     hosts/sec, peak memory). These move with machine load, so a
//     degradation only fails beyond the relative tolerance
//     (-compare-tol, default 0.25). Improvements never fail.
//
// Sections that did not run in either report (zero values), or whose
// configurations differ (fleet/fidelity host counts), are skipped with
// a note instead of producing false alarms — a smoke bench at 400
// hosts can be gated against the committed 10k-host baseline. An
// audit-over-tolerance count in the new report fails unconditionally:
// that is an accuracy violation, not noise.

// cmpResult accumulates one comparison run's outcome.
type cmpResult struct {
	fails []string
	notes []string
}

func (c *cmpResult) failf(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

func (c *cmpResult) notef(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// skipNote distinguishes the three "section didn't run" cases so a
// metric newly added to this tool reads as "skipped (new)" against an
// older committed baseline rather than as a mysterious absence.
func (c *cmpResult) skipNote(name string, old, new float64) bool {
	switch {
	case old <= 0 && new > 0:
		c.notef("skip %s: skipped (new) — absent from baseline", name)
	case old > 0 && new <= 0:
		c.notef("skip %s: absent from new report", name)
	case old <= 0 && new <= 0:
		c.notef("skip %s: not present in either report", name)
	default:
		return false
	}
	return true
}

// lowerBetter checks a noisy metric where smaller is better (ns/op,
// bytes of peak memory). Zero on either side means the section didn't
// run — skip.
func (c *cmpResult) lowerBetter(name string, old, new float64, tol float64) {
	if c.skipNote(name, old, new) {
		return
	}
	if new > old*(1+tol) {
		c.failf("%s regressed: %.4g -> %.4g (+%.1f%%, tol %.0f%%)",
			name, old, new, 100*(new/old-1), 100*tol)
	}
}

// higherBetter checks a noisy metric where larger is better
// (events/sec, hosts/sec, speedup ratios).
func (c *cmpResult) higherBetter(name string, old, new float64, tol float64) {
	if c.skipNote(name, old, new) {
		return
	}
	if new < old*(1-tol) {
		c.failf("%s regressed: %.4g -> %.4g (-%.1f%%, tol %.0f%%)",
			name, old, new, 100*(1-new/old), 100*tol)
	}
}

// sameMode reports whether two sections ran under comparable execution
// modes. Reports written before the mode fields existed carry empty
// strings — those stay comparable (the host-count match already gates
// scale); only an explicit disagreement skips.
func (c *cmpResult) sameMode(section, oldMode, oldWarm, newMode, newWarm string) bool {
	if oldMode != "" && newMode != "" && oldMode != newMode {
		c.notef("skip %s: fidelity modes differ (%s vs %s)", section, oldMode, newMode)
		return false
	}
	if oldWarm != "" && newWarm != "" && oldWarm != newWarm {
		c.notef("skip %s: warm-start modes differ (%s vs %s)", section, oldWarm, newWarm)
		return false
	}
	return true
}

// exactMax checks an exact-class metric: the new value may never
// exceed the old. Used for allocs/bytes per op on the zero-alloc hot
// paths, where the baseline is 0 and any increase is a real leak.
func (c *cmpResult) exactMax(name string, old, new int64) {
	if new > old {
		c.failf("%s increased: %d -> %d (exact-class metric, no tolerance)", name, old, new)
	}
}

// nearExactMax gates an allocation metric whose per-op value is
// deterministic in steady state but carries parts-per-million noise
// from pool and map warm-up amortization (testing.Benchmark divides
// one-time growth by whatever N it settles on, and N depends on what
// ran earlier in the process). The 0.1% slack absorbs exactly that
// noise floor: a genuine leak on a path running hundreds of thousands
// of allocations per op adds whole percents and still fails hard.
func (c *cmpResult) nearExactMax(name string, old, new int64) {
	if new > old+old/1000 {
		c.failf("%s increased: %d -> %d (near-exact metric, 0.1%% noise floor)", name, old, new)
	}
}

// compareReports applies the full rule set.
func compareReports(oldRep, newRep report, tol float64) cmpResult {
	var c cmpResult

	// Engine hot path: timing is noisy, allocations are exact.
	c.lowerBetter("engine.new.ns_per_op", oldRep.Engine.New.NsPerOp, newRep.Engine.New.NsPerOp, tol)
	if oldRep.Engine.New.NsPerOp > 0 && newRep.Engine.New.NsPerOp > 0 {
		c.exactMax("engine.new.allocs_per_op", oldRep.Engine.New.AllocsPerOp, newRep.Engine.New.AllocsPerOp)
		c.exactMax("engine.new.bytes_per_op", oldRep.Engine.New.BytesPerOp, newRep.Engine.New.BytesPerOp)
	}

	c.lowerBetter("packet_path.pooled.ns_per_op", oldRep.PacketPath.Pooled.NsPerOp, newRep.PacketPath.Pooled.NsPerOp, tol)
	if oldRep.PacketPath.Pooled.NsPerOp > 0 && newRep.PacketPath.Pooled.NsPerOp > 0 {
		c.exactMax("packet_path.pooled.allocs_per_op", oldRep.PacketPath.Pooled.AllocsPerOp, newRep.PacketPath.Pooled.AllocsPerOp)
		c.exactMax("packet_path.pooled.bytes_per_op", oldRep.PacketPath.Pooled.BytesPerOp, newRep.PacketPath.Pooled.BytesPerOp)
	}

	// Whole-simulator throughput on the fig6 point.
	c.higherBetter("fig6_scenario.events_per_sec", oldRep.Fig6.EventsPerSec, newRep.Fig6.EventsPerSec, tol)
	// The fig6 point's simulated work does not depend on the machine:
	// its event count and throughput are exact, so any difference means
	// the simulator's behaviour changed.
	if !c.skipNote("fig6_scenario.events", float64(oldRep.Fig6.Events), float64(newRep.Fig6.Events)) {
		if oldRep.Fig6.Events != newRep.Fig6.Events || oldRep.Fig6.AppGbps != newRep.Fig6.AppGbps {
			c.failf("fig6_scenario work changed: %d events at %v Gbps -> %d events at %v Gbps (exact, host-independent)",
				oldRep.Fig6.Events, oldRep.Fig6.AppGbps, newRep.Fig6.Events, newRep.Fig6.AppGbps)
		}
	}

	// Observatory overhead: the sampler-on fig6 run must not slow down
	// beyond tolerance (a baseline predating the observatory section
	// reads as "skipped (new)").
	c.higherBetter("observatory.sampler_on_events_per_sec",
		oldRep.Observatory.SamplerOnEventsPerSec, newRep.Observatory.SamplerOnEventsPerSec, tol)

	// Fleet sections compare only at matching scale: hosts/sec is not
	// size-independent (dedup rate and cache behavior shift), so a smoke
	// bench at a different size gates only the sections above.
	if oldRep.Fleet.Hosts > 0 && newRep.Fleet.Hosts > 0 {
		if oldRep.Fleet.Hosts == newRep.Fleet.Hosts {
			if c.sameMode("fleet", oldRep.Fleet.FidelityMode, oldRep.Fleet.Warm,
				newRep.Fleet.FidelityMode, newRep.Fleet.Warm) {
				c.higherBetter("fleet.hosts_per_sec", oldRep.Fleet.HostsPerSec, newRep.Fleet.HostsPerSec, tol)
				c.lowerBetter("fleet.peak_mem_bytes", float64(oldRep.Fleet.PeakMemBytes), float64(newRep.Fleet.PeakMemBytes), tol)
			}
		} else {
			c.notef("skip fleet: host counts differ (%d vs %d)", oldRep.Fleet.Hosts, newRep.Fleet.Hosts)
		}
	} else {
		c.skipNote("fleet", float64(oldRep.Fleet.Hosts), float64(newRep.Fleet.Hosts))
	}

	if oldRep.Fidelity.Hosts > 0 && newRep.Fidelity.Hosts > 0 {
		if oldRep.Fidelity.Hosts == newRep.Fidelity.Hosts {
			if c.sameMode("fidelity rates", oldRep.Fidelity.FidelityMode, oldRep.Fidelity.Warm,
				newRep.Fidelity.FidelityMode, newRep.Fidelity.Warm) {
				c.higherBetter("fidelity.hosts_per_sec", oldRep.Fidelity.HostsPerSec, newRep.Fidelity.HostsPerSec, tol)
			}
		} else {
			c.notef("skip fidelity rates: host counts differ (%d vs %d)", oldRep.Fidelity.Hosts, newRep.Fidelity.Hosts)
		}
	} else {
		c.skipNote("fidelity rates", float64(oldRep.Fidelity.Hosts), float64(newRep.Fidelity.Hosts))
	}

	// Cold path: the cold rate is noisy-class at matching scale. The
	// correctness contracts are unconditional: an audited point over
	// tolerance is an accuracy violation, and a sharded hash mismatch
	// means calibration depended on which worker touched a signature
	// first.
	if oldRep.ColdPath.Hosts > 0 && newRep.ColdPath.Hosts > 0 {
		if oldRep.ColdPath.Hosts == newRep.ColdPath.Hosts {
			if c.sameMode("cold_path rates", oldRep.ColdPath.FidelityMode, "",
				newRep.ColdPath.FidelityMode, "") {
				c.higherBetter("cold_path.cold_hosts_per_sec", oldRep.ColdPath.ColdHostsPerSec, newRep.ColdPath.ColdHostsPerSec, tol)
			}
		} else {
			c.notef("skip cold_path rates: host counts differ (%d vs %d)",
				oldRep.ColdPath.Hosts, newRep.ColdPath.Hosts)
		}
	} else {
		c.skipNote("cold_path rates", float64(oldRep.ColdPath.Hosts), float64(newRep.ColdPath.Hosts))
	}
	if newRep.ColdPath.Hosts > 0 {
		if newRep.ColdPath.AuditOverTol > 0 {
			c.failf("cold_path.audit_over_tol = %d (max err %.4f, tol %.3f): accuracy violation, fails unconditionally",
				newRep.ColdPath.AuditOverTol, newRep.ColdPath.AuditMaxErr, newRep.ColdPath.Tol)
		}
		if !newRep.ColdPath.HashMatch {
			c.failf("cold_path.hash_match = false (in-process %s, one-worker %s, two-worker %s): calibration leaked shard order, fails unconditionally",
				newRep.ColdPath.InProcessHash, newRep.ColdPath.OneWorkerHash, newRep.ColdPath.TwoWorkerHash)
		}
	}

	// Warm start: the warm pass's throughput gates at matching scale
	// and mode; the warm-resumed point's allocation counts are
	// exact-class (any increase is a leak on the resume path, which is
	// the code a warm fleet runs thousands of times).
	if oldRep.WarmStart.Hosts > 0 && newRep.WarmStart.Hosts > 0 {
		if oldRep.WarmStart.Hosts == newRep.WarmStart.Hosts {
			if c.sameMode("warm_start", oldRep.WarmStart.FidelityMode, oldRep.WarmStart.Warm,
				newRep.WarmStart.FidelityMode, newRep.WarmStart.Warm) {
				c.higherBetter("warm_start.warm_hosts_per_sec",
					oldRep.WarmStart.WarmHostsPerSec, newRep.WarmStart.WarmHostsPerSec, tol)
				c.higherBetter("warm_start.warm_speedup",
					oldRep.WarmStart.WarmSpeedup, newRep.WarmStart.WarmSpeedup, tol)
			}
		} else {
			c.notef("skip warm_start rates: host counts differ (%d vs %d)",
				oldRep.WarmStart.Hosts, newRep.WarmStart.Hosts)
		}
	} else {
		c.skipNote("warm_start rates", float64(oldRep.WarmStart.Hosts), float64(newRep.WarmStart.Hosts))
	}
	if !c.skipNote("warm_start.warm_point", oldRep.WarmStart.WarmPoint.NsPerOp, newRep.WarmStart.WarmPoint.NsPerOp) {
		c.nearExactMax("warm_start.warm_point.allocs_per_op",
			oldRep.WarmStart.WarmPoint.AllocsPerOp, newRep.WarmStart.WarmPoint.AllocsPerOp)
		c.nearExactMax("warm_start.warm_point.bytes_per_op",
			oldRep.WarmStart.WarmPoint.BytesPerOp, newRep.WarmStart.WarmPoint.BytesPerOp)
	}

	// Serve: throughput and scaling are noisy-class at matching scale;
	// the correctness contracts below are unconditional.
	if oldRep.Serve.Hosts > 0 && newRep.Serve.Hosts > 0 {
		if oldRep.Serve.Hosts == newRep.Serve.Hosts {
			if c.sameMode("serve rates", oldRep.Serve.FidelityMode, oldRep.Serve.Warm,
				newRep.Serve.FidelityMode, newRep.Serve.Warm) {
				c.higherBetter("serve.cold_hosts_per_sec", oldRep.Serve.ColdHostsPerSec, newRep.Serve.ColdHostsPerSec, tol)
				c.higherBetter("serve.scaling_ratio", oldRep.Serve.ScalingRatio, newRep.Serve.ScalingRatio, tol)
				c.higherBetter("serve.warm_speedup", oldRep.Serve.WarmSpeedup, newRep.Serve.WarmSpeedup, tol)
				// Tracing cost is noisy-class: the traced warm queries'
				// median wall over the untraced ones' (≈1.0 when the
				// instrumented wire path is cheap).
				c.lowerBetter("serve.trace_overhead", oldRep.Serve.TraceOverhead, newRep.Serve.TraceOverhead, tol)
			}
		} else {
			c.notef("skip serve rates: host counts differ (%d vs %d)",
				oldRep.Serve.Hosts, newRep.Serve.Hosts)
		}
	} else {
		c.skipNote("serve rates", float64(oldRep.Serve.Hosts), float64(newRep.Serve.Hosts))
	}
	// The serving layer's reason to exist: merged aggregates must be
	// byte-identical to a single-process run, and a second identical
	// query must re-use resident state instead of re-calibrating. Both
	// are correctness, not noise — they fail at any -compare-tol.
	if newRep.Serve.Hosts > 0 {
		if !newRep.Serve.HashMatch {
			c.failf("serve.hash_match = false (single %s, cold %s, warm %s, traced %s): sharded merge is not byte-identical, fails unconditionally",
				newRep.Serve.SingleHash, newRep.Serve.ColdHash, newRep.Serve.WarmHash, newRep.Serve.TracedHash)
		}
		if newRep.Serve.WarmAnchorRuns > 0 {
			c.failf("serve.warm_anchor_runs = %d: warm query re-calibrated (resident routers not reused), fails unconditionally",
				newRep.Serve.WarmAnchorRuns)
		}
		// The traced pass ran (trace_spans set) but the coordinator's
		// federated per-worker counters did not sum to the merged
		// queries' counters: attribution is lost or double-counted.
		// Correctness, not noise.
		if newRep.Serve.TraceSpans > 0 && !newRep.Serve.FedSumMatch {
			c.failf("serve.fed_sum_match = false: federated hic_worker_* counters do not sum to the merged queries' counters, fails unconditionally")
		}
	}

	// Accuracy is never noise: any audited point over tolerance in the
	// new report fails regardless of scale or -compare-tol. The warm
	// audit is the same contract for checkpoint-resumed points.
	if newRep.Fidelity.AuditOverTol > 0 {
		c.failf("fidelity.audit_over_tol = %d (max err %.4f, tol %.3f): accuracy violation, fails unconditionally",
			newRep.Fidelity.AuditOverTol, newRep.Fidelity.AuditMaxErr, newRep.Fidelity.Tol)
	}
	if newRep.WarmStart.WarmAuditOverTol > 0 {
		c.failf("warm_start.warm_audit_over_tol = %d (max err %.4f, tol %.3f): accuracy violation, fails unconditionally",
			newRep.WarmStart.WarmAuditOverTol, newRep.WarmStart.WarmAuditMaxErr, newRep.WarmStart.Tol)
	}

	return c
}

func readReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep, nil
}

// runCompare is the -compare entry point; returns the process exit
// code (0 = no regressions).
func runCompare(oldPath, newPath string, tol float64) int {
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
		return 1
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
		return 1
	}
	c := compareReports(oldRep, newRep, tol)
	for _, n := range c.notes {
		fmt.Fprintf(os.Stderr, "hicbench: compare: %s\n", n)
	}
	if len(c.fails) > 0 {
		for _, f := range c.fails {
			fmt.Fprintf(os.Stderr, "hicbench: compare: FAIL %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "hicbench: compare: %d regression(s) against %s\n", len(c.fails), oldPath)
		return 1
	}
	fmt.Fprintf(os.Stderr, "hicbench: compare: OK (%s vs %s, tol %.0f%%)\n", oldPath, newPath, 100*tol)
	return 0
}
