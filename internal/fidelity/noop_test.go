package fidelity

import (
	"reflect"
	"testing"

	"hic/internal/core"
	"hic/internal/sim"
)

// kneeFleet is a small auto fleet whose antagonist sweeps cross regime
// knees: a DCTCP signature whose memory bus saturates (ρ ≈ 1.015 at
// tier 10) and a Swift signature whose capacity meets the CC blind
// threshold at tier 10. The seed is outside the anchor seeds, so no
// point coincides with a calibration run.
func kneeFleet() []core.Params {
	var ps []core.Params
	for _, sig := range []struct {
		threads, senders int
		cc               core.CC
		offered          float64
	}{
		{12, 16, core.CCDCTCP, 40},
		{8, 40, core.CCSwift, 0},
	} {
		for _, ant := range []int{2, 6, 10, 13} {
			p := core.DefaultParams(sig.threads)
			p.Senders, p.CC, p.OfferedGbps = sig.senders, sig.cc, sig.offered
			p.RxRegionBytes = uint64(sig.threads) << 20
			p.Seed = 7
			p.AntagonistCores = ant
			p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
			ps = append(ps, p)
		}
	}
	return ps
}

// TestKneeSearchTransferAreNoOps pins Config.KneeSearch and Transfer as
// inert: a router with both set plans, computes and counts exactly like
// the zero config over a fleet that has knee-band points, and the
// counters those features once fed stay at zero.
func TestKneeSearchTransferAreNoOps(t *testing.T) {
	run := func(cfg Config) ([]string, []core.Results, Counters) {
		r := mustRouter(t, cfg)
		var versions []string
		var results []core.Results
		for _, p := range kneeFleet() {
			v, exec, err := r.Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := exec(nil)
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, v)
			results = append(results, res)
		}
		return versions, results, r.Counters()
	}
	wantV, wantR, wantC := run(Config{Mode: ModeAuto, Tol: 0.1})
	if wantC.KneeForced == 0 {
		t.Fatalf("fleet has no knee-band point (counters %+v)", wantC)
	}
	gotV, gotR, gotC := run(Config{Mode: ModeAuto, Tol: 0.1, KneeSearch: true, Transfer: true})
	for i, p := range kneeFleet() {
		if gotV[i] != wantV[i] {
			t.Errorf("ant=%d threads=%d: version %q, want %q", p.AntagonistCores, p.Threads, gotV[i], wantV[i])
		}
		if !reflect.DeepEqual(gotR[i], wantR[i]) {
			t.Errorf("ant=%d threads=%d: results differ from the zero config", p.AntagonistCores, p.Threads)
		}
	}
	if gotC != wantC {
		t.Errorf("counters %+v, want %+v", gotC, wantC)
	}
	if gotC.KneeProbes != 0 || gotC.AnchorTransferred != 0 {
		t.Errorf("KneeProbes %d, AnchorTransferred %d: both must read 0", gotC.KneeProbes, gotC.AnchorTransferred)
	}
}
