package fluid_test

import (
	"testing"

	"hic/internal/core"
	"hic/internal/fluid"
	"hic/internal/sim"
)

// predictParams lowers core.Params the same way the router does and
// runs the fluid solver.
func predictParams(t testing.TB, p core.Params) fluid.Prediction {
	t.Helper()
	pred, err := core.RunFluid(p)
	if err != nil {
		t.Fatalf("RunFluid(%+v): %v", p, err)
	}
	return pred
}

// TestFluidVsDESDiagnostic prints fluid vs DES side by side over the
// fig3 thread sweep and fig6 antagonist sweep; run with -v. It asserts
// only sanity (finite, within the wire ceiling) — the calibrated
// tolerance property lives in internal/fidelity.
func TestFluidVsDESDiagnostic(t *testing.T) {
	if testing.Short() {
		t.Skip("DES comparison is slow")
	}
	warmup, measure := 4*sim.Millisecond, 6*sim.Millisecond
	var cases []core.Params
	for _, th := range []int{2, 4, 6, 8, 10, 12, 14, 16} {
		p := core.DefaultParams(th)
		p.Warmup, p.Measure = warmup, measure
		cases = append(cases, p)
	}
	for _, ant := range []int{0, 2, 4, 8, 12, 15} {
		p := core.DefaultParams(12)
		p.AntagonistCores = ant
		p.Warmup, p.Measure = warmup, measure
		cases = append(cases, p)
	}
	for _, p := range cases {
		pred := predictParams(t, p)
		if pred.AppThroughputGbps <= 0 || pred.AppThroughputGbps > 92.2 {
			t.Errorf("threads=%d ant=%d: fluid throughput %.1f outside (0, 92.2]",
				p.Threads, p.AntagonistCores, pred.AppThroughputGbps)
		}
		if !pred.Converged {
			t.Errorf("threads=%d ant=%d: fixed point did not converge in %d iterations",
				p.Threads, p.AntagonistCores, pred.Iterations)
		}
		des, err := core.RunOn(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("threads=%2d ant=%2d: fluid %6.2f Gbps drop %5.2f%% (rho %.2f ws %d cap %.1f blind %.1f)  DES %6.2f Gbps drop %5.2f%%",
			p.Threads, p.AntagonistCores,
			pred.AppThroughputGbps, pred.DropRatePct, pred.Rho, pred.WorkingSet,
			pred.CapacityGbps, pred.BlindGbps,
			des.AppThroughputGbps, des.DropRatePct)
	}
}
