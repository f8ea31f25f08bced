package core

import (
	"fmt"
	"sync/atomic"

	"hic/internal/fluid"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

// Executor routes one scenario to an execution strategy. The default
// (nil, or DES{}) is full packet-level simulation; internal/fidelity
// provides a router that substitutes the calibrated fluid model where
// it is sound and adds steady-state early termination to DES points.
//
// Plan must be deterministic for a given Params and must return the
// cache version salt the chosen execution's result is stored under:
// exactly SimVersion when (and only when) the result is bit-identical
// to pure DES, a distinct salt otherwise. RunVia's store (run cache or
// in-memory dedup) keys on that salt, so approximate results can never
// be returned to (or collapsed with) a pure-DES request — see
// internal/runcache's package documentation.
type Executor interface {
	Plan(p Params) (version string, run func(*runner.Arena) (Results, error), err error)
}

// DES is the pure packet-level executor. Routing through it is
// byte-identical (same results, same cache keys) to no executor at all.
type DES struct{}

func (DES) Plan(p Params) (string, func(*runner.Arena) (Results, error), error) {
	return SimVersion, func(a *runner.Arena) (Results, error) { return RunOn(p, a) }, nil
}

// EarlyStop executes DES with the steady-state sequential stopping rule
// (host.Testbed.RunAdaptive): the measurement window ends as soon as
// per-window goodput and drop moments converge, and counters are scaled
// to the full window. Results may therefore differ from a full-window
// run, so keys are salted with the rule.
type EarlyStop struct {
	Rule host.StopRule
	// Stopped counts executions the rule actually terminated early
	// (cache hits and unconverged runs excluded).
	Stopped atomic.Uint64
}

// Version is the cache salt: pure-DES results and early-stopped results
// never share an entry, and neither do runs under different rules. The
// "estop2" revision marks the adaptive-warmup variant of the rule —
// bump the prefix whenever RunAdaptive's procedure changes.
func (e *EarlyStop) Version() string {
	return fmt.Sprintf("%s+estop2(%d,%d,%g)", SimVersion,
		int64(e.Rule.Window), e.Rule.MinWindows, e.Rule.RelTol)
}

func (e *EarlyStop) Plan(p Params) (string, func(*runner.Arena) (Results, error), error) {
	return e.Version(), func(a *runner.Arena) (Results, error) {
		return Simulate(p, a, func(tb *host.Testbed, p Params) Results {
			return e.Drive(tb, p, p.Warmup, nil)
		})
	}, nil
}

// Drive runs tb's warmup and measurement windows under the stopping
// rule, fitted to p's measure (host.StopRule.Fit) so short fleet
// windows still stop early; the fit is deterministic per Params, so the
// version salt (which records the configured rule) still uniquely
// describes each point's behavior. A run the rule terminated early
// counts in Stopped and emits an early_stop event keyed by p to sink
// (obs.Default() when nil). A nil EarlyStop runs the full windows.
func (e *EarlyStop) Drive(tb *host.Testbed, p Params, warmup sim.Duration, sink obs.Sink) Results {
	if e == nil {
		return tb.Run(warmup, p.Measure)
	}
	res, stopped := tb.RunAdaptive(warmup, p.Measure, e.Rule.Fit(p.Measure))
	if stopped {
		e.Stopped.Add(1)
		if sink == nil {
			sink = obs.Default()
		}
		if sink != nil {
			sink.Emit(obs.Event{Kind: obs.KindEarlyStop, Key: p.Canonical()})
		}
	}
	return res
}

// FluidVersion salts cache entries produced by the fluid solver (via
// fidelity routing). Bump its suffix whenever the solver's output for a
// given Params can change.
const FluidVersion = SimVersion + "+fluid-1"

// RunFluid evaluates the scenario with the analytical fluid solver
// (internal/fluid) instead of simulating it: the Params are lowered
// onto the same substrate configuration DES would use, and the solver
// returns the steady-state operating point in the Results shape plus
// the regime diagnostics the fidelity router needs. Scenarios outside
// the fluid model's domain return fluid.ErrUnsupported.
func RunFluid(p Params) (fluid.Prediction, error) {
	p.normalizeWindows()
	cfg, err := p.hostConfig()
	if err != nil {
		return fluid.Prediction{}, err
	}
	var cc fluid.Protocol
	switch p.CC {
	case CCSwift, "":
		cc = fluid.Swift
	case CCDCTCP:
		cc = fluid.DCTCP
	case CCFixed:
		cc = fluid.Fixed
	default:
		return fluid.Prediction{}, fmt.Errorf("core: unknown congestion control %q", p.CC)
	}
	return fluid.Predict(cfg, cc, p.HostTarget, p.Measure)
}

// PlanVia normalizes p's windows and asks exec for its execution plan —
// the entry point for callers that need the routing decision itself
// rather than the executed result (sweep telemetry uses it to learn
// whether a point would be fluid-routed, where span instrumentation is
// meaningless). A nil executor plans pure DES.
func PlanVia(exec Executor, p Params) (string, func(*runner.Arena) (Results, error), error) {
	p.normalizeWindows()
	if exec == nil {
		return DES{}.Plan(p)
	}
	return exec.Plan(p)
}

// RunVia executes one scenario through the executor (nil is pure DES)
// on the arena a (nil builds fresh substrate). The windows are
// normalized first, so the plan and the cache key see what actually
// runs. With a cache, a stored result for the plan's version is
// returned as-is; otherwise the run is collapsed with concurrent
// duplicates and the computed result stored. Without one, the plan
// simply runs. Keys carry the plan's version, so a fluid-routed point
// can never satisfy a DES-routed one.
func RunVia(exec Executor, p Params, cache *runcache.Store, a *runner.Arena) (Results, error) {
	p.normalizeWindows()
	version, run, err := PlanVia(exec, p)
	if err != nil {
		return Results{}, err
	}
	if cache == nil {
		return run(a)
	}
	canonical := p.Canonical()
	return cache.GetOrCompute(runcache.Key(version, canonical), version, canonical,
		func() (Results, error) { return run(a) })
}

// RunEach executes scenarios through the executor (nil is pure DES) on
// the shared worker pool and streams results to emit in input order,
// without materializing the whole result slice — memory stays
// O(workers), not O(scenarios); callers that want a slice collect it in
// emit. Duplicate Params collapse to one execution through the cache,
// or through a batch-local memory store without one. The first
// build/run error, or a non-nil emit error, aborts the batch and is
// returned.
func RunEach(exec Executor, ps []Params, cache *runcache.Store, emit func(i int, r Results) error) error {
	if cache == nil {
		cache = runcache.NewMemory()
	}
	return runner.MapOrdered(runner.Shared(), len(ps),
		func(i int, a *runner.Arena) (Results, error) {
			return RunVia(exec, ps[i], cache, a)
		}, emit)
}
