// Package fidelity routes scenarios between the packet-level simulator
// (DES) and the analytical fluid solver (internal/fluid), calibrating
// the fluid model against DES anchors so that fluid is only used where
// its error is bounded and small.
//
// # Routing
//
// In ModeAuto each point is first solved by the fluid model (cheap,
// deterministic). The point runs under DES when any of the following
// holds, and under calibrated fluid otherwise:
//
//   - the scenario uses mechanisms outside the fluid model's domain
//     (fluid.ErrUnsupported: dynamic core scaling, victim workloads,
//     strict IOMMU, device TLB, ECN feedback, sender-host model);
//   - the operating point is near a regime knee, where discrete
//     dynamics dominate: the IOTLB working set within (0.98, 1.06)× of
//     its capacity (the Figure 3 overflow boundary), the memory-bus
//     load factor ρ within (0.99, 1.02) of saturation (the Figure 6
//     collapse), the service capacity within (0.99, 1.01)× of the CC
//     blind threshold, or offered demand within (0.998, 1.002)× of
//     capacity (the drop-onset boundary). The bands are deliberately
//     tight — outside them the per-signature calibration plus the
//     error-bound gate carry the accuracy burden;
//   - the calibrated error bound for the point exceeds routeMargin×Tol
//     (the margin keeps the observed audit error under Tol even when
//     the bound is a little optimistic).
//
// # Calibration
//
// Points are grouped by signature — their Params with Seed and
// AntagonistCores cleared — and each signature is calibrated by running
// full DES at a small grid of anchor antagonist tiers (AnchorAnts, at
// AnchorSeeds[0]). Anchors are ordinary DES runs content-addressed in
// the run cache, so they are computed once ever per cache directory and
// are shared with any DES-routed point at the same coordinates. The
// per-anchor throughput gain (DES/fluid) and drop-fraction offset
// (DES−fluid) are interpolated piecewise-linearly in the antagonist
// tier and applied to the fluid prediction. The error bound is the
// cross-validated interpolation residual (each interior anchor
// predicted from its neighbors) plus the measured seed-to-seed noise;
// a point whose tier coincides with an anchor pays only the noise term.
//
// # Audit
//
// With AuditRate > 0, a deterministic sample of the points that would
// have been fluid-routed runs full DES instead: the DES result is
// returned (and cached under the pure-DES key), and the observed
// fluid-vs-DES error — max(relative throughput error, absolute
// drop-fraction error) — is recorded in the Counters. Audit sampling
// hashes the scenario's cache key, so the same fleet audits the same
// hosts on every run.
//
// # Caching
//
// Every execution strategy salts the run-cache version differently
// (see internal/runcache): pure DES results use core.SimVersion,
// early-stopped DES results append the stopping rule, and calibrated
// fluid results append the calibration coordinates. Approximate results
// can therefore never satisfy a pure-DES lookup, and vice versa.
package fidelity

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hic/internal/core"
	"hic/internal/fluid"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

// Mode selects the execution strategy.
type Mode string

const (
	// ModeDES runs every point under full packet-level simulation —
	// byte-identical results and cache keys to the pre-fidelity path
	// (unless EarlyStop is set).
	ModeDES Mode = "des"
	// ModeFluid runs every supported point under the *uncalibrated*
	// fluid solver — an instant, approximate preview. Unsupported
	// scenarios fall back to DES.
	ModeFluid Mode = "fluid"
	// ModeAuto routes per point: calibrated fluid far from every knee
	// and within tolerance, DES otherwise.
	ModeAuto Mode = "auto"
)

// ParseMode validates a -fidelity flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeDES, ModeFluid, ModeAuto:
		return Mode(s), nil
	}
	return "", fmt.Errorf("fidelity: unknown mode %q (want des, fluid, or auto)", s)
}

// Config parameterizes a Router.
type Config struct {
	// Mode is the routing strategy ("" = ModeDES).
	Mode Mode
	// Tol is ModeAuto's calibrated-error routing tolerance, as a
	// fraction (0 = 0.05): a point is fluid-routed only when its error
	// bound — max(relative throughput error, absolute drop-fraction
	// error) — is within Tol.
	Tol float64
	// AuditRate shadow-runs DES on this fraction of fluid-routed
	// points (deterministic sample; 0 = off). Audited points return
	// the DES result.
	AuditRate float64
	// EarlyStop terminates DES measurement windows at steady state
	// (host.Testbed.RunAdaptive) using StopRule (zero value =
	// host.DefaultStopRule()).
	EarlyStop bool
	StopRule  host.StopRule
	// Cache memoizes anchor runs and answers the warm planner's "is the
	// exact result already stored" check. It is normally the same store
	// the surrounding sweep uses; nil gives the router a private
	// memory store (runcache.NewMemory).
	Cache *runcache.Store
	// AnchorSeeds are the seeds calibration anchors run under; the
	// first is the primary, the second (if any) measures seed-to-seed
	// noise. Empty = {1, 2}. Fleet callers should pass seeds from
	// their own seed pool: every calibration run then coincides with a
	// real point and is served back to it exactly.
	AnchorSeeds []uint64
	// AnchorAnts is the antagonist-tier anchor grid (sorted, unique;
	// empty = {0, 4, 8, 12, 15} — denser toward the high tiers, where the
	// gain curve bends).
	AnchorAnts []int
	// Warm selects cross-run warm start ("" = WarmOff): WarmCalib
	// persists calibration state (anchors, noise tiers, calibration DES
	// runs) to WarmStore and reloads it on a signature's first touch in
	// a later process; WarmFull additionally checkpoints every cold
	// DES-routed run's converged state and warm-starts later DES points
	// from the nearest persisted donor (see warm.go).
	Warm WarmMode
	// WarmStore is the persistent warm-start store (a second
	// content-addressed runcache namespace, normally a separate
	// directory from Cache). Required when Warm != WarmOff.
	WarmStore *runcache.Store
	// WarmAuditRate cold-re-runs this deterministic fraction of
	// warm-startable points to bound warm-start error (0 = off; audited
	// points return the exact cold result).
	WarmAuditRate float64
	// WarmGuard overrides the re-convergence window a warm start
	// replays (0 = core.DefaultWarmGuard: warmup/4, floored at 1 ms).
	WarmGuard sim.Duration
	// KneeSearch and Transfer do nothing: every knee-band point is
	// DES-forced and every signature calibrates from its own anchor
	// grid. The fields stay only so existing callers still compile.
	KneeSearch bool
	Transfer   bool
	// Log, when non-nil, receives one-line routing diagnostics.
	Log io.Writer
	// Sink, when non-nil, receives structured routing and audit events;
	// nil falls back to the process-global obs sink (obs.Default), so
	// routers built before -listen wiring still report.
	Sink obs.Sink
}

// Counters is the execution accounting a Router accumulates. All
// counts are of executions actually performed: points served or
// collapsed by a run cache or memory store are not re-counted.
type Counters struct {
	// FluidRouted counts points computed by the (calibrated) fluid
	// solver; DESRouted counts points simulated (including audits).
	FluidRouted uint64
	DESRouted   uint64
	// EarlyStopped counts DES runs the stopping rule terminated early.
	EarlyStopped uint64
	// KneeForced counts routing *decisions* (not executions) where a
	// fluid-capable point was forced to DES because its operating point
	// sat inside a knee band.
	KneeForced uint64
	// AnchorRuns counts calibration anchor simulations executed (cache
	// hits excluded); AnchorReused counts DES-routed points served
	// directly from a coinciding anchor's memoized result.
	AnchorRuns   uint64
	AnchorReused uint64
	// AnchorTransferred and KneeProbes always read 0. They keep their
	// fields and ledger rows so existing readers still compile and
	// their series still exist.
	AnchorTransferred uint64
	KneeProbes        uint64
	// Audited counts fluid-vs-DES audit comparisons performed;
	// AuditMaxErr is the largest observed error and AuditOverTol how
	// many audited points exceeded Tol.
	Audited      uint64
	AuditOverTol uint64
	AuditMaxErr  float64
	// AnchorLoaded counts anchors and noise tiers served from the
	// persistent warm store instead of being simulated;
	// AnchorPersisted counts the ones this process computed and wrote
	// back.
	AnchorLoaded    uint64
	AnchorPersisted uint64
	// WarmCheckpoints counts converged snapshots captured and
	// persisted; WarmStarted counts DES points warm-started from a
	// persisted donor checkpoint.
	WarmCheckpoints uint64
	WarmStarted     uint64
	// WarmAudited counts warm-vs-cold audit comparisons performed;
	// WarmAuditMaxErr is the largest observed warm-start error and
	// WarmAuditOverTol how many audited warm starts exceeded Tol.
	WarmAudited      uint64
	WarmAuditOverTol uint64
	WarmAuditMaxErr  float64
}

// ledger is the one list of summable counters: each uint64 field of
// Counters with its metric series suffix, in exposition order. Add, Sub
// and Each walk it, so a new counter is one field plus one row here
// (TestLedgerCoversCounters pins the table against the struct).
var ledger = [...]struct {
	name  string
	field func(*Counters) *uint64
}{
	{"fluid_routed_total", func(c *Counters) *uint64 { return &c.FluidRouted }},
	{"des_routed_total", func(c *Counters) *uint64 { return &c.DESRouted }},
	{"early_stopped_total", func(c *Counters) *uint64 { return &c.EarlyStopped }},
	{"knee_forced_total", func(c *Counters) *uint64 { return &c.KneeForced }},
	{"anchor_runs_total", func(c *Counters) *uint64 { return &c.AnchorRuns }},
	{"anchor_reused_total", func(c *Counters) *uint64 { return &c.AnchorReused }},
	{"anchor_transferred_total", func(c *Counters) *uint64 { return &c.AnchorTransferred }},
	{"knee_probes_total", func(c *Counters) *uint64 { return &c.KneeProbes }},
	{"audited_total", func(c *Counters) *uint64 { return &c.Audited }},
	{"audit_over_tol_total", func(c *Counters) *uint64 { return &c.AuditOverTol }},
	{"anchor_loaded_total", func(c *Counters) *uint64 { return &c.AnchorLoaded }},
	{"anchor_persisted_total", func(c *Counters) *uint64 { return &c.AnchorPersisted }},
	{"warm_checkpoints_total", func(c *Counters) *uint64 { return &c.WarmCheckpoints }},
	{"warm_started_total", func(c *Counters) *uint64 { return &c.WarmStarted }},
	{"warm_audited_total", func(c *Counters) *uint64 { return &c.WarmAudited }},
	{"warm_audit_over_tol_total", func(c *Counters) *uint64 { return &c.WarmAuditOverTol }},
}

// Add returns c plus o: counters sum, and each audit maximum is the
// larger of the two.
func (c Counters) Add(o Counters) Counters {
	for _, f := range ledger {
		*f.field(&c) += *f.field(&o)
	}
	c.AuditMaxErr = max(c.AuditMaxErr, o.AuditMaxErr)
	c.WarmAuditMaxErr = max(c.WarmAuditMaxErr, o.WarmAuditMaxErr)
	return c
}

// Sub returns the counters accumulated since before. The audit maxima
// keep c's (the after side's) value: counters only grow, so the
// lifetime maximum is correct for any window that includes the
// excursion.
func (c Counters) Sub(before Counters) Counters {
	for _, f := range ledger {
		*f.field(&c) -= *f.field(&before)
	}
	return c
}

// Each calls emit with every summable counter and its series suffix
// ("fluid_routed_total"), in the ledger's fixed order. The audit maxima
// are gauges, not sums, and are not enumerated.
func (c Counters) Each(emit func(name string, v uint64)) {
	for _, f := range ledger {
		emit(f.name, *f.field(&c))
	}
}

// Router implements core.Executor. It is safe for concurrent use by
// the worker pool; one Router should be shared across a whole sweep or
// fleet so calibration is done once per signature.
type Router struct {
	cfg   Config
	tol   float64
	estop *core.EarlyStop

	// The router's version salts depend only on its configuration, so
	// New renders each once. desV salts DES-routed results: pure DES,
	// or the early-stopped variant when EarlyStop is on. calV salts
	// results calibrated from a signature's anchor grid. calibV salts
	// persisted calibration state by everything that could change its
	// content; ckptV salts checkpoint blobs, whose content depends only
	// on how the donor DES ran.
	desV, calV, calibV, ckptV string

	mu   sync.Mutex
	sigs map[string]*sigCalib

	// countersMu guards counters, the execution accounting. It is a
	// leaf lock: nothing else is acquired while it is held.
	countersMu sync.Mutex
	counters   Counters
}

// New validates cfg and builds a Router.
func New(cfg Config) (*Router, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeDES
	}
	if _, err := ParseMode(string(cfg.Mode)); err != nil {
		return nil, err
	}
	if cfg.Tol < 0 || cfg.Tol >= 1 {
		return nil, fmt.Errorf("fidelity: Tol %v outside [0, 1)", cfg.Tol)
	}
	if cfg.AuditRate < 0 || cfg.AuditRate > 1 {
		return nil, fmt.Errorf("fidelity: AuditRate %v outside [0, 1]", cfg.AuditRate)
	}
	if cfg.Warm == "" {
		cfg.Warm = WarmOff
	}
	if _, err := ParseWarmMode(string(cfg.Warm)); err != nil {
		return nil, err
	}
	if cfg.Warm != WarmOff && cfg.WarmStore == nil {
		return nil, fmt.Errorf("fidelity: Warm %q requires a WarmStore", cfg.Warm)
	}
	if cfg.WarmAuditRate < 0 || cfg.WarmAuditRate > 1 {
		return nil, fmt.Errorf("fidelity: WarmAuditRate %v outside [0, 1]", cfg.WarmAuditRate)
	}
	if len(cfg.AnchorSeeds) == 0 {
		cfg.AnchorSeeds = []uint64{1, 2}
	}
	if len(cfg.AnchorAnts) == 0 {
		cfg.AnchorAnts = []int{0, 4, 8, 12, 15}
	}
	ants := append([]int(nil), cfg.AnchorAnts...)
	sort.Ints(ants)
	for i, a := range ants {
		if a < 0 || (i > 0 && a == ants[i-1]) {
			return nil, fmt.Errorf("fidelity: AnchorAnts must be unique and non-negative")
		}
	}
	cfg.AnchorAnts = ants
	if cfg.Cache == nil {
		// Anchor runs always resolve through a store, so concurrent
		// calibrations of one signature share each simulation.
		cfg.Cache = runcache.NewMemory()
	}
	r := &Router{cfg: cfg, tol: cfg.Tol, sigs: make(map[string]*sigCalib)}
	if r.tol == 0 {
		r.tol = 0.05
	}
	if cfg.EarlyStop {
		rule := cfg.StopRule
		if rule.Window == 0 && rule.RelTol == 0 {
			rule = host.DefaultStopRule()
		}
		r.estop = &core.EarlyStop{Rule: rule}
	}
	r.desV = core.SimVersion
	if r.estop != nil {
		r.desV = r.estop.Version()
	}
	anchors := fmt.Sprintf("%v@%s", cfg.AnchorAnts, seedsLabel(cfg.AnchorSeeds))
	r.calV = core.FluidVersion + "+cal(" + anchors + ")"
	r.calibV = "hic-calib-1|" + r.desV + "|" + core.FluidVersion + "|anchors=" + anchors
	r.ckptV = "hic-ckpt-1|" + r.desV
	return r, nil
}

// Counters snapshots the accounting so far.
func (r *Router) Counters() Counters {
	r.countersMu.Lock()
	c := r.counters
	r.countersMu.Unlock()
	if r.estop != nil {
		c.EarlyStopped = r.estop.Stopped.Load()
	}
	return c
}

// tally applies one accounting update under the counters lock.
func (r *Router) tally(update func(*Counters)) {
	r.countersMu.Lock()
	update(&r.counters)
	r.countersMu.Unlock()
}

// Tol reports the effective routing/audit tolerance.
func (r *Router) Tol() float64 { return r.tol }

// MetricsInto implements the control plane's MetricSource interface:
// live routing counters under the hic_fidelity_ prefix.
func (r *Router) MetricsInto(emit func(name, typ string, v float64)) {
	c := r.Counters()
	c.Each(func(name string, v uint64) { emit("hic_fidelity_"+name, "counter", float64(v)) })
	emit("hic_fidelity_audit_max_err", "gauge", c.AuditMaxErr)
	emit("hic_fidelity_warm_audit_max_err", "gauge", c.WarmAuditMaxErr)
	emit("hic_fidelity_tol", "gauge", r.tol)
}

// WarmStore exposes the persistent warm-start store (nil when warm
// start is off) so CLIs can register it as a metrics source and prune
// it alongside the result cache.
func (r *Router) WarmStore() *runcache.Store { return r.cfg.WarmStore }

// emit delivers a structured event to the configured sink, falling
// back to the process-global one; no sink installed costs a nil check.
func (r *Router) emit(e obs.Event) {
	s := r.cfg.Sink
	if s == nil {
		s = obs.Default()
	}
	if s != nil {
		s.Emit(e)
	}
}

// drive is the testbed drive for the router's cold DES runs: the full
// windows, or early-stopped when EarlyStop is configured (counted, and
// reported to the router's sink); with capture, the converged snapshot
// is recorded as a warm-start donor.
func (r *Router) drive(capture bool) func(*host.Testbed, core.Params) core.Results {
	return func(tb *host.Testbed, p core.Params) core.Results {
		res := r.estop.Drive(tb, p, p.Warmup, r.cfg.Sink)
		if capture {
			r.recordCkpt(p, tb.Snapshot())
		}
		return res
	}
}

// emitRoute records one routing decision in the event log.
func (r *Router) emitRoute(p core.Params, route, why string) {
	s := r.cfg.Sink
	if s == nil {
		s = obs.Default()
	}
	if s == nil {
		return
	}
	s.Emit(obs.Event{
		Kind:  obs.KindFidelityRoute,
		Key:   sigLabel(p),
		Point: p.AntagonistCores,
		Route: route,
		Why:   why,
	})
}

// Plan implements core.Executor.
func (r *Router) Plan(p core.Params) (string, func(*runner.Arena) (core.Results, error), error) {
	switch r.cfg.Mode {
	case ModeFluid:
		pred, err := core.RunFluid(p)
		if err != nil {
			if isUnsupported(err) {
				return r.desPlan(p, nil, p.Canonical(), "unsupported")
			}
			return "", nil, err
		}
		r.emitRoute(p, "fluid", "raw")
		return core.FluidVersion + "+raw", func(*runner.Arena) (core.Results, error) {
			r.tally(func(c *Counters) { c.FluidRouted++ })
			return pred.Results, nil
		}, nil
	case ModeAuto:
		return r.autoPlan(p)
	default:
		return r.desPlan(p, nil, p.Canonical(), "")
	}
}

// desPlan routes to DES, with early stopping when configured. The
// plan does not dedup itself: the caller's core.RunVia store collapses
// duplicate executions. Under WarmFull, a persisted donor checkpoint
// diverts the point to a warm start first; a point that runs cold
// donates its own converged snapshot for future processes. canonical
// is p's encoding; s is p's signature state, or nil when the caller has
// not resolved it.
func (r *Router) desPlan(p core.Params, s *sigCalib, canonical, why string) (string, func(*runner.Arena) (core.Results, error), error) {
	if version, run, ok, err := r.warmPlan(p, s, canonical, why); ok || err != nil {
		return version, run, err
	}
	if r.cfg.Log != nil {
		r.logf("fidelity: DES %s ant=%d%s", sigLabel(p), p.AntagonistCores, reason(why))
	}
	r.emitRoute(p, "des", why)
	drive := r.drive(r.warmFullOn())
	return r.desV, func(a *runner.Arena) (core.Results, error) {
		r.tally(func(c *Counters) { c.DESRouted++ })
		return core.Simulate(p, a, drive)
	}, nil
}

// Knee bands: inside these the discrete dynamics DES captures dominate
// and the point is never fluid-routed, regardless of its calibrated
// error bound. They are deliberately tight — outside them the
// per-signature anchor calibration (whose grid spans the antagonist
// tier, the axis that sweeps ρ) plus the error-bound gate carry the
// accuracy burden, and the audit mode verifies it empirically.
const (
	tlbKneeLo, tlbKneeHi     = 0.98, 1.06   // working set / IOTLB capacity
	rhoKneeLo, rhoKneeHi     = 0.99, 1.02   // memory-bus load factor
	blindKneeLo, blindKneeHi = 0.99, 1.01   // capacity / CC blind threshold
	loadKneeLo, loadKneeHi   = 0.998, 1.002 // demand / capacity (drop onset)
)

// routeMargin gates routing at a fraction of the audit tolerance: the
// error bound is an estimate (cross-validated residual + measured seed
// noise), so fluid-routing only points bounded comfortably inside Tol
// keeps the *observed* audit error under Tol even when the bound is a
// little optimistic. 0.8 is set from audit evidence on the 10k-host
// fleet bench: worst observed audit error tracks the bound cutoff
// closely (0.069 observed at a 0.7 gate with tol 0.10), so a 20%
// margin still absorbs bound misestimation.
const routeMargin = 0.8

// nearKnee reports whether the fluid operating point sits in any knee
// band, with the band that matched (for logging).
func nearKnee(pred fluid.Prediction) (string, bool) {
	if pred.TLBEntries > 0 {
		if r := float64(pred.WorkingSet) / float64(pred.TLBEntries); r > tlbKneeLo && r < tlbKneeHi {
			return fmt.Sprintf("iotlb ws/cap=%.2f", r), true
		}
	}
	if pred.Rho > rhoKneeLo && pred.Rho < rhoKneeHi {
		return fmt.Sprintf("mem rho=%.2f", pred.Rho), true
	}
	if pred.CapacityGbps > 0 && pred.BlindGbps > 0 && pred.DemandGbps > loadKneeLo*pred.CapacityGbps {
		if r := pred.CapacityGbps / pred.BlindGbps; r > blindKneeLo && r < blindKneeHi {
			return fmt.Sprintf("blind cap/thresh=%.2f", r), true
		}
	}
	if pred.CapacityGbps > 0 {
		if r := pred.DemandGbps / pred.CapacityGbps; r > loadKneeLo && r < loadKneeHi {
			return fmt.Sprintf("drop-onset demand/cap=%.2f", r), true
		}
	}
	return "", false
}

func (r *Router) autoPlan(p core.Params) (string, func(*runner.Arena) (core.Results, error), error) {
	pred, err := core.RunFluid(p)
	if err != nil {
		if isUnsupported(err) {
			return r.desPlan(p, nil, p.Canonical(), "unsupported")
		}
		return "", nil, err
	}
	// The signature and the canonical encoding are computed once here
	// and threaded through every step that keys on them.
	s := r.sigFor(p)
	// A point that coincides exactly with a calibration run (anchor or
	// noise measurement) is served that run's DES result outright: the
	// exact answer is (or is about to be) in hand, so fluid-routing it
	// would trade accuracy for nothing. Coincidence is structural —
	// anchor grid × anchor seeds, via anchorCoincident — not "is the memo
	// populated yet", so the same point routes the same way whether its
	// signature's calibration already happened (earlier in this run, or
	// resident from a previous query in a serving process) or is
	// materialized right here.
	if r.anchorCoincident(p) {
		des, cerr := r.ensureCoincidentDES(s, p)
		if cerr != nil {
			return "", nil, fmt.Errorf("fidelity: calibrating %s: %w", sigLabel(p), cerr)
		}
		if r.cfg.Log != nil {
			r.logf("fidelity: anchor-reuse %s ant=%d", sigLabel(p), p.AntagonistCores)
		}
		r.emitRoute(p, "anchor-reuse", "")
		return r.desV, func(*runner.Arena) (core.Results, error) {
			r.tally(func(c *Counters) { c.AnchorReused++ })
			return des, nil
		}, nil
	}
	canonical := p.Canonical()
	if why, near := nearKnee(pred); near {
		r.tally(func(c *Counters) { c.KneeForced++ })
		return r.desPlan(p, s, canonical, why)
	}
	adj, errBound, calV, ok, err := r.calibrate(s, p, pred)
	if err != nil {
		return "", nil, fmt.Errorf("fidelity: calibrating %s: %w", sigLabel(p), err)
	}
	if !ok {
		return r.desPlan(p, s, canonical, "uncalibratable")
	}
	if errBound > routeMargin*r.tol {
		return r.desPlan(p, s, canonical, fmt.Sprintf("errBound %.3f > %.2f*tol %.3f", errBound, routeMargin, r.tol))
	}
	return r.fluidPlan(p, canonical, adj, calV)
}

// fluidPlan serves a point that passed every routing gate from the
// calibrated fluid prediction adj, cache-salted with the calibration
// version calV — except for the deterministic audit sample (drawn from
// p's canonical encoding), which runs (and caches) authoritative DES
// and only compares the prediction.
func (r *Router) fluidPlan(p core.Params, canonical string, adj core.Results, calV string) (string, func(*runner.Arena) (core.Results, error), error) {
	if r.audit(canonical) {
		// Audited points run (and cache) authoritative full-window DES
		// under the pure-DES key; the fluid prediction is only compared.
		r.emitRoute(p, "audit", "")
		return core.SimVersion, func(a *runner.Arena) (core.Results, error) {
			des, err := core.RunOn(p, a)
			if err != nil {
				return core.Results{}, err
			}
			e := observedError(adj, des)
			over := e > r.tol
			r.tally(func(c *Counters) {
				c.Audited++
				c.DESRouted++
				c.AuditMaxErr = max(c.AuditMaxErr, e)
				if over {
					c.AuditOverTol++
				}
			})
			if over {
				r.logf("fidelity: AUDIT OVER TOL %s ant=%d err=%.3f (fluid %.2f Gbps/%.3f%% vs DES %.2f Gbps/%.3f%%)",
					sigLabel(p), p.AntagonistCores, e,
					adj.AppThroughputGbps, adj.DropRatePct, des.AppThroughputGbps, des.DropRatePct)
			}
			// The control-plane sink raises an immediate warning for an
			// over-tolerance audit result — the operator does not wait for
			// the run-end summary to learn the fidelity budget is blown.
			r.emit(obs.Event{
				Kind:    obs.KindAuditResult,
				Key:     sigLabel(p),
				Point:   p.AntagonistCores,
				Value:   e,
				Tol:     r.tol,
				OverTol: over,
			})
			return des, nil
		}, nil
	}

	r.emitRoute(p, "fluid", "")
	return calV, func(*runner.Arena) (core.Results, error) {
		r.tally(func(c *Counters) { c.FluidRouted++ })
		return adj, nil
	}, nil
}

// observedError is the audit metric: the larger of the relative
// throughput error (floored at 1 Gbps so idle hosts don't divide by
// zero) and the absolute drop-fraction error.
func observedError(fluidRes, des core.Results) float64 {
	tErr := math.Abs(fluidRes.AppThroughputGbps-des.AppThroughputGbps) /
		math.Max(des.AppThroughputGbps, 1)
	dErr := math.Abs(fluidRes.DropRatePct-des.DropRatePct) / 100
	return math.Max(tErr, dErr)
}

// audit deterministically samples by hashing the canonical encoding:
// the same scenario audits the same way in every process.
func (r *Router) audit(canonical string) bool {
	if r.cfg.AuditRate <= 0 {
		return false
	}
	key := runcache.Key("fidelity-audit-1", canonical)
	v, err := strconv.ParseUint(key[:15], 16, 64)
	if err != nil {
		return false
	}
	return float64(v)/float64(uint64(1)<<60) < r.cfg.AuditRate
}

func isUnsupported(err error) bool {
	_, ok := err.(fluid.ErrUnsupported)
	return ok
}

// logf writes one diagnostic line to Config.Log. Per-point call sites
// test Config.Log first, so a router without a log never formats their
// arguments (sigLabel is a Sprintf).
func (r *Router) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, format+"\n", args...)
	}
}

func reason(why string) string {
	if why == "" {
		return ""
	}
	return " (" + why + ")"
}

func sigLabel(p core.Params) string {
	return fmt.Sprintf("cc=%s threads=%d senders=%d offered=%g duty=%g",
		p.CC, p.Threads, p.Senders, p.OfferedGbps, p.BurstDuty)
}

func seedsLabel(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}
