package fidelity

// Adaptive knee localization (the cold-path half of ROADMAP item 2's
// "importance sampling concentrated near the regime knees"): the knee
// bands in fidelity.go are deliberately wide — they must catch a regime
// boundary wherever it falls — so at fleet scale they force DES on many
// points that are actually on the smooth side of the knee. Per
// signature, an O(log n) bisection along the antagonist-tier axis (the
// axis that sweeps memory-bus pressure, and the one the anchor grid
// already spans) locates the first saturated tier. Band points outside
// a kneeRadius neighborhood of that boundary are served from the
// calibrated curve under a widened error bound that folds in the
// residual measured at the probe tiers themselves; the existing
// -audit-rate shadow runs keep the approximation hard-gated.
//
// Probes are ordinary calibration anchors (ensureAnchor at the primary
// anchor seed), so they are content-addressed in the run cache, shared
// across workers and with DES-routed points at the same coordinates,
// and persisted/reloaded through the warm store like any other anchor.
// The located knee itself is therefore never persisted: relocating it
// in a later process replays cache hits.

import (
	"fmt"
	"math"
	"strings"

	"hic/internal/core"
	"hic/internal/fluid"
	"hic/internal/runner"
)

const (
	// kneeInflate widens the calibrated error bound by the measured
	// probe residual before gating a knee-band point onto fluid: near a
	// boundary the interpolation is least trustworthy, so the bound
	// must reflect what the probes actually observed there.
	kneeInflate = 1.25
	// kneeSatDrop (absolute drop %) and kneeSatFrac (delivered
	// fraction of fluid demand) classify a probe's regime: sustained
	// drops or a throughput shortfall both mean the tier is past the
	// knee.
	kneeSatDrop = 0.2
	kneeSatFrac = 0.97
	// kneeMaxProbes caps a bisection defensively; ceil(log2(15 tiers))
	// is 4, so the cap only matters if the grid grows dramatically.
	kneeMaxProbes = 10
	// kneeRadius is the half-width, in antagonist tiers, of the
	// forced-DES neighborhood around a located knee: the last smooth
	// and first saturated tiers stay on DES.
	kneeRadius = 1
)

// kneeState is one located (or abandoned) regime boundary along the
// antagonist-tier axis within the anchor hull.
type kneeState struct {
	// fallback records a violated bisection invariant: the hull's low
	// end probed saturated while the high end did not (a non-monotone
	// response), so the full knee band stays on DES.
	fallback bool
	// hasKnee reports a boundary bracketed inside the hull; k is the
	// first saturated tier. When false (and not fallback) the hull is
	// single-regime: saturated throughout or smooth throughout.
	hasKnee bool
	k       int
	// resid is the largest calibrated-curve-vs-probe error observed at
	// off-grid probe tiers — the measured interpolation error near the
	// boundary, folded into the serving bound by kneePlan.
	resid float64
}

// inForced reports whether tier x falls in the forced-DES neighborhood
// [k-kneeRadius, k+kneeRadius-1] around the located boundary.
func (ks *kneeState) inForced(x int) bool {
	return ks.hasKnee && x >= ks.k-kneeRadius && x <= ks.k+kneeRadius-1
}

// kneePlan decides whether a knee-band point can be served from the
// calibrated curve anyway. handled=false (without error) means the
// caller keeps the pre-search behavior: knee-forced DES. The IOTLB band
// is excluded — it gates on a working-set/capacity ratio that does not
// move with the antagonist tier, so there is no boundary to bisect
// along the calibration axis.
func (r *Router) kneePlan(p core.Params, pred fluid.Prediction, why string) (string, func(*runner.Arena) (core.Results, error), bool, error) {
	if !r.cfg.KneeSearch || strings.HasPrefix(why, "iotlb") {
		return "", nil, false, nil
	}
	adj, errBound, calV, ok, err := r.calibrate(p, pred)
	if err != nil {
		return "", nil, false, fmt.Errorf("fidelity: calibrating %s: %w", sigLabel(p), err)
	}
	if !ok {
		return "", nil, false, nil
	}
	ks, err := r.kneeFor(p)
	if err != nil {
		return "", nil, false, err
	}
	if ks.fallback || ks.inForced(p.AntagonistCores) {
		return "", nil, false, nil
	}
	widened := math.Max(errBound, kneeInflate*ks.resid)
	if widened > routeMargin*r.tol {
		return "", nil, false, nil
	}
	r.tally(func(c *Counters) { c.KneeBypassed++ })
	r.logf("fidelity: knee-bypass %s ant=%d (%s; widened bound %.3f)",
		sigLabel(p), p.AntagonistCores, why, widened)
	version, run, perr := r.fluidPlan(p, adj, calV)
	return version, run, perr == nil, perr
}

// kneeFor returns the signature's located knee, running the bisection
// on first touch. States are keyed by the transfer-donor key because
// the probe residual is measured against the curve the signature
// actually serves from.
func (r *Router) kneeFor(p core.Params) (*kneeState, error) {
	key := ""
	if asn := r.assignFor(p); asn != nil {
		key = asn.donorKey
	}
	s := r.sigFor(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	r.loadSig(s, p)
	if ks := s.knees[key]; ks != nil {
		return ks, nil
	}
	ks, err := r.locateKnee(s, p)
	if err != nil {
		return nil, err
	}
	s.knees[key] = ks
	return ks, nil
}

// locateKnee brackets the saturation boundary between the hull's
// endpoint anchors and bisects integer tiers down to adjacency. The
// probe order is a pure function of the router config, so every shard
// (and every worker) locates the identical knee no matter which point
// of the signature arrives first.
func (r *Router) locateKnee(s *sigCalib, p core.Params) (*kneeState, error) {
	ants := r.cfg.AnchorAnts
	lo, hi := ants[0], ants[len(ants)-1]
	ks := &kneeState{}
	satLo, err := r.kneeProbe(s, p, lo, ks)
	if err != nil {
		return nil, err
	}
	satHi, err := r.kneeProbe(s, p, hi, ks)
	if err != nil {
		return nil, err
	}
	switch {
	case satLo && satHi:
		// Saturated across the whole hull: any boundary sits below the
		// grid, and the anchors span a single regime.
	case !satLo && !satHi:
		// Smooth across the whole hull.
	case satLo && !satHi:
		// Saturation decreasing with antagonist pressure violates the
		// bisection invariant — a non-monotone response. Keep the full
		// knee band on DES for this signature.
		ks.fallback = true
		r.logf("fidelity: knee-search %s non-monotone (sat at ant=%d, smooth at ant=%d); keeping full-band DES",
			sigLabel(p), lo, hi)
	default:
		for probes := 0; hi-lo > 1 && probes < kneeMaxProbes; probes++ {
			mid := (lo + hi) / 2
			sat, perr := r.kneeProbe(s, p, mid, ks)
			if perr != nil {
				return nil, perr
			}
			if sat {
				hi = mid
			} else {
				lo = mid
			}
		}
		ks.hasKnee, ks.k = true, hi
		r.logf("fidelity: knee-search %s located knee at ant=%d (probe resid %.3f)",
			sigLabel(p), ks.k, ks.resid)
	}
	return ks, nil
}

// kneeProbe classifies tier t's regime from a DES probe at the primary
// anchor seed (caller holds s.mu). Real probes run through ensureAnchor,
// so off-grid probe tiers become ordinary (persisted, cache-shared)
// anchors that interp never reads but memoizedAnchor and coincident DES
// points do; at off-grid tiers the probe also measures how well the
// serving curve reproduces the probe — the residual kneePlan folds into
// the widened bound.
func (r *Router) kneeProbe(s *sigCalib, p core.Params, t int, ks *kneeState) (bool, error) {
	pt := p
	pt.Seed = r.cfg.AnchorSeeds[0]
	pt.AntagonistCores = t
	pred, err := core.RunFluid(pt)
	if err != nil {
		return false, err
	}
	var des core.Results
	if r.kneeProbeFn != nil {
		r.tally(func(c *Counters) { c.KneeProbes++ })
		if des, err = r.kneeProbeFn(pt); err != nil {
			return false, err
		}
	} else {
		fresh := s.anchors[t] == nil
		a, aerr := r.ensureAnchor(s, p, t)
		if aerr != nil {
			return false, aerr
		}
		if fresh {
			r.tally(func(c *Counters) { c.KneeProbes++ })
		}
		des = a.des
		if !r.gridTier(t) {
			adj, _, _, cok, cerr := r.calibrateLocked(s, pt, pred)
			if cerr != nil {
				return false, cerr
			}
			if cok {
				ks.resid = math.Max(ks.resid, observedError(adj, des))
			}
		}
	}
	sat := des.DropRatePct > kneeSatDrop
	if pred.DemandGbps > minFluidGbps && des.AppThroughputGbps < kneeSatFrac*pred.DemandGbps {
		sat = true
	}
	return sat, nil
}

// Prefetch materializes everything p's signature needs to serve points
// without first-touch calibration stalls — the anchor grid (or borrowed
// transfer curve plus refinement probes), both noise tiers, and, when
// knee search is on and the signature has a tier-dependent knee band,
// the located knee — without executing any point. Serve coordinators
// dispense this per distinct signature as prefetch leases so N workers
// calibrate in parallel before range execution; everything it computes
// lands in the shared run cache and warm store, so the work is visible
// fleet-wide. No-op outside ModeAuto and for fluid-unsupported
// signatures (those route straight to DES).
func (r *Router) Prefetch(p core.Params) error {
	if r.cfg.Mode != ModeAuto {
		return nil
	}
	if _, err := core.RunFluid(p); err != nil {
		if isUnsupported(err) {
			return nil
		}
		return err
	}
	ants := r.cfg.AnchorAnts
	lo, hi := ants[0], ants[len(ants)-1]
	// Calibrate at one tier per noise regime (at or below the median
	// grid anchor, and above it) so the full grid and both noise tiers
	// materialize. Non-grid tiers are preferred: interpolation is what
	// forces full-grid materialization.
	mid := ants[len(ants)/2]
	targets := make([]int, 0, 2)
	for _, want := range []func(int) bool{
		func(x int) bool { return x <= mid },
		func(x int) bool { return x > mid },
	} {
		t := -1
		for x := lo; x <= hi; x++ {
			if !want(x) {
				continue
			}
			if t < 0 {
				t = x
			}
			if !r.gridTier(x) {
				t = x
				break
			}
		}
		if t >= 0 {
			targets = append(targets, t)
		}
	}
	for _, t := range targets {
		pt := p
		pt.AntagonistCores = t
		pred, err := core.RunFluid(pt)
		if err != nil {
			if isUnsupported(err) {
				continue
			}
			return err
		}
		if _, _, _, _, cerr := r.calibrate(pt, pred); cerr != nil {
			return cerr
		}
	}
	if !r.cfg.KneeSearch {
		return nil
	}
	// Scan the hull for a tier-dependent knee band; the first hit runs
	// the bisection (one located knee serves the whole signature).
	for x := lo; x <= hi; x++ {
		pt := p
		pt.AntagonistCores = x
		pred, err := core.RunFluid(pt)
		if err != nil {
			if isUnsupported(err) {
				return nil
			}
			return err
		}
		if why, near := nearKnee(pred); near && !strings.HasPrefix(why, "iotlb") {
			_, kerr := r.kneeFor(pt)
			return kerr
		}
	}
	return nil
}

// gridTier reports whether t is on the anchor grid.
func (r *Router) gridTier(t int) bool {
	for _, a := range r.cfg.AnchorAnts {
		if a == t {
			return true
		}
	}
	return false
}
