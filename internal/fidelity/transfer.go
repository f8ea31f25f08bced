package fidelity

// Cross-signature calibration transfer: a signature with no calibration
// of its own borrows anchor gains and drop offsets from the nearest
// calibrated hub in SKU/workload space, with the error bound inflated
// by the signature-space distance — the observation (from the IOMMU
// interference and HPC congestion-characterization literature, see
// PAPERS.md) that contention onsets and gain curves move smoothly with
// configuration. When the inflated bound clears tolerance the spoke
// skips anchor DES entirely; otherwise it runs a reduced probe set and
// refines only the tiers where the measured transfer residual actually
// blocks fluid routing.
//
// Assignments come from a roster installed by SetRoster — the sweep's
// distinct signatures, known up front by catalog callers (cluster,
// serve) — never from "whichever signature happened to calibrate
// first": routing must be a pure function of (router config, roster,
// point), independent of query or shard order. Like the knee states,
// borrowed curves are memoized per donor and never persisted; the donor
// DES behind them persists as the donor's ordinary anchors.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hic/internal/core"
	"hic/internal/fluid"
	"hic/internal/runcache"
	"hic/internal/sim"
)

const (
	// transferAlpha converts signature-space distance into error-bound
	// inflation (absolute error fraction per unit distance). At the
	// default tolerance 0.10 with routeMargin 0.8, a pure transfer must
	// clear a 0.08 gate, so alpha 0.05 lets a near-identical workload
	// (dist ≲ 0.5) borrow outright while a full-radius spoke pays the
	// larger penalty and usually probes.
	transferAlpha = 0.05
	// transferRadius caps the signature-space distance a spoke may
	// borrow across (sigDistance defines the metric). 1.2 keeps donors
	// within the same workload family (thread/sender/region ratios
	// within ~2×): on the fleet catalog the wider 2.5 radius admits
	// cross-duty-cycle donors whose 25%-audit error tail grazes the
	// tolerance.
	transferRadius = 1.2
	// xferNoiseInflate widens the donor's smooth-regime (mid-tier)
	// seed-to-seed noise before it stands in for the spoke's own. Only
	// the mid tier transfers at all: high-tier noise is knee-position-
	// specific (observed spoke/donor ratios above 5× on the fleet
	// catalog), so every spoke measures its own top-tier noise pair.
	xferNoiseInflate = 1.75
)

// TransferEnabled reports whether this router participates in roster
// building (callers skip the signature scan otherwise).
func (r *Router) TransferEnabled() bool {
	return r.cfg.Transfer && r.cfg.Mode == ModeAuto
}

// SignatureKey exposes the calibration signature (Params with Seed and
// AntagonistCores cleared, canonically encoded) so sweep drivers can
// enumerate distinct signatures for SetRoster and prefetch leases.
func SignatureKey(p core.Params) string { return signature(p) }

// xferAssign is one roster entry: the donor hub a spoke signature
// borrows from.
type xferAssign struct {
	donorKey string
	donorRep core.Params
	dist     float64
}

type roster struct {
	key    string
	assign map[string]*xferAssign // spoke signature key → donor
}

// SetRoster installs the sweep's signature roster and computes the
// hub/spoke assignment. reps is one representative Params per point the
// sweep will execute (duplicates and extra Seed/AntagonistCores
// variation are fine — signatures are deduplicated). Clustering is
// greedy over the canonically-sorted signature list: the first
// signature of each neighborhood becomes a hub (calibrates its own
// grid), later signatures within transferRadius of an existing hub
// become its spokes. Sorting first makes the assignment a pure function
// of the signature *set*, so every worker and every shard order builds
// the identical roster. Installing a roster with the same signature set
// is a no-op; a genuinely different set (a new query in a serving
// process) replaces the assignment, and memoized per-donor state keeps
// already-resident signatures consistent.
func (r *Router) SetRoster(reps []core.Params) {
	if !r.TransferEnabled() || len(reps) == 0 {
		return
	}
	byKey := make(map[string]core.Params, len(reps))
	keys := make([]string, 0, len(reps))
	for _, p := range reps {
		k := signature(p)
		if _, ok := byKey[k]; !ok {
			byKey[k] = p
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	rosterKey := runcache.Key("hic-roster-1",
		fmt.Sprintf("r=%g|", transferRadius)+strings.Join(keys, "\n"))

	r.mu.Lock()
	if r.roster != nil && r.roster.key == rosterKey {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	type hub struct {
		key     string
		rep     core.Params
		members []string // cluster members including the hub itself
	}
	var hubs []*hub
	for _, k := range keys {
		p := byKey[k]
		best, bestD := -1, math.Inf(1)
		for i, h := range hubs {
			if d := sigDistance(p, h.rep); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 && bestD <= transferRadius {
			hubs[best].members = append(hubs[best].members, k)
		} else {
			hubs = append(hubs, &hub{key: k, rep: p, members: []string{k}})
		}
	}
	// The greedy pass makes whichever signature sorts first in each
	// neighborhood the hub — an arbitrary, often eccentric choice. Remake
	// each cluster around its medoid (minimum total distance to the other
	// members, first-in-sorted-order on ties): spokes end up closer to
	// their donor, so more of them clear the pure-transfer gate. Still a
	// pure function of the signature set.
	assign := make(map[string]*xferAssign)
	for _, h := range hubs {
		med, medSum := h.key, math.Inf(1)
		for _, cand := range h.members {
			sum := 0.0
			for _, m := range h.members {
				sum += sigDistance(byKey[cand], byKey[m])
			}
			if sum < medSum {
				med, medSum = cand, sum
			}
		}
		for _, m := range h.members {
			if m != med {
				assign[m] = &xferAssign{
					donorKey: med,
					donorRep: byKey[med],
					dist:     sigDistance(byKey[m], byKey[med]),
				}
			}
		}
	}

	r.mu.Lock()
	r.roster = &roster{key: rosterKey, assign: assign}
	r.mu.Unlock()
	r.logf("fidelity: roster %d signatures, %d hubs, %d spokes (radius %g)",
		len(keys), len(keys)-len(assign), len(assign), transferRadius)
}

// assignFor returns the roster's donor assignment for p's signature
// (nil for hubs, unknown signatures, or when no roster is installed).
func (r *Router) assignFor(p core.Params) *xferAssign {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.roster == nil {
		return nil
	}
	return r.roster.assign[signature(p)]
}

// sigDistance is the SKU/workload-space metric the roster clusters by.
// Infinite unless the signatures agree on every structural mechanism
// knob (CC, IOMMU/hugepages, windows, ablation switches — everything
// Canonical encodes once the scaled axes below are cleared): transfer
// interpolates a gain curve, and a mechanism change moves the regime
// structure, not just the curve's level. The finite part sums
// log-ratios of the hardware-scale axes (threads, Rx region, senders)
// and the workload's offered-load/burst shape.
func sigDistance(a, b core.Params) float64 {
	sa, sb := a, b
	for _, p := range []*core.Params{&sa, &sb} {
		p.Seed = 0
		p.AntagonistCores = 0
		p.Threads = 0
		p.Senders = 0
		p.RxRegionBytes = 0
		p.OfferedGbps = 0
		p.BurstDuty = 0
		p.BurstPeriod = 0
	}
	if sa.Canonical() != sb.Canonical() {
		return math.Inf(1)
	}
	burstA, burstB := a.BurstDuty > 0, b.BurstDuty > 0
	if burstA != burstB {
		// Steady and bursty workloads saturate through different
		// mechanisms (sustained ρ vs NIC-buffer overflow at burst
		// onset); their gain curves don't transfer.
		return math.Inf(1)
	}
	d := logRatio(float64(a.Threads), float64(b.Threads)) +
		logRatio(float64(a.RxRegionBytes), float64(b.RxRegionBytes)) +
		0.5*logRatio(float64(a.Senders), float64(b.Senders))

	// Uncapped demand behaves like a ~line-rate offer for distance
	// purposes, but capped vs uncapped still differ qualitatively (the
	// drop-onset position moves), so the mismatch adds a fixed penalty.
	oa, ob := a.OfferedGbps, b.OfferedGbps
	if (oa == 0) != (ob == 0) {
		d += 0.25
	}
	if oa == 0 {
		oa = 100
	}
	if ob == 0 {
		ob = 100
	}
	d += logRatio(oa, ob)

	if burstA {
		d += 2 * math.Abs(a.BurstDuty-b.BurstDuty)
		pa, pb := a.BurstPeriod, b.BurstPeriod
		if pa == 0 {
			pa = defaultBurstPeriod
		}
		if pb == 0 {
			pb = defaultBurstPeriod
		}
		d += logRatio(float64(pa), float64(pb))
	}
	return d
}

// defaultBurstPeriod mirrors core's BurstPeriod default (2 ms).
const defaultBurstPeriod = 2 * sim.Millisecond

func logRatio(x, y float64) float64 {
	if x <= 0 || y <= 0 {
		if x == y {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(math.Log2(x / y))
}

// xferCurve is a borrowed (possibly partially refined) calibration
// curve: per grid tier, the gain/drop offset the spoke serves from,
// whether that tier is the spoke's own anchor (own[t]) or the donor's,
// the residual bound attributed to the tier, and the donor's noise
// measurements.
type xferCurve struct {
	failed bool // donor uncalibratable → spoke falls back to its own grid
	pure   bool // no spoke probes run: bound carries the full distance term
	ants   []int
	gain   []float64
	drop   []float64
	own    map[int]bool
	resid  []float64 // per tier: donor xval residual, probe residual, or 0 (own)
	noise  map[int]float64
	dist   float64
	label  string // cache salt for results served from this curve
}

// ensureXfer materializes (or returns the memoized) borrowed curve for
// p under assignment asn. Caller holds s.mu.
func (r *Router) ensureXfer(s *sigCalib, p core.Params, asn *xferAssign) (*xferCurve, error) {
	if c := s.xfers[asn.donorKey]; c != nil {
		return c, nil
	}
	c, err := r.buildXfer(s, p, asn)
	if err != nil {
		return nil, err
	}
	s.xfers[asn.donorKey] = c
	return c, nil
}

// buildXfer materializes the donor's full grid and decides pure
// transfer vs probed refinement. Lock ordering: the caller holds the
// spoke's s.mu and this takes the donor's d.mu — safe because donors
// are always hubs and hubs never borrow, so the reverse nesting cannot
// occur.
func (r *Router) buildXfer(s *sigCalib, p core.Params, asn *xferAssign) (*xferCurve, error) {
	ants := r.cfg.AnchorAnts
	d := r.sigFor(asn.donorRep)
	donorGain := make([]float64, len(ants))
	donorDrop := make([]float64, len(ants))
	donorDES := make([]core.Results, len(ants))
	noise := make(map[int]float64, 2)
	donorResid := 0.0
	fail := false
	func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		r.loadSig(d, asn.donorRep)
		pts := make([]*anchorPoint, len(ants))
		for i, a := range ants {
			ap, err := r.ensureAnchor(d, asn.donorRep, a)
			if err != nil || !ap.ok {
				fail = true
				return
			}
			pts[i] = ap
			donorGain[i], donorDrop[i], donorDES[i] = ap.gain, ap.dropOff, ap.des
		}
		// Only the smooth-regime mid-tier noise transfers (inflated).
		// High-tier seed noise is knee-position-specific: the donor's
		// knee can sit tiers away from the spoke's, and a quiet donor
		// measurement would let fluid routing pass exactly where the
		// spoke's own near-knee noise must block it.
		midT := r.noiseTier(ants[0])
		n, nerr := r.ensureNoise(d, asn.donorRep, midT)
		if nerr != nil {
			fail = true
			return
		}
		noise[midT] = xferNoiseInflate * n
		// Global interior cross-validation residual: the donor curve's
		// own interpolation error, before any transfer penalty.
		for i := 1; i < len(ants)-1; i++ {
			t := float64(ants[i]-ants[i-1]) / float64(ants[i+1]-ants[i-1])
			gHat := pts[i-1].gain + t*(pts[i+1].gain-pts[i-1].gain)
			dHat := pts[i-1].dropOff + t*(pts[i+1].dropOff-pts[i-1].dropOff)
			donorResid = math.Max(donorResid, math.Abs(gHat-pts[i].gain)/pts[i].gain)
			donorResid = math.Max(donorResid, math.Abs(dHat-pts[i].dropOff))
		}
	}()
	if fail {
		r.logf("fidelity: transfer %s: donor uncalibratable, using own grid", sigLabel(p))
		return &xferCurve{failed: true}, nil
	}

	// The spoke measures its own top-tier noise pair: two DES runs that
	// also give the borrowed curve an own top anchor, and the only
	// honest bound for serving points in the high-noise regime. Both
	// runs are ordinary grid anchors, so nothing is wasted if transfer
	// falls back to the own grid below.
	topT := ants[len(ants)-1]
	apTop, err := r.ensureAnchor(s, p, topT)
	if err != nil {
		return nil, err
	}
	if !apTop.ok {
		r.logf("fidelity: transfer %s: own top anchor untrustworthy, using own grid", sigLabel(p))
		return &xferCurve{failed: true}, nil
	}
	ownTop, err := r.ensureNoise(s, p, topT)
	if err != nil {
		return nil, err
	}
	noise[topT] = ownTop

	donorHash := runcache.Key("hic-xfer-donor-1", asn.donorKey)[:8]
	maxNoise, minNoise := 0.0, math.Inf(1)
	for _, n := range noise {
		maxNoise = math.Max(maxNoise, n)
		minNoise = math.Min(minNoise, n)
	}
	c := &xferCurve{
		ants:  ants,
		gain:  append([]float64(nil), donorGain...),
		drop:  append([]float64(nil), donorDrop...),
		own:   make(map[int]bool),
		resid: make([]float64, len(ants)),
		noise: noise,
		dist:  asn.dist,
	}
	iTop := len(ants) - 1
	c.own[topT] = true
	c.gain[iTop], c.drop[iTop] = apTop.gain, apTop.dropOff
	gate := routeMargin * r.tol

	// Pure transfer: if the donor's own residual plus the full distance
	// penalty clears the routing gate at the noisiest tier, the spoke
	// runs no DES beyond the mandatory top-tier noise pair.
	if math.Max(xvalMargin*donorResid, maxNoise)+errFloor+transferAlpha*asn.dist <= gate {
		c.pure = true
		for i := range c.resid {
			c.resid[i] = donorResid
		}
		c.label = r.ownCalVersion() + fmt.Sprintf("+xfer(d=%s,pure)", donorHash)
		r.tally(func(c *Counters) { c.AnchorTransferred += uint64(len(ants) - 1); c.AnchorRefined++ })
		r.logf("fidelity: transfer %s ← %s dist=%.2f pure (donor resid %.3f, own top noise %.3f)",
			sigLabel(p), donorHash, asn.dist, donorResid, ownTop)
		return c, nil
	}

	// Probed transfer pays a halved distance term (the probes measure
	// most of what the penalty guards against). If even a zero-residual
	// borrowed tier at the quieter noise tier would still be blocked by
	// that term, transfer cannot route anything this spoke's own grid
	// wouldn't — skip the probes and calibrate from the own grid, which
	// carries no distance penalty.
	if minNoise+errFloor+transferAlpha*asn.dist/2 > gate {
		r.logf("fidelity: transfer %s ← %s dist=%.2f too far to borrow, using own grid",
			sigLabel(p), donorHash, asn.dist)
		return &xferCurve{failed: true}, nil
	}

	// Probed transfer: run the spoke's own anchors at two interior
	// tiers, measure how far the donor curve is from the spoke's truth
	// there, and attribute each borrowed tier the nearest probe's
	// residual.
	probeTiers := []int{ants[1], ants[len(ants)-2]}
	probeResid := make(map[int]float64, len(probeTiers))
	for _, t := range probeTiers {
		ap, err := r.ensureAnchor(s, p, t)
		if err != nil {
			return nil, err
		}
		pt := p
		pt.Seed = r.cfg.AnchorSeeds[0]
		pt.AntagonistCores = t
		pred, err := core.RunFluid(pt)
		if err != nil {
			return nil, err
		}
		i := tierIndex(ants, t)
		borrowed := applyCalibration(pred, donorGain[i], donorDrop[i])
		probeResid[t] = observedError(borrowed, ap.des)
		c.own[t] = true
		c.gain[i], c.drop[i] = ap.gain, ap.dropOff
		if !ap.ok {
			r.logf("fidelity: transfer %s: own probe at ant=%d untrustworthy, using own grid", sigLabel(p), t)
			return &xferCurve{failed: true}, nil
		}
	}

	distTerm := transferAlpha * asn.dist / 2
	var refined []int
	transferred := 0
	for i, a := range ants {
		if c.own[a] {
			continue
		}
		// The nearest probe's residual measures the donor→spoke level
		// shift; the donor's own cross-validated residual still bounds
		// the between-anchor curvature of the borrowed curve. Both
		// apply, as does the noise at the tier the serving bound will
		// actually consult.
		resid := math.Max(probeResid[nearestTier(probeTiers, a)], donorResid)
		noiseA := c.noise[r.noiseTier(a)]
		if math.Max(xvalMargin*resid, noiseA)+errFloor+distTerm > gate {
			if noiseA+errFloor+distTerm > gate {
				// Seed noise alone blocks fluid routing at this tier;
				// an own anchor cannot unblock it, so keep the borrowed
				// value and let the bound route these points to DES.
				c.resid[i] = resid
				continue
			}
			// Borrowing this tier would block fluid routing anyway:
			// refine it with the spoke's own anchor.
			ap, err := r.ensureAnchor(s, p, a)
			if err != nil {
				return nil, err
			}
			if !ap.ok {
				return &xferCurve{failed: true}, nil
			}
			c.own[a] = true
			c.gain[i], c.drop[i] = ap.gain, ap.dropOff
			refined = append(refined, a)
			continue
		}
		c.resid[i] = resid
		transferred++
	}
	if transferred == 0 {
		// The measured residuals refined every tier: the curve is all
		// own data, so the own-grid path (no distance penalty, proper
		// cross-validated bounds) serves it better — and it reuses the
		// anchors just run, so the probes aren't wasted.
		r.logf("fidelity: transfer %s ← %s dist=%.2f refined everything, using own grid",
			sigLabel(p), donorHash, asn.dist)
		return &xferCurve{failed: true}, nil
	}
	ownTiers := make([]int, 0, len(c.own))
	for t := range c.own {
		ownTiers = append(ownTiers, t)
	}
	sort.Ints(ownTiers)
	c.label = r.ownCalVersion() + fmt.Sprintf("+xfer(d=%s,own=%v)", donorHash, ownTiers)
	r.tally(func(c *Counters) {
		c.AnchorTransferred += uint64(transferred)
		c.AnchorRefined += uint64(1 + len(probeTiers) + len(refined))
	})
	r.logf("fidelity: transfer %s ← %s dist=%.2f probed (%d borrowed, %d refined, probe resid %v)",
		sigLabel(p), donorHash, asn.dist, transferred, len(probeTiers)+len(refined), probeResid)
	return c, nil
}

// calibrateTransfer evaluates the borrowed curve at p. ok=false (with
// no error) means transfer is unusable for this signature (failed donor)
// and the caller should calibrate from the spoke's own grid.
func (r *Router) calibrateTransfer(s *sigCalib, p core.Params, pred fluid.Prediction, asn *xferAssign) (core.Results, float64, string, bool, error) {
	c, err := r.ensureXfer(s, p, asn)
	if err != nil {
		return core.Results{}, 0, "", false, err
	}
	if c.failed {
		return core.Results{}, 0, "", false, nil
	}
	x := p.AntagonistCores
	ants := c.ants
	// Bracketing tiers carry the residual attribution; an exact tier
	// pays only its own.
	lo := 0
	for i := 1; i < len(ants); i++ {
		if x <= ants[i] {
			lo = i - 1
			break
		}
	}
	hi := lo + 1
	if x == ants[lo] {
		hi = lo
	} else if x == ants[hi] {
		lo = hi
	}
	gain := interpF(ants, c.gain, x)
	drop := interpF(ants, c.drop, x)
	resid := math.Max(c.resid[lo], c.resid[hi])

	distTerm := transferAlpha * c.dist
	if !c.pure {
		distTerm /= 2
	}
	// Same structure as the own-grid bound (max of interpolation
	// residual and seed noise — they double-count otherwise) plus the
	// distance penalty, which is a genuinely independent error source.
	bound := math.Max(xvalMargin*resid, c.noise[r.noiseTier(x)]) + errFloor + distTerm
	return applyCalibration(pred, gain, drop), bound, c.label, true, nil
}

// coincidentEligible narrows anchorCoincident for transferring
// signatures: a spoke only ever runs its own DES at the curve's own
// (probe/refined) tiers under the primary seed, so only those points
// have a calibration run to coincide with — the rest route normally.
// Materializing the curve here is deliberate: eligibility must be
// structural (a function of signature + roster + config), not "has the
// spoke probed yet".
func (r *Router) coincidentEligible(p core.Params) (bool, error) {
	if !r.anchorCoincident(p) {
		return false, nil
	}
	asn := r.assignFor(p)
	if asn == nil {
		return true, nil
	}
	s := r.sigFor(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	r.loadSig(s, p)
	c, err := r.ensureXfer(s, p, asn)
	if err != nil {
		return false, err
	}
	if c.failed {
		return true, nil
	}
	return c.own[p.AntagonistCores] && p.Seed == r.cfg.AnchorSeeds[0], nil
}

func tierIndex(ants []int, t int) int {
	for i, a := range ants {
		if a == t {
			return i
		}
	}
	return -1
}

func nearestTier(tiers []int, x int) int {
	best, bestD := tiers[0], math.MaxInt
	for _, t := range tiers {
		if d := abs(t - x); d < bestD {
			best, bestD = t, d
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// interpF evaluates a piecewise-linear curve at x.
func interpF(ants []int, vals []float64, x int) float64 {
	for i := 1; i < len(ants); i++ {
		if x <= ants[i] {
			t := float64(x-ants[i-1]) / float64(ants[i]-ants[i-1])
			return vals[i-1] + t*(vals[i]-vals[i-1])
		}
	}
	return vals[len(vals)-1]
}
