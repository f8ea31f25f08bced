package fidelity

import (
	"sort"

	"hic/internal/core"
	"hic/internal/runcache"
)

// Persistent calibration store: the cross-run half of calibration. A
// signature's anchors, noise tiers, and memoized calibration DES runs
// are written to the warm store (a second content-addressed runcache
// namespace) whenever calibration computes something new, and reloaded
// on a signature's first touch in a later process — so a repeat
// hiccluster/hicsweep invocation routes fluid immediately instead of
// re-running DES anchors.
//
// Salting follows the run cache's invalidation-by-construction rule:
// the blob version embeds the DES salt anchors ran under (pure
// core.SimVersion or the early-stopped variant), core.FluidVersion (the
// model the gains were measured against), and the anchor grid and
// seeds. Bumping any of those makes old persisted calibrations
// unaddressable; they are never validated at load time because they can
// never be found. The "hic-calib-" version family is disjoint from
// every result salt (all of which start with core.SimVersion), so a
// persisted calibration can never satisfy a result lookup or vice
// versa. The router renders its salts once, in New (Router.desV,
// calibV, ckptV).

// persistedCalib is the on-disk form of a sigCalib.
type persistedCalib struct {
	Anchors []persistedAnchor `json:"anchors"`
	Noise   []persistedNoise  `json:"noise"`
	Runs    []persistedRun    `json:"runs"`
}

type persistedAnchor struct {
	Ant     int          `json:"ant"`
	Gain    float64      `json:"gain"`
	DropOff float64      `json:"drop_off"`
	UtilOff float64      `json:"util_off"`
	OK      bool         `json:"ok"`
	Des     core.Results `json:"des"`
}

type persistedNoise struct {
	Ant int     `json:"ant"`
	Err float64 `json:"err"`
}

type persistedRun struct {
	Ant  int          `json:"ant"`
	Seed uint64       `json:"seed"`
	Des  core.Results `json:"des"`
}

// calibPersistOn reports whether calibration state round-trips through
// the warm store (both warm modes persist calibration; WarmFull adds
// checkpoints).
func (r *Router) calibPersistOn() bool {
	return r.cfg.WarmStore != nil && (r.cfg.Warm == WarmCalib || r.cfg.Warm == WarmFull)
}

// loadSig consults the warm store the first time a signature is touched
// (caller holds s.mu). Loaded anchors and noise tiers short-circuit
// ensureAnchor/ensureNoise exactly as if this process had computed
// them; loaded DES runs feed ensureCoincidentDES, so anchor-coinciding
// fleet points are served their exact cold results without simulating.
func (r *Router) loadSig(s *sigCalib, p core.Params) {
	if s.loaded {
		return
	}
	s.loaded = true
	if r.calibPersistOn() {
		var pc persistedCalib
		v := r.calibV
		if r.cfg.WarmStore.GetBlob(runcache.Key(v, s.sig), v, s.sig, &pc) {
			n := 0
			for _, a := range pc.Anchors {
				if _, dup := s.anchors[a.Ant]; dup {
					continue
				}
				s.anchors[a.Ant] = &anchorPoint{gain: a.Gain, dropOff: a.DropOff, utilOff: a.UtilOff, des: a.Des, ok: a.OK}
				n++
			}
			for _, t := range pc.Noise {
				if _, dup := s.noise[t.Ant]; dup {
					continue
				}
				s.noise[t.Ant] = t.Err
				n++
			}
			for _, run := range pc.Runs {
				c := anchorCoord{run.Ant, run.Seed}
				if _, dup := s.des[c]; !dup {
					s.des[c] = run.Des
				}
			}
			if n > 0 {
				r.tally(func(c *Counters) { c.AnchorLoaded += uint64(n) })
				r.logf("fidelity: loaded %d persisted anchors/noise tiers for %s", n, sigLabel(p))
			}
		}
	}
	if r.warmFullOn() {
		// Donors are the set on disk now, but a point the result cache
		// serves never needs one: loadCkpts decodes on first use.
		s.ckptRaw, _ = r.cfg.WarmStore.LoadBlob(runcache.Key(r.ckptV, s.sig))
	}
}

// loadCkpts decodes the checkpoint entry loadSig read (caller holds
// s.mu, loadSig done).
func (r *Router) loadCkpts(s *sigCalib, p core.Params) {
	var pk persistedCkpts
	v := r.ckptV
	if s.ckptRaw != nil && r.cfg.WarmStore.DecodeBlob(runcache.Key(v, s.sig), v, s.sig, s.ckptRaw, &pk) {
		s.ckpts = pk.Ckpts
		for _, c := range pk.Ckpts {
			s.ckptCoords[anchorCoord{c.Ant, c.Seed}] = true
		}
		r.logf("fidelity: loaded %d persisted checkpoints for %s", len(pk.Ckpts), sigLabel(p))
	}
	s.ckptRaw = nil
}

// saveCalib writes the signature's full calibration state back to the
// warm store (caller holds s.mu). newItems is how many anchors/noise
// tiers this call added, for the AnchorPersisted counter. Failures are
// logged and swallowed: the store is an accelerator, never an error
// source.
func (r *Router) saveCalib(s *sigCalib, p core.Params, newItems int) {
	if !r.calibPersistOn() || newItems == 0 {
		return
	}
	pc := persistedCalib{}
	for ant, a := range s.anchors {
		pc.Anchors = append(pc.Anchors, persistedAnchor{
			Ant: ant, Gain: a.gain, DropOff: a.dropOff, UtilOff: a.utilOff, OK: a.ok, Des: a.des,
		})
	}
	for ant, e := range s.noise {
		pc.Noise = append(pc.Noise, persistedNoise{Ant: ant, Err: e})
	}
	for c, des := range s.des {
		pc.Runs = append(pc.Runs, persistedRun{Ant: c.ant, Seed: c.seed, Des: des})
	}
	// Map iteration order is random; sort so the file is deterministic
	// and diffs between runs are meaningful.
	sort.Slice(pc.Anchors, func(i, j int) bool { return pc.Anchors[i].Ant < pc.Anchors[j].Ant })
	sort.Slice(pc.Noise, func(i, j int) bool { return pc.Noise[i].Ant < pc.Noise[j].Ant })
	sort.Slice(pc.Runs, func(i, j int) bool {
		if pc.Runs[i].Ant != pc.Runs[j].Ant {
			return pc.Runs[i].Ant < pc.Runs[j].Ant
		}
		return pc.Runs[i].Seed < pc.Runs[j].Seed
	})
	v := r.calibV
	if err := r.cfg.WarmStore.PutBlob(runcache.Key(v, s.sig), v, s.sig, pc); err != nil {
		r.logf("fidelity: persisting calibration: %v", err)
		return
	}
	r.tally(func(c *Counters) { c.AnchorPersisted += uint64(newItems) })
}
