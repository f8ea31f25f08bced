package fidelity

import (
	"flag"
	"fmt"
	"io"

	"hic/internal/runcache"
)

// Flags bundles the standard command-line fidelity knobs so every
// driver (hicsweep, hiccluster, hicfigs) exposes the same interface.
type Flags struct {
	Mode      string
	Tol       float64
	AuditRate float64
	EarlyStop bool

	Warm          string
	WarmDir       string
	WarmURL       string
	WarmAuditRate float64
}

// DefaultWarmDir is where the persistent warm-start store lives unless
// -warm-dir overrides it — deliberately separate from the result
// cache's results/cache so pruning one never evicts the other.
const DefaultWarmDir = "results/warm"

// RegisterFlags installs the fidelity flags on fs with the given
// default mode ("des" keeps published-figure paths exact by default).
func RegisterFlags(fs *flag.FlagSet, defaultMode Mode) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Mode, "fidelity", string(defaultMode),
		"execution fidelity: des (exact simulation), fluid (uncalibrated analytic preview), auto (calibrated fluid where sound, DES elsewhere)")
	fs.Float64Var(&f.Tol, "fidelity-tol", 0.05,
		"auto-mode routing tolerance: max acceptable calibrated error (fraction)")
	fs.Float64Var(&f.AuditRate, "audit-rate", 0,
		"shadow-run DES on this fraction of fluid-routed points and record the observed error (auto mode)")
	fs.BoolVar(&f.EarlyStop, "early-stop", false,
		"terminate DES measurement windows once goodput and drop moments reach steady state (approximate)")
	fs.StringVar(&f.Warm, "warm", string(WarmOff),
		"cross-run warm start: off, calib (persist and reload calibration anchors), full (calib plus checkpointed DES warm starts)")
	fs.StringVar(&f.WarmDir, "warm-dir", DefaultWarmDir,
		"persistent warm-start store directory (calibration state and steady-state checkpoints)")
	fs.StringVar(&f.WarmURL, "warm-url", "",
		"share a hicserve coordinator's warm store over HTTP instead of -warm-dir (e.g. http://coordinator:8091)")
	fs.Float64Var(&f.WarmAuditRate, "warm-audit-rate", 0.05,
		"cold-re-run this fraction of warm-startable points and record the observed warm-start error")
	return f
}

// Router builds the configured router, or nil when the flags select the
// pure-DES legacy path (mode des, no early stop, warm start off) —
// callers should leave their executor unset in that case so results and
// cache keys stay byte-identical to the pre-fidelity binaries.
// anchorSeeds may be nil (defaults apply); fleet drivers pass their own
// seed pool. A warm mode other than off opens the warm store under
// WarmDir and forces a router even in pure-DES mode.
func (f *Flags) Router(cache *runcache.Store, anchorSeeds []uint64, log io.Writer) (*Router, error) {
	mode, err := ParseMode(f.Mode)
	if err != nil {
		return nil, err
	}
	warm, err := ParseWarmMode(f.Warm)
	if err != nil {
		return nil, err
	}
	if mode == ModeDES && !f.EarlyStop && warm == WarmOff {
		return nil, nil
	}
	var warmStore *runcache.Store
	if warm != WarmOff {
		if f.WarmURL != "" {
			warmStore = runcache.NewStore(runcache.NewHTTP(
				runcache.RemoteURL(f.WarmURL, runcache.RemoteWarmPath), nil))
		} else if warmStore, err = runcache.Open(f.WarmDir); err != nil {
			return nil, fmt.Errorf("fidelity: opening warm store: %w", err)
		}
	}
	return New(Config{
		Mode:          mode,
		Tol:           f.Tol,
		AuditRate:     f.AuditRate,
		EarlyStop:     f.EarlyStop,
		Cache:         cache,
		AnchorSeeds:   anchorSeeds,
		Log:           log,
		Warm:          warm,
		WarmStore:     warmStore,
		WarmAuditRate: f.WarmAuditRate,
	})
}
