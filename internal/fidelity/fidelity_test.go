package fidelity

import (
	"io"
	"reflect"
	"testing"

	"hic/internal/core"
	"hic/internal/sim"
)

func mustRouter(t testing.TB, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// coarseGrid is the fig3 thread sweep plus the fig6 antagonist sweep at
// short windows — the property-test domain. Points use a seed outside
// the router's AnchorSeeds: anchor-coincident points (anchor seed ×
// anchor antagonist) are served the calibration's own DES result, so
// the fluid path this grid exercises is only reachable off-anchor.
func coarseGrid() []core.Params {
	warmup, measure := 4*sim.Millisecond, 6*sim.Millisecond
	var ps []core.Params
	for _, th := range []int{2, 4, 8, 12, 16} {
		p := core.DefaultParams(th)
		p.Seed = 7
		p.Warmup, p.Measure = warmup, measure
		ps = append(ps, p)
	}
	for _, ant := range []int{0, 2, 4, 6, 8, 10, 12, 15} {
		p := core.DefaultParams(12)
		p.Seed = 7
		p.AntagonistCores = ant
		p.Warmup, p.Measure = warmup, measure
		ps = append(ps, p)
	}
	return ps
}

func TestParseMode(t *testing.T) {
	for _, good := range []string{"des", "fluid", "auto"} {
		if _, err := ParseMode(good); err != nil {
			t.Errorf("ParseMode(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"", "DES", "hybrid", "exact"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q): want error", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Tol: 1.5}); err == nil {
		t.Error("Tol 1.5 accepted")
	}
	if _, err := New(Config{AuditRate: -0.1}); err == nil {
		t.Error("AuditRate -0.1 accepted")
	}
	if _, err := New(Config{AnchorAnts: []int{3, 3}}); err == nil {
		t.Error("duplicate AnchorAnts accepted")
	}
	if _, err := New(Config{AnchorAnts: []int{-1, 4}}); err == nil {
		t.Error("negative AnchorAnts accepted")
	}
	r := mustRouter(t, Config{AnchorAnts: []int{10, 0, 6}})
	if got := r.cfg.AnchorAnts; !reflect.DeepEqual(got, []int{0, 6, 10}) {
		t.Errorf("AnchorAnts not sorted: %v", got)
	}
}

// TestModeDESMatchesPlainRun asserts the ModeDES router is transparent:
// same version salt and identical Results to the executor-free path.
func TestModeDESMatchesPlainRun(t *testing.T) {
	r := mustRouter(t, Config{Mode: ModeDES})
	p := core.DefaultParams(4)
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond

	version, _, err := r.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if version != core.SimVersion {
		t.Fatalf("ModeDES version = %q, want %q", version, core.SimVersion)
	}
	got, err := core.RunVia(r, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunOn(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ModeDES result differs from core.RunOn:\n got %+v\nwant %+v", got, want)
	}
	c := r.Counters()
	if c.DESRouted != 1 || c.FluidRouted != 0 {
		t.Errorf("counters = %+v, want exactly one DES execution", c)
	}
}

// TestAutoWithinTolerance is the headline property: across the coarse
// fig3/fig6 grid, every point ModeAuto routes to calibrated fluid is
// within the configured tolerance of full DES.
func TestAutoWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("DES comparison grid is slow")
	}
	const tol = 0.05
	r := mustRouter(t, Config{Mode: ModeAuto, Tol: tol})
	fluidPts := 0
	for _, p := range coarseGrid() {
		version, run, err := r.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		des, err := core.RunOn(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if version == core.SimVersion || r.estop != nil {
			continue // DES-routed: trivially exact
		}
		got, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		fluidPts++
		if e := observedError(got, des); e > tol {
			t.Errorf("threads=%d ant=%d: fluid-routed error %.4f > tol %.3f (fluid %.2f Gbps/%.3f%%, DES %.2f Gbps/%.3f%%)",
				p.Threads, p.AntagonistCores, e, tol,
				got.AppThroughputGbps, got.DropRatePct, des.AppThroughputGbps, des.DropRatePct)
		} else {
			t.Logf("threads=%2d ant=%2d: fluid-routed, error %.4f (fluid %.2f, DES %.2f)",
				p.Threads, p.AntagonistCores, e, got.AppThroughputGbps, des.AppThroughputGbps)
		}
	}
	t.Logf("fluid-routed %d points; counters %+v", fluidPts, r.Counters())
	if fluidPts == 0 {
		t.Error("no point on the coarse grid was fluid-routed; routing is vacuous")
	}
}

// TestAuditDeterministicAndAuthoritative: with AuditRate 1 every
// would-be-fluid point runs DES, returns the DES result, and records the
// observed error.
func TestAuditDeterministicAndAuthoritative(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	r := mustRouter(t, Config{Mode: ModeAuto, Tol: 0.05, AuditRate: 1})
	p := core.DefaultParams(4)
	// Off-anchor seed: anchor-coincident points return the calibration's
	// DES result directly and never reach the audit path.
	p.Seed = 7
	p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond

	version, run, err := r.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if version != core.SimVersion {
		// The point may legitimately be DES-routed (knee/tolerance); the
		// audit path only exists for fluid-routed points.
		t.Skipf("point not fluid-routed (version %q); audit not reachable", version)
	}
	got, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunOn(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("audited point did not return the authoritative DES result")
	}
	c := r.Counters()
	if c.Audited != 1 {
		t.Fatalf("Audited = %d, want 1", c.Audited)
	}
	if c.AuditMaxErr > r.Tol() {
		t.Errorf("observed audit error %.4f exceeds tolerance %.3f", c.AuditMaxErr, r.Tol())
	}
}

func TestAuditSamplingDeterministic(t *testing.T) {
	r := mustRouter(t, Config{Mode: ModeAuto, AuditRate: 0.3})
	hits := 0
	for i := 0; i < 200; i++ {
		p := core.DefaultParams(4)
		p.Seed = uint64(i + 1)
		canon := p.Canonical()
		a, b := r.audit(canon), r.audit(canon)
		if a != b {
			t.Fatal("audit sampling not deterministic")
		}
		if a {
			hits++
		}
	}
	if hits < 30 || hits > 90 {
		t.Errorf("audit rate 0.3 sampled %d/200; expected roughly 60", hits)
	}
}

func TestSignatureGroupsSeedsAndAnts(t *testing.T) {
	p := core.DefaultParams(8)
	q := p
	q.Seed = 99
	q.AntagonistCores = 7
	if signature(p) != signature(q) {
		t.Error("signature should ignore Seed and AntagonistCores")
	}
	q2 := p
	q2.Threads = 9
	if signature(p) == signature(q2) {
		t.Error("signature should distinguish Threads")
	}
}

// TestLedgerCoversCounters fails when a uint64 field is added to
// Counters without a ledger row: the counter would silently drop out of
// Add, Sub, the hic_fidelity_* exposition and every fleet and serve
// total built on them.
func TestLedgerCoversCounters(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	var want []uint64
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(uint64(i + 1))
			want = append(want, uint64(i+1))
		}
	}
	got := map[uint64]string{}
	names := map[string]bool{}
	c.Each(func(name string, n uint64) {
		if prev, dup := got[n]; dup {
			t.Errorf("ledger rows %q and %q read the same field", prev, name)
		}
		if names[name] {
			t.Errorf("ledger series %q listed twice", name)
		}
		got[n], names[name] = name, true
	})
	for _, n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("Counters field %s has no ledger row", v.Type().Field(int(n-1)).Name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("ledger has %d rows, Counters has %d uint64 fields", len(got), len(want))
	}
}

// TestCountersAddSub: Add sums counters and keeps the larger audit
// maxima; Sub undoes Add on the counters and keeps the after side's
// maxima.
func TestCountersAddSub(t *testing.T) {
	a := Counters{FluidRouted: 3, KneeForced: 1, WarmAuditOverTol: 2, AuditMaxErr: 0.04, WarmAuditMaxErr: 0.01}
	b := Counters{FluidRouted: 5, AnchorReused: 7, AuditMaxErr: 0.02, WarmAuditMaxErr: 0.03}
	sum := a.Add(b)
	want := Counters{FluidRouted: 8, KneeForced: 1, AnchorReused: 7, WarmAuditOverTol: 2,
		AuditMaxErr: 0.04, WarmAuditMaxErr: 0.03}
	if sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
	d := sum.Sub(a)
	b.AuditMaxErr, b.WarmAuditMaxErr = sum.AuditMaxErr, sum.WarmAuditMaxErr
	if d != b {
		t.Fatalf("Sub = %+v, want %+v", d, b)
	}
}

// TestPlanWithoutLogSkipsFormatting: a router without a log never
// formats its routing diagnostics, so planning a DES-routed point
// allocates less than it does with a log installed.
func TestPlanWithoutLogSkipsFormatting(t *testing.T) {
	p := core.DefaultParams(4)
	allocs := func(log io.Writer) float64 {
		r := mustRouter(t, Config{Mode: ModeDES, Log: log})
		return testing.AllocsPerRun(50, func() {
			if _, _, err := r.Plan(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	quiet, logged := allocs(nil), allocs(io.Discard)
	if quiet >= logged {
		t.Errorf("Plan allocates %.0f per call without a log, %.0f with one; want fewer without", quiet, logged)
	}
}
