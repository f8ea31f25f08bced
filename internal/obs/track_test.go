package obs

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock shared by tracker tests so rates
// and ETAs are exact.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTrackerRateAndETA(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(clk.now)
	r := tr.StartRun("fleet", 100)

	// Four points per second, sampled once per second for five seconds.
	for i := 0; i < 5; i++ {
		clk.advance(time.Second)
		r.Advance(4)
	}
	sts := tr.Snapshot()
	if len(sts) != 1 {
		t.Fatalf("Snapshot length = %d, want 1", len(sts))
	}
	st := sts[0]
	if st.Run != "fleet" || st.Total != 100 || st.Done != 20 {
		t.Fatalf("status = %+v", st)
	}
	// First Advance lands exactly at one rateSampleInterval multiple, so
	// every call produced a sample at exactly 4 points/sec.
	if st.RateSamples != 5 || math.Abs(st.PointsPerSec-4) > 1e-9 {
		t.Errorf("rate = %.3f over %d samples, want 4.000 over 5", st.PointsPerSec, st.RateSamples)
	}
	if st.RateStddev > 1e-9 {
		t.Errorf("stddev = %g, want 0 for a constant rate", st.RateStddev)
	}
	if want := 80.0 / 4.0; math.Abs(st.EtaSec-want) > 1e-9 {
		t.Errorf("ETA = %.3f, want %.3f", st.EtaSec, want)
	}
	if st.ElapsedSec != 5 {
		t.Errorf("elapsed = %g, want 5", st.ElapsedSec)
	}
	if st.Finished {
		t.Error("run reported finished before Finish")
	}
}

func TestTrackerBurstFoldsIntoOneSample(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(clk.now)
	r := tr.StartRun("burst", 1000)

	// 10 Advance calls 10ms apart are below rateSampleInterval: they
	// must not each become a Welford observation.
	for i := 0; i < 10; i++ {
		clk.advance(10 * time.Millisecond)
		r.Advance(1)
	}
	clk.advance(300 * time.Millisecond)
	r.Advance(1)
	st := tr.Snapshot()[0]
	if st.RateSamples != 1 {
		t.Errorf("rate samples = %d, want 1 (burst folded)", st.RateSamples)
	}
	if st.Done != 11 {
		t.Errorf("done = %d, want 11", st.Done)
	}
}

func TestTrackerPhases(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(clk.now)
	r := tr.StartRun("figs", 6, "fig3", "fig6")

	clk.advance(time.Second)
	r.Advance(2)
	r.SetPhase("fig6")
	clk.advance(time.Second)
	r.Advance(3)
	r.SetPhase("extra") // unknown phases are appended
	clk.advance(time.Second)
	r.Advance(1)

	st := tr.Snapshot()[0]
	if st.Phase != "extra" {
		t.Errorf("active phase = %q, want %q", st.Phase, "extra")
	}
	want := []PhaseStatus{
		{Name: "fig3", Done: 2},
		{Name: "fig6", Done: 3},
		{Name: "extra", Done: 1, Active: true},
	}
	if len(st.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %+v", st.Phases, want)
	}
	for i := range want {
		if st.Phases[i] != want[i] {
			t.Errorf("phase[%d] = %+v, want %+v", i, st.Phases[i], want[i])
		}
	}
}

func TestTrackerFinishFreezesElapsed(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(clk.now)
	r := tr.StartRun("done", 2)
	clk.advance(2 * time.Second)
	r.Advance(2)
	r.Finish()
	clk.advance(time.Hour) // wall time after Finish must not count
	st := tr.Snapshot()[0]
	if !st.Finished {
		t.Fatal("not finished")
	}
	if st.ElapsedSec != 2 {
		t.Errorf("elapsed = %g, want 2 (frozen at Finish)", st.ElapsedSec)
	}
	if st.EtaSec != 0 {
		t.Errorf("ETA = %g, want 0 after finish", st.EtaSec)
	}
	r.Finish() // idempotent
}

func TestTrackerLabelDedup(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(clk.now)
	a := tr.StartRun("sweep", 1)
	b := tr.StartRun("sweep", 1)
	if a.Label() != "sweep" || b.Label() != "sweep-2" {
		t.Errorf("labels = %q, %q; want sweep, sweep-2", a.Label(), b.Label())
	}
	a.Finish()
	// A finished run releases its label.
	c := tr.StartRun("sweep", 1)
	if c.Label() != "sweep" {
		t.Errorf("label after finish = %q, want sweep", c.Label())
	}
}

func TestTrackerAggregate(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(clk.now)
	a := tr.StartRun("fleet", 10)
	b := tr.StartRun("sweep", 10)
	clk.advance(time.Second)
	a.Advance(2) // 2/sec
	b.Advance(4) // 4/sec
	agg := tr.Aggregate()
	if agg.Run != "all" || agg.Total != 20 || agg.Done != 6 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.RateSamples != 2 || math.Abs(agg.PointsPerSec-3) > 1e-9 {
		t.Errorf("merged rate = %.3f over %d samples, want 3.000 over 2", agg.PointsPerSec, agg.RateSamples)
	}
	if agg.Finished {
		t.Error("aggregate finished with runs outstanding")
	}
	a.Finish()
	b.Finish()
	if agg := tr.Aggregate(); !agg.Finished {
		t.Error("aggregate not finished after all runs finished")
	}
}

func TestNilRunIsSafe(t *testing.T) {
	var r *Run
	r.Advance(1)
	r.SetPhase("x")
	r.Finish()
	if r.Label() != "" {
		t.Error("nil Label not empty")
	}
}

// TestTrackerBoundsFinishedRuns: a long-lived registry (one run per
// query or fleet range) lists at most maxFinishedRuns finished runs,
// and the evicted ones still count in Aggregate.
func TestTrackerBoundsFinishedRuns(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracker(clk.now)
	const cycles = 10000
	for i := 0; i < cycles; i++ {
		r := tr.StartRun("serve:q", 3)
		clk.advance(time.Second)
		r.Advance(3) // one rate sample at exactly 3 units/sec
		r.Finish()
	}
	if n := len(tr.Snapshot()); n > maxFinishedRuns {
		t.Fatalf("registry lists %d runs, want at most %d", n, maxFinishedRuns)
	}
	agg := tr.Aggregate()
	if agg.Total != 3*cycles || agg.Done != 3*cycles || !agg.Finished {
		t.Fatalf("aggregate = %+v, want total = done = %d, finished", agg, 3*cycles)
	}
	if agg.RateSamples != cycles || math.Abs(agg.PointsPerSec-3) > 1e-9 {
		t.Errorf("rate = %.3f over %d samples, want 3.000 over %d", agg.PointsPerSec, agg.RateSamples, cycles)
	}
	if agg.ElapsedSec != cycles {
		t.Errorf("elapsed = %g, want %d (from the first run's start)", agg.ElapsedSec, cycles)
	}

	// An unfinished run is never evicted, however many finish after it.
	live := tr.StartRun("fleet", 10)
	for i := 0; i < 2*maxFinishedRuns; i++ {
		tr.StartRun("range", 1).Finish()
	}
	sts := tr.Snapshot()
	if sts[0].Run != "fleet" || sts[0].Finished {
		t.Fatalf("live run evicted: first listed = %+v", sts[0])
	}
	live.Finish()
}
