package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hic/internal/stats"
)

// rateSampleInterval spaces the instantaneous-rate samples the ETA
// smoother consumes: Advance calls closer together than this fold into
// one sample, so a burst of fast points does not swamp the Welford
// moments with near-duplicate observations.
const rateSampleInterval = 250 * time.Millisecond

// maxFinishedRuns bounds how many finished runs the registry keeps
// listing. A long-lived coordinator registers a run per query and per
// fleet range; beyond this many finished ones, the oldest fold into
// the retired totals, so /progress and /metrics stay bounded while
// Aggregate keeps counting them.
const maxFinishedRuns = 64

// Tracker is the run registry behind /progress: every long fan-out
// (fleet, sweep, bench section) registers a Run, advances it per
// completed point, and the tracker serves smoothed rate and ETA.
type Tracker struct {
	now func() time.Time

	mu      sync.Mutex
	runs    []*Run
	retired runTotals // finished runs evicted from runs
}

// NewTracker returns an empty registry. now is the clock (nil =
// time.Now); tests pin it for deterministic output.
func NewTracker(now func() time.Time) *Tracker {
	if now == nil {
		now = time.Now
	}
	return &Tracker{now: now}
}

// StartRun registers a run of total units under label (deduplicated
// with a numeric suffix if the label is already registered and still
// active). phases optionally name sequential sub-stages; Advance
// attributes completed units to the current phase.
func (t *Tracker) StartRun(label string, total int64, phases ...string) *Run {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := label
	for n := 2; ; n++ {
		taken := false
		for _, r := range t.runs {
			if r.label == label && !r.isFinished() {
				taken = true
				break
			}
		}
		if !taken {
			break
		}
		label = fmt.Sprintf("%s-%d", base, n)
	}
	r := &Run{
		tr:     t,
		label:  label,
		total:  total,
		phases: phases,
		start:  t.now(),
	}
	r.phase.Store(-1)
	if len(phases) > 0 {
		r.phaseDone = make([]atomic.Int64, len(phases))
		r.phase.Store(0)
	}
	r.lastT = r.start
	t.runs = append(t.runs, r)
	return r
}

// Snapshot reports every listed run, registration order: all unfinished
// runs and the newest maxFinishedRuns finished ones.
func (t *Tracker) Snapshot() []RunStatus {
	t.mu.Lock()
	runs := append([]*Run(nil), t.runs...)
	now := t.now()
	t.mu.Unlock()
	out := make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.status(now)
	}
	return out
}

// Aggregate folds every run, retired ones included, into one totals
// row: summed units, and the rate moments of all runs merged
// (stats.Moments.Merge) so the fleet-wide points/sec and ETA survive
// runs starting and finishing.
func (t *Tracker) Aggregate() RunStatus {
	t.mu.Lock()
	acc := t.retired
	runs := append([]*Run(nil), t.runs...)
	now := t.now()
	t.mu.Unlock()
	for _, r := range runs {
		acc.add(r)
	}
	agg := RunStatus{Run: "all", Total: acc.total, Done: acc.done, Finished: acc.n > 0 && acc.open == 0}
	if !acc.start.IsZero() {
		agg.ElapsedSec = now.Sub(acc.start).Seconds()
	}
	agg.RateSamples = acc.rates.N()
	if acc.rates.N() > 0 {
		agg.PointsPerSec = acc.rates.Mean()
		agg.RateStddev = acc.rates.Stddev()
	} else if agg.ElapsedSec > 0 {
		agg.PointsPerSec = float64(agg.Done) / agg.ElapsedSec
	}
	if rem := agg.Total - agg.Done; rem > 0 && agg.PointsPerSec > 0 {
		agg.EtaSec = float64(rem) / agg.PointsPerSec
	}
	return agg
}

// runTotals folds runs into Aggregate's row: run and unfinished counts,
// summed units, merged rate moments and the earliest start.
type runTotals struct {
	n, open     int
	total, done int64
	rates       stats.Moments
	start       time.Time
}

func (a *runTotals) add(r *Run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a.n++
	if !r.finished {
		a.open++
	}
	a.total += r.total
	a.done += r.done.Load()
	a.rates.Merge(r.rates)
	if a.start.IsZero() || r.start.Before(a.start) {
		a.start = r.start
	}
}

// Run is one tracked unit-of-work group. The zero method set is
// nil-safe so instrumented code paths can hold a nil *Run when no sink
// is installed and still call Advance/SetPhase/Finish unconditionally.
type Run struct {
	tr     *Tracker
	label  string
	total  int64
	phases []string

	done      atomic.Int64
	phase     atomic.Int32 // index into phases; -1 = none
	phaseDone []atomic.Int64
	start     time.Time

	mu       sync.Mutex
	rates    stats.Moments // instantaneous points/sec samples (Welford)
	lastT    time.Time
	lastDone int64
	finished bool
	end      time.Time
	onFinish func(*Run)
}

// Label returns the (possibly deduplicated) registry label.
func (r *Run) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Advance records n completed units, attributed to the current phase,
// and folds an instantaneous-rate observation into the Welford moments
// when at least rateSampleInterval has passed since the last sample.
func (r *Run) Advance(n int64) {
	if r == nil {
		return
	}
	done := r.done.Add(n)
	now := r.tr.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if pi := r.phase.Load(); pi >= 0 && int(pi) < len(r.phaseDone) {
		r.phaseDone[pi].Add(n)
	}
	if dt := now.Sub(r.lastT); dt >= rateSampleInterval {
		r.rates.Add(float64(done-r.lastDone) / dt.Seconds())
		r.lastT, r.lastDone = now, done
	}
}

// SetPhase switches attribution to the named phase (matched against
// the phases given at StartRun; unknown names are appended).
func (r *Run) SetPhase(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.phases {
		if p == name {
			r.phase.Store(int32(i))
			return
		}
	}
	r.phases = append(r.phases, name)
	r.phaseDone = append(r.phaseDone, atomic.Int64{})
	r.phase.Store(int32(len(r.phases) - 1))
}

// Finish marks the run complete (idempotent).
func (r *Run) Finish() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.finished = true
	r.end = r.tr.now()
	cb := r.onFinish
	r.mu.Unlock()
	if cb != nil {
		cb(r)
	}
	r.tr.retire()
}

// retire folds the oldest finished runs past maxFinishedRuns into the
// retired totals.
func (t *Tracker) retire() {
	t.mu.Lock()
	defer t.mu.Unlock()
	finished := 0
	for _, r := range t.runs {
		if r.isFinished() {
			finished++
		}
	}
	kept := t.runs[:0]
	for _, r := range t.runs {
		if finished > maxFinishedRuns && r.isFinished() {
			finished--
			t.retired.add(r)
			continue
		}
		kept = append(kept, r)
	}
	clear(t.runs[len(kept):])
	t.runs = kept
}

func (r *Run) isFinished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished
}

// PhaseStatus is one phase's completion inside a RunStatus.
type PhaseStatus struct {
	Name   string `json:"name"`
	Done   int64  `json:"done"`
	Active bool   `json:"active,omitempty"`
}

// RunStatus is the /progress view of one run.
type RunStatus struct {
	Run    string        `json:"run"`
	Total  int64         `json:"total"`
	Done   int64         `json:"done"`
	Phase  string        `json:"phase,omitempty"`
	Phases []PhaseStatus `json:"phases,omitempty"`
	// ElapsedSec is wall time since StartRun (frozen at Finish).
	ElapsedSec float64 `json:"elapsed_sec"`
	// PointsPerSec is the Welford mean of the sampled instantaneous
	// rates (falling back to done/elapsed before the first sample);
	// RateStddev is the sample standard deviation and RateSamples the
	// sample count, so consumers can judge how settled the estimate is.
	PointsPerSec float64 `json:"points_per_sec"`
	RateStddev   float64 `json:"points_per_sec_stddev,omitempty"`
	RateSamples  int64   `json:"rate_samples"`
	// EtaSec is remaining/PointsPerSec; 0 when unknown or done.
	EtaSec   float64 `json:"eta_sec,omitempty"`
	Finished bool    `json:"finished,omitempty"`
}

func (r *Run) status(now time.Time) RunStatus {
	st := RunStatus{Run: r.label, Total: r.total, Done: r.done.Load()}
	r.mu.Lock()
	end := r.end
	st.Finished = r.finished
	st.RateSamples = r.rates.N()
	if st.RateSamples > 0 {
		st.PointsPerSec = r.rates.Mean()
		st.RateStddev = r.rates.Stddev()
	}
	if pi := r.phase.Load(); pi >= 0 && int(pi) < len(r.phases) {
		st.Phase = r.phases[pi]
		st.Phases = make([]PhaseStatus, len(r.phases))
		for i, p := range r.phases {
			st.Phases[i] = PhaseStatus{Name: p, Done: r.phaseDone[i].Load(), Active: int32(i) == pi && !r.finished}
		}
	}
	r.mu.Unlock()
	if st.Finished {
		st.ElapsedSec = end.Sub(r.start).Seconds()
	} else {
		st.ElapsedSec = now.Sub(r.start).Seconds()
	}
	if st.PointsPerSec == 0 && st.ElapsedSec > 0 {
		st.PointsPerSec = float64(st.Done) / st.ElapsedSec
	}
	if rem := st.Total - st.Done; rem > 0 && st.PointsPerSec > 0 && !st.Finished {
		st.EtaSec = float64(rem) / st.PointsPerSec
	}
	return st
}
