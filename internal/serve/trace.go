package serve

import (
	"sync"
	"time"

	"hic/internal/trace"
)

// TraceSpan is one wall-clock slice of a traced query's lifecycle, as
// carried on the result: coordinator-observed lease envelopes plus
// worker-reported execution windows, each attributed to a track (the
// coordinator or one worker). It is the Chrome exporter's own span
// type, so results feed trace.WriteChromeWallSpans as they are.
type TraceSpan = trace.WallSpan

// PhaseWall is a traced query's wall-clock phase breakdown, derived
// from the spans: queue (arrival to first lease dispensed), prefetch
// (arrival to the prefetch barrier releasing), execute (first range
// lease dispensed to last range completion), merge (first fold to the
// result assembled). Phases overlap by construction — ranges merge
// while others still execute — so the parts exceed the elapsed wall.
type PhaseWall struct {
	QueueMS    float64 `json:"queue_ms"`
	PrefetchMS float64 `json:"prefetch_ms"`
	ExecuteMS  float64 `json:"execute_ms"`
	MergeMS    float64 `json:"merge_ms"`
}

// queryTrace collects one traced query's spans. A nil *queryTrace is
// the disabled state: every method no-ops without allocating or
// locking, so untraced queries pay a nil check per would-be span — the
// same zero-overhead discipline as the obs sink (pinned by
// TestServeTraceDisabledZeroAlloc in the Makefile's check-tests).
//
// Its own mutex (not the server's) serializes appends: lease
// completions record spans from handler goroutines while the query
// handler records merge progress.
type queryTrace struct {
	mu    sync.Mutex
	spans []TraceSpan

	// Phase endpoints, recorded as they happen (zero = never reached).
	arrival       time.Time
	firstGrant    time.Time
	barrierDone   time.Time
	firstRangeRun time.Time
	lastRangeDone time.Time
	firstFold     time.Time
}

func newQueryTrace(arrival time.Time) *queryTrace {
	return &queryTrace{arrival: arrival}
}

// span appends one slice. Safe on nil.
func (t *queryTrace) span(name, track string, start, end time.Time, args map[string]float64) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, TraceSpan{Name: name, Track: track,
		StartNs: start.UnixNano(), EndNs: end.UnixNano(), Args: args})
	t.mu.Unlock()
}

// grant notes a lease dispensed at now. Safe on nil.
func (t *queryTrace) grant(kind string, now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.firstGrant.IsZero() {
		t.firstGrant = now
	}
	if kind != LeasePrefetch && t.firstRangeRun.IsZero() {
		t.firstRangeRun = now
	}
	t.mu.Unlock()
}

// rangeDone notes a range completion folded-ready at now. Safe on nil.
func (t *queryTrace) rangeDone(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if now.After(t.lastRangeDone) {
		t.lastRangeDone = now
	}
	t.mu.Unlock()
}

// barrier notes the prefetch barrier releasing at now. Safe on nil.
func (t *queryTrace) barrier(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.barrierDone.IsZero() {
		t.barrierDone = now
	}
	t.mu.Unlock()
}

// fold notes a partial folding into the merge at now. Safe on nil.
func (t *queryTrace) fold(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.firstFold.IsZero() {
		t.firstFold = now
	}
	t.mu.Unlock()
}

// finish closes the lifecycle spans and returns the sorted span list
// plus the phase breakdown. Called once, after the merge completes.
func (t *queryTrace) finish(now time.Time) ([]TraceSpan, *PhaseWall) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := &PhaseWall{}
	addSpan := func(name string, start, end time.Time) float64 {
		if start.IsZero() || end.IsZero() || end.Before(start) {
			return 0
		}
		t.spans = append(t.spans, TraceSpan{Name: name, Track: "coordinator",
			StartNs: start.UnixNano(), EndNs: end.UnixNano()})
		return float64(end.Sub(start).Nanoseconds()) / 1e6
	}
	ph.QueueMS = addSpan("queue", t.arrival, t.firstGrant)
	if !t.barrierDone.IsZero() {
		ph.PrefetchMS = addSpan("prefetch barrier", t.arrival, t.barrierDone)
	}
	ph.ExecuteMS = addSpan("execute", t.firstRangeRun, t.lastRangeDone)
	ph.MergeMS = addSpan("merge", t.firstFold, now)

	out := append([]TraceSpan(nil), t.spans...)
	trace.SortWallSpans(out)
	return out, ph
}
