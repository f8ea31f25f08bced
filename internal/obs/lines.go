package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Lines is a Sink that renders every run started through it as one
// progress line per interval on w (conventionally stderr):
//
//	fleet: 12480/100000 (12.5%) 857.3 hosts/s ETA 1m42s slots 2b/0i; cache 0 hits, 312 misses
//
// Runs register with the wrapped sink when there is one, so -listen's
// /progress lists the same run the line shows, and with a private
// Tracker otherwise. Events and metric folds pass through to the
// wrapped sink. Stop prints a final line per run with its wall time.
// Stop is safe on a nil *Lines, so call sites need no conditionals
// when rendering is off.
type Lines struct {
	w           io.Writer
	inner       Sink
	label, unit string
	note        func() string

	mu   sync.Mutex
	runs []*Run

	stop    chan struct{}
	wg      sync.WaitGroup
	stopped sync.Once
}

// NewLines starts rendering, every interval (0 means one second), the
// runs started through the returned sink. Lines are prefixed with label
// and rates are in unit/s; note, when non-nil, is appended to every
// line (live cache or pool counters, typically). inner may be nil.
func NewLines(w io.Writer, inner Sink, label, unit string, interval time.Duration, note func() string) *Lines {
	if interval <= 0 {
		interval = time.Second
	}
	if inner == nil {
		inner = progressOnly{NewTracker(nil)}
	}
	l := &Lines{w: w, inner: inner, label: label, unit: unit, note: note, stop: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				l.print(false)
			case <-l.stop:
				return
			}
		}
	}()
	return l
}

// progressOnly is the sink Lines wraps when given none: a private run
// registry that drops events and metric folds.
type progressOnly struct{ *Tracker }

func (progressOnly) Emit(Event)          {}
func (progressOnly) RunMetrics(Snapshot) {}

// Emit implements Sink by forwarding to the wrapped sink.
func (l *Lines) Emit(e Event) { l.inner.Emit(e) }

// StartRun implements Sink: the run registers with the wrapped sink and
// is rendered from then on.
func (l *Lines) StartRun(label string, total int64, phases ...string) *Run {
	r := l.inner.StartRun(label, total, phases...)
	if r != nil {
		l.mu.Lock()
		l.runs = append(l.runs, r)
		l.mu.Unlock()
	}
	return r
}

// RunMetrics implements Sink by forwarding to the wrapped sink.
func (l *Lines) RunMetrics(snap Snapshot) { l.inner.RunMetrics(snap) }

func (l *Lines) print(final bool) {
	l.mu.Lock()
	runs := append([]*Run(nil), l.runs...)
	l.mu.Unlock()
	for _, r := range runs {
		st := r.status(r.tr.now())
		line := fmt.Sprintf("%s: %d/%d (%.1f%%) %.1f %s/s",
			l.label, st.Done, st.Total, 100*float64(st.Done)/float64(max(st.Total, 1)), st.PointsPerSec, l.unit)
		if final {
			elapsed := time.Duration(st.ElapsedSec * float64(time.Second))
			line += fmt.Sprintf(" in %s", elapsed.Round(time.Millisecond))
		} else if st.EtaSec > 0 {
			eta := time.Duration(st.EtaSec * float64(time.Second))
			line += fmt.Sprintf(" ETA %s", eta.Round(time.Second))
		}
		if l.note != nil {
			if s := l.note(); s != "" {
				line += " " + s
			}
		}
		fmt.Fprintln(l.w, line)
	}
}

// Stop ends the ticker and prints one final line per run. Safe to call
// more than once and on a nil *Lines.
func (l *Lines) Stop() {
	if l == nil {
		return
	}
	l.stopped.Do(func() {
		close(l.stop)
		l.wg.Wait()
		l.print(true)
	})
}
