package sim

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// refEngine is the reference model the radix queue is checked against: a
// slice kept sorted by (at, seq), with the engine's clock rules spelled
// out directly. Events are named by label.
type refEngine struct {
	now       Time
	seq       uint64
	q         []refEvent
	processed uint64
	stopped   bool
	live      map[int]bool
	onFire    func(label int)
}

type refEvent struct {
	at    Time
	seq   uint64
	label int
}

func (r *refEngine) at(at Time, label int) {
	ev := refEvent{at: at, seq: r.seq, label: label}
	r.seq++
	i, _ := slices.BinarySearchFunc(r.q, ev, func(a, b refEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	r.q = slices.Insert(r.q, i, ev)
	r.live[label] = true
}

func (r *refEngine) cancel(label int) {
	if i := slices.IndexFunc(r.q, func(ev refEvent) bool { return ev.label == label }); i >= 0 {
		r.q = slices.Delete(r.q, i, i+1)
		delete(r.live, label)
	}
}

func (r *refEngine) fire() {
	ev := r.q[0]
	r.q = r.q[1:]
	delete(r.live, ev.label)
	r.now = ev.at
	r.onFire(ev.label)
	r.processed++
}

func (r *refEngine) run(end Time) Time {
	r.stopped = false
	for !r.stopped && len(r.q) > 0 && r.q[0].at <= end {
		r.fire()
	}
	if r.now < end && (!r.stopped || len(r.q) == 0) {
		r.now = end
	}
	return r.now
}

func (r *refEngine) drain() {
	for len(r.q) > 0 {
		r.fire()
	}
}

func (r *refEngine) reset() {
	r.now, r.seq, r.q, r.processed, r.stopped = 0, 0, r.q[:0], 0, false
	clear(r.live)
}

// orderScript reads choices from a byte script; the run ends when the
// script is exhausted.
type orderScript struct {
	b    []byte
	done bool
}

func (s *orderScript) next() int {
	if len(s.b) == 0 {
		s.done = true
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// word reads a 16-bit value.
func (s *orderScript) word() int { return s.next() | s.next()<<8 }

// satAdd is t+d, saturating at the largest Time instead of wrapping.
func satAdd(t Time, d Time) Time {
	if t > math.MaxInt64-d {
		return math.MaxInt64
	}
	return t + d
}

// fireAction derives what event label does when it fires, identically on
// both sides: top-level events (label ≥ 0) may stop the run or schedule
// one child at a short delay, often zero; a child (label < 0) may stop.
func fireAction(label int) (stop bool, child Duration, hasChild bool) {
	h := uint64(label)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	h ^= h >> 29
	switch h % 8 {
	case 0:
		return true, 0, false
	case 1, 2, 3:
		if label >= 0 {
			return false, Duration((h >> 8) % 4 * ((h >> 16) % 300)), true
		}
	}
	return false, 0, false
}

// checkOrderScript runs one script against both the engine and the
// reference and fails at the first step where firing order, Now,
// Pending, Processed, a Run result or any EventID's Pending disagree.
func checkOrderScript(t *testing.T, script []byte) {
	t.Helper()
	e := NewEngine(1)
	ref := &refEngine{live: map[int]bool{}}
	var got, want []int
	ids := map[int]EventID{}
	var labels []int
	var recent []Time

	ref.onFire = func(label int) {
		want = append(want, label)
		stop, d, ok := fireAction(label)
		if stop {
			ref.stopped = true
		}
		if ok {
			ref.at(ref.now.Add(d), -1-label)
		}
	}
	var engineFn func(label int) func()
	engineFn = func(label int) func() {
		return func() {
			got = append(got, label)
			stop, d, ok := fireAction(label)
			if stop {
				e.Stop()
			}
			if ok {
				c := -1 - label
				ids[c] = e.After(d, engineFn(c))
				labels = append(labels, c)
			}
		}
	}
	schedule := func(at Time) {
		l := len(labels)
		labels = append(labels, l)
		ids[l] = e.At(at, engineFn(l))
		ref.at(at, l)
		recent = append(recent, at)
	}

	s := &orderScript{b: script}
	for step := 0; ; step++ {
		op := s.next() % 20
		if s.done {
			return
		}
		now := e.Now()
		var desc string
		switch {
		case op < 7: // At
			var at Time
			switch s.next() % 6 {
			case 0:
				at = now
			case 1:
				if len(recent) > 0 {
					at = max(recent[s.next()%len(recent)], now)
				} else {
					at = now
				}
			case 2:
				at = satAdd(now, Time(s.next()%8))
			case 3: // straddle a power-of-two boundary of last
				k := s.next() % 40
				base := satAdd((e.last>>k)<<k, 1<<k)
				at = max(satAdd(base, Time(s.next()%3))-1, now)
			case 4:
				at = satAdd(now, 1<<(40+s.next()%20))
			case 5:
				at = satAdd(now, Time(s.word()))
			}
			desc = "At"
			schedule(at)
		case op < 10: // After
			var d Duration
			switch s.next() % 4 {
			case 0:
				d = 0
			case 1:
				d = -Duration(s.next())
			case 2:
				d = Duration(s.word())
			case 3:
				d = Duration(s.next()) << 20
			}
			desc = "After"
			schedule(now.Add(max(d, 0)))
		case op < 13: // Cancel
			i := s.next() % (len(labels) + 1)
			desc = "Cancel"
			if i == len(labels) {
				EventID{}.Cancel()
			} else {
				ids[labels[i]].Cancel()
				ref.cancel(labels[i])
			}
		case op < 18: // Run
			var end Time
			next := now
			if len(ref.q) > 0 {
				next = ref.q[0].at
			}
			switch s.next() % 6 {
			case 0:
				end = max(next-1, 0)
			case 1:
				end = next
			case 2:
				end = satAdd(next, Time(s.next()))
			case 3:
				end = max(now-1-Time(s.next()), 0)
			case 4:
				end = satAdd(now, Time(s.word()))
			case 5:
				end = satAdd(next, 1<<40)
			}
			desc = "Run"
			if g, w := e.Run(end), ref.run(end); g != w {
				t.Fatalf("step %d: Run(%d) returned %d, reference %d", step, end, g, w)
			}
		case op == 18:
			desc = "Reset"
			e.Reset(1)
			ref.reset()
		default:
			desc = "Drain"
			e.Drain()
			ref.drain()
		}

		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): fired %v, reference %v", step, desc, got, want)
		}
		if e.Now() != ref.now || e.Pending() != len(ref.q) || e.Processed() != ref.processed {
			t.Fatalf("step %d (%s): now=%d pending=%d processed=%d, reference now=%d pending=%d processed=%d",
				step, desc, e.Now(), e.Pending(), e.Processed(), ref.now, len(ref.q), ref.processed)
		}
		for _, l := range labels {
			if g, w := ids[l].Pending(), ref.live[l]; g != w {
				t.Fatalf("step %d (%s): event %d Pending()=%v, reference %v", step, desc, l, g, w)
			}
		}
		// The queue invariant the radix heap rests on.
		for b := range e.head {
			for n := e.head[b]; n != 0; n = e.nodes[n].next {
				if at := e.nodes[n].at; at < e.last || bits.Len64(uint64(at^e.last)) != b {
					t.Fatalf("step %d (%s): node at %d in bucket %d with last=%d", step, desc, at, b, e.last)
				}
			}
		}
	}
}

// TestQueueMatchesReference runs seeded random scripts through the engine
// and a sorted-slice (at, seq) reference, comparing every observable after
// every step: equal times, zero delays, far-future times and times on
// power-of-two boundaries of the queue's base, cancels of live, fired,
// cancelled and zero IDs, Run horizons below, at and above the next event,
// Stop inside callbacks, and Reset with events live.
func TestQueueMatchesReference(t *testing.T) {
	var seed uint64
	defer func() {
		if t.Failed() {
			t.Logf("failing script: seed %d", seed)
		}
	}()
	for seed = 1; seed <= 200; seed++ {
		r := NewRNG(seed)
		script := make([]byte, 600)
		for i := range script {
			script[i] = byte(r.Uint64())
		}
		checkOrderScript(t, script)
	}
}

// FuzzEngineOrder is TestQueueMatchesReference's harness over arbitrary
// scripts.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 13, 1})
	f.Add([]byte{3, 3, 5, 3, 3, 7, 4, 14, 3, 12, 0, 18, 0, 0, 19})
	r := NewRNG(7)
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(r.Uint64())
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		checkOrderScript(t, script)
	})
}
