package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestLinesNilSafe(t *testing.T) {
	var l *Lines
	l.Stop()
}

// TestLinesCountsAndFinishes pins the rendered line: label, done/total,
// percent, rate and ETA plus the note once per interval, then a final
// line with the wall time.
func TestLinesCountsAndFinishes(t *testing.T) {
	var buf syncBuffer
	l := NewLines(&buf, nil, "test", "items", 10*time.Millisecond, func() string { return "note-text" })
	r := l.StartRun("fleet", 10)
	r.Advance(4)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "\n") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	tick := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, want := range []string{"test: 4/10 (40.0%) ", " items/s ETA ", " note-text"} {
		if !strings.Contains(tick, want) {
			t.Fatalf("interval line %q missing %q", tick, want)
		}
	}

	r.Advance(6)
	r.Finish()
	l.Stop()
	l.Stop() // idempotent
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	final := lines[len(lines)-1]
	for _, want := range []string{"test: 10/10 (100.0%) ", " items/s in ", " note-text"} {
		if !strings.Contains(final, want) {
			t.Fatalf("final line %q missing %q", final, want)
		}
	}
	if strings.Contains(final, "ETA") {
		t.Errorf("final line %q carries an ETA", final)
	}
}

// TestLinesWrapsSink: with a wrapped sink the rendered run is the one
// the sink's /progress registry lists, and events pass through.
func TestLinesWrapsSink(t *testing.T) {
	srv := NewServer(Options{Warn: &syncBuffer{}, EventCap: 16})
	var buf syncBuffer
	l := NewLines(&buf, srv, "fleet", "hosts", time.Hour, nil)
	r := l.StartRun("fleet", 3)
	r.Advance(3)
	l.Emit(Event{Kind: KindPointStart, Run: r.Label()})
	r.Finish()
	l.Stop()

	sts := srv.Tracker().Snapshot()
	if len(sts) != 1 || sts[0].Done != 3 || !sts[0].Finished {
		t.Fatalf("server registry = %+v, want one finished run with 3 done", sts)
	}
	if got := srv.ring.Snapshot(); len(got) != 3 {
		t.Fatalf("server saw %d events, want run_start, point_start, run_finish", len(got))
	}
	if !strings.HasPrefix(buf.String(), "fleet: 3/3 (100.0%) ") {
		t.Fatalf("rendered %q", buf.String())
	}
}
