package fidelity

import (
	"sync/atomic"
	"testing"

	"hic/internal/core"
	"hic/internal/host"
	"hic/internal/obs"
	"hic/internal/sim"
)

// foldCounter is an obs.Sink that counts registry folds into the fleet
// /metrics rollup.
type foldCounter struct{ folds atomic.Int64 }

func (*foldCounter) Emit(obs.Event)                             {}
func (*foldCounter) StartRun(string, int64, ...string) *obs.Run { return nil }
func (f *foldCounter) RunMetrics(obs.Snapshot)                  { f.folds.Add(1) }

// TestEveryDESRunFoldsMetrics: each simulation folds its registry into
// the fleet rollup exactly once, whether it ran the full window, was
// early-stopped, donated a checkpoint, or was warm-started from one.
func TestEveryDESRunFoldsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs DES")
	}
	sink := &foldCounter{}
	obs.Set(sink)
	defer obs.Set(nil)

	const n = 3
	point := func(seed uint64) core.Params {
		p := core.DefaultParams(4)
		p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
		p.Seed = seed
		return p
	}

	es := &core.EarlyStop{Rule: host.DefaultStopRule()}
	for i := 0; i < n; i++ {
		if _, err := core.RunVia(es, point(uint64(100+i)), nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.folds.Load(); got != n {
		t.Errorf("early-stop executor: %d folds for %d runs", got, n)
	}

	// A cold pass donates checkpoints; a second router over the same
	// store warm-starts from them.
	dir := t.TempDir()
	for pass := 0; pass < 2; pass++ {
		sink.folds.Store(0)
		r := mustRouter(t, Config{Mode: ModeDES, EarlyStop: true, Warm: WarmFull, WarmStore: openStore(t, dir)})
		for i := 0; i < n; i++ {
			if _, err := core.RunVia(r, point(uint64(200+i)), nil, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := sink.folds.Load(); got != n {
			t.Errorf("pass %d: %d folds for %d runs (counters %+v)", pass, got, n, r.Counters())
		}
		if c := r.Counters(); pass == 1 && c.WarmStarted == 0 {
			t.Errorf("warm pass warm-started nothing: %+v", c)
		}
	}
}
