package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v after drained Run(100), want 100", e.Now())
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(5)
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of insertion order: %v", got)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(10*Microsecond, func() {
		at = e.Now()
		e.After(5*Microsecond, func() { at = e.Now() })
	})
	e.Run(Time(Millisecond))
	if at != Time(15*Microsecond) {
		t.Errorf("nested After fired at %v, want 15µs", at)
	}
}

func TestEngineSchedulingPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(1000)
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	id := e.At(10, func() { fired = true })
	if !id.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	id.Cancel()
	if id.Pending() {
		t.Fatal("event still pending after cancel")
	}
	e.Run(100)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineRunHorizonStopsBeforeLaterEvents(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(200, func() { fired = append(fired, 200) })
	end := e.Run(100)
	if end != 100 {
		t.Errorf("Run returned %v, want 100", end)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Errorf("fired = %v, want [10]", fired)
	}
	// Continue past the horizon: the remaining event must still fire.
	e.Run(300)
	if len(fired) != 2 {
		t.Errorf("second Run did not fire the deferred event: %v", fired)
	}
}

// TestEngineRunNeverRewindsClock pins that a horizon behind Now runs
// nothing and leaves the clock alone, so the scheduling-into-the-past
// guard still holds afterwards.
func TestEngineRunNeverRewindsClock(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {})
	e.Run(100)
	fired := false
	e.At(200, func() { fired = true })
	if got := e.Run(50); got != 100 {
		t.Errorf("Run(50) at Now()=100 returned %v, want 100", got)
	}
	if e.Now() != 100 {
		t.Fatalf("Run(50) moved the clock to %v, want 100", e.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At(60) after Run(50) at Now()=100 did not panic")
			}
		}()
		e.At(60, func() {})
	}()
	e.Run(200)
	if !fired || e.Now() != 200 {
		t.Errorf("event at 200: fired=%v Now()=%v, want true and 200", fired, e.Now())
	}
}

func TestEngineEventAtExactlyHorizonRuns(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(100, func() { fired = true })
	e.Run(100)
	if !fired {
		t.Error("event at exactly the horizon did not fire")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(100)
	if count != 3 {
		t.Errorf("processed %d events after Stop, want 3", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := e.Every(10*Microsecond, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 4 {
			// Stop from inside the callback.
		}
	})
	e.At(Time(35*Microsecond), func() { tk.Stop() })
	e.Run(Time(Millisecond))
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (at 10,20,30µs): %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := Time((i + 1) * 10_000)
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.Every(Microsecond, func() {
		n++
		if n == 5 {
			tk.Stop()
		}
	})
	e.Run(Time(Millisecond))
	if n != 5 {
		t.Errorf("ticker fired %d times after in-callback Stop at 5", n)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := NewEngine(seed)
		var draws []uint64
		e.Every(Microsecond, func() {
			draws = append(draws, e.RNG().Uint64())
		})
		e.Run(Time(50 * Microsecond))
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("draw lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different streams at %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestTimeAddClampsNegative(t *testing.T) {
	if Time(5).Add(-10*Nanosecond) != 0 {
		t.Error("Add with large negative duration should clamp to 0")
	}
}

func TestTransmitTime(t *testing.T) {
	r := Gbps(100)
	// 12500 bytes at 100Gbps = 1µs.
	if got := r.TransmitTime(12500); got != Microsecond {
		t.Errorf("TransmitTime = %v, want 1µs", got)
	}
	if got := BitsPerSecond(0).TransmitTime(1); got < Duration(1<<60) {
		t.Errorf("zero rate should give effectively infinite time, got %v", got)
	}
}

func TestRateConversions(t *testing.T) {
	r := GBpsRate(11.8)
	if g := r.GBps(); g < 11.79 || g > 11.81 {
		t.Errorf("GBps round trip = %v", g)
	}
	if g := Gbps(92).Gbps(); g != 92 {
		t.Errorf("Gbps round trip = %v", g)
	}
	if bps := Gbps(8).BytesPerSecond(); bps != 1e9 {
		t.Errorf("BytesPerSecond = %v, want 1e9", bps)
	}
}

// Property: events scheduled at arbitrary non-negative offsets always fire
// in non-decreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine(7)
		var times []Time
		for _, off := range offsets {
			e.At(Time(off), func() { times = append(times, e.Now()) })
		}
		e.Drain()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(123)
	const n = 100000
	var sum float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
		buckets[int(v*10)]++
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d count %d far from uniform %d", i, c, n/10)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	const n = 50000
	mean := 10 * Microsecond
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Errorf("Exp mean = %vns, want ~%v", got, mean)
	}
}

func TestRNGNormal(t *testing.T) {
	r := NewRNG(9)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(100, 15)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < 99 || mean > 101 {
		t.Errorf("Normal mean = %v, want ~100", mean)
	}
	if variance < 200 || variance > 250 {
		t.Errorf("Normal variance = %v, want ~225", variance)
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(11)
	d := 100 * Microsecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(d, 0.1)
		if j < Duration(float64(d)*0.9) || j > Duration(float64(d)*1.1) {
			t.Fatalf("jitter %v outside ±10%% of %v", j, d)
		}
	}
	if r.Jitter(0, 0.5) < 1 {
		t.Error("jitter should clamp to at least 1ns")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(1)
	b := a.Fork()
	c := a.Fork()
	if b.Uint64() == c.Uint64() {
		t.Error("forked generators produced identical first draws")
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Run(Time(1) << 60)
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
