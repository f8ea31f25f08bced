// Package sim provides a deterministic discrete-event simulation engine
// used by every substrate in this repository: an int64-nanosecond clock, a
// radix-heap event queue with stable tie-breaking, and a seeded
// pseudo-random number generator.
//
// A single Engine is single-threaded by construction; independent engines
// may run concurrently on separate goroutines (the experiment sweeps do
// exactly that), which keeps every individual run bit-reproducible for a
// given seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
// int64 nanoseconds cover ~292 years of simulated time, far beyond any
// experiment here, while avoiding floating-point drift in event ordering.
type Time int64

// Duration is a simulated time interval in nanoseconds. It intentionally
// mirrors time.Duration semantics so the two convert trivially.
type Duration = time.Duration

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  Duration = time.Nanosecond
	Microsecond Duration = time.Microsecond
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
)

// Add returns the timestamp d after t. Negative results are clamped to
// zero: no component may schedule into the pre-simulation past.
func (t Time) Add(d Duration) Time {
	nt := t + Time(d)
	if nt < 0 {
		return 0
	}
	return nt
}

// Sub returns the interval from u to t (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// Seconds returns t as floating-point seconds, for rate computations.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration returns t as an interval since time zero.
func (t Time) Duration() Duration { return Duration(t) }

func (t Time) String() string {
	return fmt.Sprintf("t=%s", Duration(t))
}

// BitsPerSecond expresses a data rate. It is a distinct type so that link
// speeds, goodputs and bandwidth budgets cannot be confused with byte
// counts in APIs.
type BitsPerSecond float64

// Gbps constructs a rate from gigabits per second.
func Gbps(v float64) BitsPerSecond { return BitsPerSecond(v * 1e9) }

// Gbps reports the rate in gigabits per second.
func (r BitsPerSecond) Gbps() float64 { return float64(r) / 1e9 }

// BytesPerSecond converts the bit rate to a byte rate.
func (r BitsPerSecond) BytesPerSecond() float64 { return float64(r) / 8 }

// GBps reports the rate in gigabytes per second (1e9 bytes).
func (r BitsPerSecond) GBps() float64 { return float64(r) / 8e9 }

// TransmitTime returns how long transmitting n bytes takes at rate r.
// A zero or negative rate yields an effectively infinite duration.
func (r BitsPerSecond) TransmitTime(n int) Duration {
	if r <= 0 {
		return Duration(1<<62 - 1)
	}
	ns := float64(n) * 8 * 1e9 / float64(r)
	return Duration(ns)
}

// GBpsRate constructs a rate from gigabytes per second (1e9 bytes).
func GBpsRate(v float64) BitsPerSecond { return BitsPerSecond(v * 8e9) }
