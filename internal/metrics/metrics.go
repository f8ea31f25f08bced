// Package metrics provides the measurement primitives used across the
// simulator: counters, gauges, log-linear latency histograms with quantile
// estimation, time-binned series, and a registry that renders a plain-text
// dump. All types are plain (non-atomic) because each simulation runs on a
// single goroutine; experiment sweeps keep one registry per run.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing count of events or bytes.
type Counter struct {
	v uint64
}

// Add increases the counter by n. The argument is unsigned because
// counters are monotonic by definition; a delta that would need to be
// negative always indicates a bug at the call site.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Reset zeroes the counter, used at the warmup/measurement boundary.
// Note the deliberate asymmetry with Gauge.Reset: a counter is a
// cumulative event count, so the measurement window starts it from zero,
// whereas a gauge is instantaneous state that must survive the boundary.
func (c *Counter) Reset() { c.v = 0 }

// Gauge is an instantaneous value (queue depth, credits available). It
// additionally tracks the maximum observed value since the last reset.
type Gauge struct {
	v   int64
	max int64
}

// Set assigns the gauge.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the gauge by delta, which may be negative.
func (g *Gauge) Add(delta int64) { g.Set(g.v + delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the maximum value observed since the last Reset.
func (g *Gauge) Max() int64 { return g.max }

// Reset clears the maximum tracker but preserves the current value —
// the counterpart of Counter.Reset's zeroing. A gauge models
// instantaneous physical state (buffer occupancy, credits in flight)
// that does not vanish when the measurement window opens; only the
// max-since-reset statistic is scoped to the window.
func (g *Gauge) Reset() { g.max = g.v }

// Histogram records a distribution of non-negative values with log-linear
// buckets: subBuckets linear buckets per power-of-two range, in the style
// of HdrHistogram. Relative quantile error is bounded by 1/subBuckets.
type Histogram struct {
	subBuckets int
	counts     []uint64
	count      uint64
	sum        float64
	min, max   float64
}

// NewHistogram returns a histogram with the given number of linear
// sub-buckets per octave (16 gives ≤6.25% relative error, plenty for
// microsecond-scale latency distributions).
func NewHistogram(subBuckets int) *Histogram {
	if subBuckets < 2 {
		subBuckets = 2
	}
	return &Histogram{
		subBuckets: subBuckets,
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}
}

// bucketIndex maps a value to its bucket. Values < 1 map to bucket 0;
// +Inf files into the top finite bucket (the one holding MaxFloat64).
// Frexp splits v exactly into mantissa and exponent: v = 2m·2^(e-1)
// with 2m in [1, 2), so the octave is e-1 and the fraction of the way
// through it is 2m-1, both without rounding.
func (h *Histogram) bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	m, e := math.Frexp(v)
	sub := int((2*m - 1) * float64(h.subBuckets))
	if sub >= h.subBuckets {
		sub = h.subBuckets - 1
	}
	return 1 + (e-1)*h.subBuckets + sub
}

// bucketLow returns the lower bound of bucket i (inverse of bucketIndex).
func (h *Histogram) bucketLow(i int) float64 {
	if i == 0 {
		return 0
	}
	i--
	exp := i / h.subBuckets
	sub := i % h.subBuckets
	return math.Ldexp(1+float64(sub)/float64(h.subBuckets), exp)
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	idx := h.bucketIndex(v)
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). The
// estimate is the lower bound of the bucket containing the q-th
// observation, so it never overstates by more than one bucket width.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			return h.bucketLow(i)
		}
	}
	return h.Max()
}

// Reset clears all state.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Summary renders count/mean/p50/p99/p999/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f p999=%.1f max=%.1f",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

// Series is a time-binned sequence of sums: values observed at time t are
// accumulated into bin floor(t/binWidth). Used for the utilization and
// drop-rate time series behind Figure 1.
type Series struct {
	binWidth float64
	bins     []float64
}

// NewSeries returns a series with the given bin width (in the caller's
// time unit; the simulator uses seconds).
func NewSeries(binWidth float64) *Series {
	if binWidth <= 0 {
		panic("metrics: non-positive bin width")
	}
	return &Series{binWidth: binWidth}
}

// Observe adds v into the bin containing time t. Negative t panics.
func (s *Series) Observe(t, v float64) {
	if t < 0 {
		panic("metrics: negative series time")
	}
	idx := int(t / s.binWidth)
	for idx >= len(s.bins) {
		s.bins = append(s.bins, 0)
	}
	s.bins[idx] += v
}

// Bins returns a copy of the accumulated bins.
func (s *Series) Bins() []float64 {
	out := make([]float64, len(s.bins))
	copy(out, s.bins)
	return out
}

// BinWidth returns the configured bin width.
func (s *Series) BinWidth() float64 { return s.binWidth }

// Registry is a named collection of metrics belonging to one simulation
// run. Names are conventionally dotted paths like "nic.rx.drops".
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it (with
// 16 sub-buckets) if needed.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(16)
		r.histograms[name] = h
	}
	return h
}

// ResetAll resets every registered metric; called at the end of warmup so
// measurements cover only the steady state.
func (r *Registry) ResetAll() {
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// Zero returns every registered metric to its freshly created state,
// keeping the registered names and their allocated structures (histogram
// bucket arrays in particular) so a registry can be reused across
// simulation runs by the worker-pool arenas without per-run allocation.
// Unlike ResetAll — whose warmup-boundary semantics deliberately let a
// gauge's instantaneous value survive — Zero clears gauges completely:
// the next run's components must observe exactly what a fresh registry
// would give them.
func (r *Registry) Zero() {
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.v = 0
		g.max = 0
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// GaugeSnapshot is the typed view of one gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramSnapshot is the typed view of one histogram: count, moments
// and the standard quantile ladder.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot is a stable, typed view of a registry at one instant — the
// exporter-facing alternative to parsing Dump's rendered text.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric by value. The maps are fresh
// copies: mutating them does not touch the registry, and later metric
// updates do not leak into the snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for n, h := range r.histograms {
		s.Histograms[n] = HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.sum,
			Mean:  h.Mean(),
			Min:   h.Min(),
			Max:   h.Max(),
			P50:   h.Quantile(0.5),
			P90:   h.Quantile(0.9),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		}
	}
	return s
}

// Dump renders every metric sorted by name, one per line.
func (r *Registry) Dump() string {
	type entry struct{ name, kind string }
	var entries []entry
	for n := range r.counters {
		entries = append(entries, entry{n, "counter"})
	}
	for n := range r.gauges {
		entries = append(entries, entry{n, "gauge"})
	}
	for n := range r.histograms {
		entries = append(entries, entry{n, "hist"})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].kind < entries[j].kind
	})
	var b strings.Builder
	for _, e := range entries {
		switch e.kind {
		case "counter":
			fmt.Fprintf(&b, "%-40s %d\n", e.name, r.counters[e.name].Value())
		case "gauge":
			fmt.Fprintf(&b, "%-40s %d (max %d)\n", e.name, r.gauges[e.name].Value(), r.gauges[e.name].Max())
		case "hist":
			fmt.Fprintf(&b, "%-40s %s\n", e.name, r.histograms[e.name].Summary())
		}
	}
	return b.String()
}
