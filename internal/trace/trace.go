// Package trace records named time series from a running simulation —
// NIC buffer occupancy, aggregate congestion window, goodput per bin,
// memory load factor — and renders them as CSV for external plotting.
// It exists to make transient behaviour (the Swift sawtooth, burst
// onsets, antagonist arrival) observable, where the Results summary only
// reports steady-state aggregates. The package also owns the one Chrome
// trace_event writer, WriteChrome, that every trace exporter renders
// through.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"hic/internal/sim"
)

// Sample is one (time, value) observation.
type Sample struct {
	At    sim.Time
	Value float64
}

// Recorder accumulates named series. It is single-goroutine, like the
// simulation that feeds it.
type Recorder struct {
	series map[string][]Sample
	order  []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string][]Sample)}
}

// Record appends an observation to the named series. Times must be
// non-decreasing per series; out-of-order samples panic (they indicate a
// probe wired across simulations).
func (r *Recorder) Record(name string, at sim.Time, v float64) {
	s := r.series[name]
	if len(s) > 0 && at < s[len(s)-1].At {
		panic(fmt.Sprintf("trace: out-of-order sample for %q (%d samples): %v after %v",
			name, len(s), at, s[len(s)-1].At))
	}
	if s == nil {
		r.order = append(r.order, name)
	}
	r.series[name] = append(s, Sample{At: at, Value: v})
}

// Names returns the series names in first-recorded order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Series returns a copy of one series.
func (r *Recorder) Series(name string) []Sample {
	s := r.series[name]
	out := make([]Sample, len(s))
	copy(out, s)
	return out
}

// Len returns the total number of samples across all series.
func (r *Recorder) Len() int {
	n := 0
	for _, s := range r.series {
		n += len(s)
	}
	return n
}

// MergeDownsample caps every series at maxSamples points by merging
// fixed-size groups of consecutive samples: each group collapses to one
// sample at the group's last timestamp carrying the group's mean value.
// Long runs with fine probe periods stay plottable without losing the
// window averages. maxSamples ≤ 0 is a no-op; series at or under the cap
// are untouched.
func (r *Recorder) MergeDownsample(maxSamples int) {
	if maxSamples <= 0 {
		return
	}
	for name, s := range r.series {
		if len(s) <= maxSamples {
			continue
		}
		group := (len(s) + maxSamples - 1) / maxSamples
		out := make([]Sample, 0, (len(s)+group-1)/group)
		for i := 0; i < len(s); i += group {
			end := i + group
			if end > len(s) {
				end = len(s)
			}
			var sum float64
			for _, smp := range s[i:end] {
				sum += smp.Value
			}
			out = append(out, Sample{At: s[end-1].At, Value: sum / float64(end-i)})
		}
		r.series[name] = out
	}
}

// CSV renders all series in long form: time_us,series,value. Rows are
// ordered by time, then by series name, so output is deterministic.
func (r *Recorder) CSV() string {
	type row struct {
		at   sim.Time
		name string
		v    float64
	}
	var rows []row
	for name, s := range r.series {
		for _, smp := range s {
			rows = append(rows, row{smp.At, name, smp.Value})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].at != rows[j].at {
			return rows[i].at < rows[j].at
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	b.WriteString("time_us,series,value\n")
	for _, rw := range rows {
		fmt.Fprintf(&b, "%.3f,%s,%.6g\n", rw.at.Seconds()*1e6, rw.name, rw.v)
	}
	return b.String()
}

// Wide renders all series pivoted on shared sample times (suitable for
// probes driven by a single ticker): time_us,<name1>,<name2>,...
// Series missing a sample at some timestamp leave the cell empty.
func (r *Recorder) Wide() string {
	times := map[sim.Time]bool{}
	for _, s := range r.series {
		for _, smp := range s {
			times[smp.At] = true
		}
	}
	sorted := make([]sim.Time, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	idx := make(map[string]int, len(r.order))
	var b strings.Builder
	b.WriteString("time_us")
	for _, name := range r.order {
		b.WriteString("," + name)
	}
	b.WriteByte('\n')
	for _, t := range sorted {
		fmt.Fprintf(&b, "%.3f", t.Seconds()*1e6)
		for _, name := range r.order {
			s := r.series[name]
			i := idx[name]
			cell := ""
			if i < len(s) && s[i].At == t {
				cell = fmt.Sprintf("%.6g", s[i].Value)
				idx[name] = i + 1
			}
			b.WriteString("," + cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
