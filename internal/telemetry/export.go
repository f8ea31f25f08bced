// Exporters: Chrome trace_event JSON (chrome://tracing / Perfetto) and
// a per-stage latency-breakdown table for the CLI (a metrics snapshot's
// Prometheus text is obs.WritePrometheus). All output is deterministic
// for a given input so telemetry artifacts are byte-reproducible per
// seed.
package telemetry

import (
	"fmt"
	"io"
	"sort"

	"hic/internal/asciiplot"
	"hic/internal/sim"
	"hic/internal/trace"
)

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteChromeTrace renders the run's spans and drop events in Chrome
// trace_event JSON (the format chrome://tracing and Perfetto load).
//
// Each sampled DMA becomes a nestable async slice ("b"/"e", id = packet
// ID) whose nested child slices are the pipeline stages — async slices
// are the trace_event idiom for work that overlaps on one track, which
// in-flight DMAs do (several packets sit between buffer head and credit
// release at once). Stage annotations ride in args. Drops appear as
// thread-scoped instant events named by their attributed cause.
func WriteChromeTrace(w io.Writer, run *Run) error {
	queues := map[int]bool{}
	var events []trace.Event
	if run.Tracer != nil {
		for _, sp := range run.Tracer.Spans() {
			queues[sp.Queue] = true
			id := fmt.Sprintf("0x%x", sp.ID)
			end := sp.End
			if end == 0 {
				end = sp.cursor // unfinished span: close at its covered prefix
			}
			events = append(events, trace.Event{
				Name: "dma", Cat: "dma", Ph: "b", Ts: usec(sp.Start),
				Pid: 1, Tid: sp.Queue + 1, ID: id,
				Args: map[string]any{
					"flow": float64(sp.Flow),
					"seq":  float64(sp.Seq),
				},
			})
			for _, st := range sp.Stages {
				if st.Enter == st.Exit && len(st.Attrs) == 0 {
					continue // zero-length spacer with nothing to say
				}
				args := make(map[string]any, len(st.Attrs))
				for _, a := range st.Attrs {
					args[a.Key] = a.Value
				}
				events = append(events,
					trace.Event{Name: st.Stage.String(), Cat: "dma", Ph: "b",
						Ts: usec(st.Enter), Pid: 1, Tid: sp.Queue + 1, ID: id, Args: args},
					trace.Event{Name: st.Stage.String(), Cat: "dma", Ph: "e",
						Ts: usec(st.Exit), Pid: 1, Tid: sp.Queue + 1, ID: id})
			}
			events = append(events, trace.Event{
				Name: "dma", Cat: "dma", Ph: "e", Ts: usec(end),
				Pid: 1, Tid: sp.Queue + 1, ID: id,
			})
		}
	}

	if run.Drops != nil {
		for _, ev := range run.Drops.Events() {
			queues[ev.Queue] = true
			events = append(events, trace.Event{
				Name: "drop:" + ev.Cause.String(), Cat: "drop", Ph: "i",
				Ts: usec(ev.At), Pid: 1, Tid: ev.Queue + 1, Scope: "t",
				Args: map[string]any{
					"flow":            float64(ev.Flow),
					"mem_load_factor": ev.Ctx.MemLoadFactor,
					"iotlb_miss_rate": ev.Ctx.IOTLBMissRate,
					"mem_queue_ns":    float64(ev.Ctx.MemQueueDelay),
					"credit_stall_ns": float64(ev.Ctx.CreditStallAge),
					"buffer_bytes":    float64(ev.Ctx.BufferBytes),
				},
			})
		}
	}

	return trace.WriteChrome(w, "hic receiver host", queueThreads(queues), events)
}

// queueThreads names one track per receive queue, tid q+1, in queue
// order.
func queueThreads(queues map[int]bool) []trace.Thread {
	threads := make([]trace.Thread, 0, len(queues))
	for q := range queues {
		threads = append(threads, trace.Thread{Tid: q + 1, Name: fmt.Sprintf("rx-queue-%d", q)})
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i].Tid < threads[j].Tid })
	return threads
}

// CaptureEvent is one complete (begin+duration) observation for
// WriteCaptureTrace — hiccap uses it to render a wire capture as a
// Chrome trace without access to live Span objects.
type CaptureEvent struct {
	// Name labels the slice (e.g. the packet kind).
	Name string
	// Queue selects the track; tracks are named "rx-queue-<q>".
	Queue int
	// Start and End bound the slice in simulation time.
	Start, End sim.Time
	// Args are optional annotations shown in the trace viewer.
	Args map[string]any
}

// WriteCaptureTrace renders capture-derived events as Chrome trace_event
// JSON: one complete ("X") slice per event on its queue's track. Events
// are emitted in input order; output is deterministic for a given input.
func WriteCaptureTrace(w io.Writer, name string, evs []CaptureEvent) error {
	queues := map[int]bool{}
	events := make([]trace.Event, 0, len(evs))
	for _, ev := range evs {
		queues[ev.Queue] = true
		events = append(events, trace.Event{
			Name: ev.Name, Cat: "wire", Ph: "X", Ts: usec(ev.Start),
			Dur: usec(ev.End) - usec(ev.Start), Pid: 1, Tid: ev.Queue + 1,
			Args: ev.Args,
		})
	}
	return trace.WriteChrome(w, name, queueThreads(queues), events)
}

// StageStats summarizes one pipeline stage across a run's sampled spans.
type StageStats struct {
	Stage    string  `json:"stage"`
	Count    uint64  `json:"count"`
	MeanNs   float64 `json:"mean_ns"`
	P50Ns    float64 `json:"p50_ns"`
	P99Ns    float64 `json:"p99_ns"`
	MaxNs    float64 `json:"max_ns"`
	SharePct float64 `json:"share_pct"` // of total sampled pipeline time
}

// StageBreakdown aggregates stage durations across spans, in pipeline
// order. Quantiles are exact (computed over the sampled population).
func StageBreakdown(spans []*Span) []StageStats {
	durs := make([][]float64, numStages)
	var grand float64
	for _, sp := range spans {
		for _, st := range sp.Stages {
			d := float64(st.Duration())
			durs[st.Stage] = append(durs[st.Stage], d)
			grand += d
		}
	}
	var out []StageStats
	for s := Stage(0); s < numStages; s++ {
		ds := durs[s]
		if len(ds) == 0 {
			continue
		}
		sort.Float64s(ds)
		var sum float64
		for _, d := range ds {
			sum += d
		}
		share := 0.0
		if grand > 0 {
			share = sum / grand * 100
		}
		out = append(out, StageStats{
			Stage:    s.String(),
			Count:    uint64(len(ds)),
			MeanNs:   sum / float64(len(ds)),
			P50Ns:    quantile(ds, 0.5),
			P99Ns:    quantile(ds, 0.99),
			MaxNs:    ds[len(ds)-1],
			SharePct: share,
		})
	}
	return out
}

// quantile returns the q-quantile of sorted values by lower rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// BreakdownTable renders the per-stage latency decomposition as an
// aligned text table — the CLI's answer to "where does a DMA's time go".
func BreakdownTable(spans []*Span) string {
	stats := StageBreakdown(spans)
	cols := []string{"stage", "count", "mean_us", "p50_us", "p99_us", "max_us", "share"}
	rows := make([][]string, 0, len(stats))
	for _, s := range stats {
		rows = append(rows, []string{
			s.Stage,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.3f", s.MeanNs/1e3),
			fmt.Sprintf("%.3f", s.P50Ns/1e3),
			fmt.Sprintf("%.3f", s.P99Ns/1e3),
			fmt.Sprintf("%.3f", s.MaxNs/1e3),
			fmt.Sprintf("%.1f%%", s.SharePct),
		})
	}
	if len(rows) == 0 {
		return "no sampled spans\n"
	}
	return asciiplot.FormatTable(cols, rows)
}

// DropSummary is the ledger's machine-readable rollup.
type DropSummary struct {
	Total     uint64 `json:"total"`
	MemoryBus uint64 `json:"memory_bus"`
	IOTLBWalk uint64 `json:"iotlb_walk"`
	Overload  uint64 `json:"overload"`
}

// Summary is one run's exportable telemetry rollup: everything a sweep
// needs to keep per grid point so runs stay post-hoc analyzable.
type Summary struct {
	SampleRate  float64      `json:"sample_rate"`
	Arrived     uint64       `json:"packets_arrived"`
	Spans       uint64       `json:"spans"`
	SpansCapped uint64       `json:"spans_capped,omitempty"`
	Stages      []StageStats `json:"stages"`
	Drops       DropSummary  `json:"drops"`
}

// Summary assembles the run's rollup.
func (r *Run) Summary() Summary {
	s := Summary{}
	if r.Tracer != nil {
		s.SampleRate = r.Tracer.Rate()
		s.Arrived = r.Tracer.Arrived()
		s.Spans = r.Tracer.Sampled()
		s.SpansCapped = r.Tracer.Capped()
		s.Stages = StageBreakdown(r.Tracer.Spans())
	}
	if r.Drops != nil {
		s.Drops = DropSummary{
			Total:     r.Drops.Total(),
			MemoryBus: r.Drops.Count(CauseMemoryBus),
			IOTLBWalk: r.Drops.Count(CauseIOTLBWalk),
			Overload:  r.Drops.Count(CauseOverload),
		}
	}
	return s
}
