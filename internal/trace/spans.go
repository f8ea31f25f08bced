// Wall-clock span export: the distributed-serve counterpart to the
// sim-time series recorder. A sharded query's lifecycle (queue wait,
// prefetch barrier, per-worker range leases, merge) is a set of
// WallSpan values collected by the coordinator; WriteChromeWallSpans renders
// them through the same trace_event writer telemetry's sim-time
// exporter uses, so Perfetto shows the query as one process
// with one track per span track name (the coordinator plus each
// worker).
package trace

import (
	"fmt"
	"io"
	"sort"
)

// WallSpan is one wall-clock slice on a named track. Times are Unix
// nanoseconds; the writer normalizes them so the earliest span starts
// at ts=0 (absolute wall epochs overflow the float64 microseconds the
// trace_event format carries).
type WallSpan struct {
	// Name is the slice label ("queue", "range 3 [120,180)", ...).
	Name string `json:"name"`
	// Track groups spans onto one Perfetto track ("coordinator",
	// "worker w1-a", ...); tracks render in first-appearance order.
	Track string `json:"track"`
	// StartNs and EndNs bound the slice in Unix nanoseconds.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Args annotate the slice (points merged, anchor runs, ...).
	Args map[string]float64 `json:"args,omitempty"`
}

// WriteChromeWallSpans renders wall-clock spans as Chrome trace_event
// JSON through WriteChrome: one process named process, one thread per
// distinct Track (tid assigned in first-appearance order), and each
// span a complete "X" slice. Timestamps are microseconds relative to
// the earliest span start, so traces are byte-stable across reruns of
// identical relative timing. Output is deterministic for a given span
// slice (json.Marshal sorts Args keys).
func WriteChromeWallSpans(w io.Writer, process string, spans []WallSpan) error {
	var threads []Thread
	tids := make(map[string]int)
	var origin int64
	for i, sp := range spans {
		if _, ok := tids[sp.Track]; !ok {
			tids[sp.Track] = len(tids) + 1
			threads = append(threads, Thread{Tid: tids[sp.Track], Name: sp.Track})
		}
		if i == 0 || sp.StartNs < origin {
			origin = sp.StartNs
		}
	}

	events := make([]Event, 0, len(spans))
	for _, sp := range spans {
		if sp.EndNs < sp.StartNs {
			return fmt.Errorf("trace: span %q on %q ends before it starts", sp.Name, sp.Track)
		}
		var args map[string]any
		if len(sp.Args) > 0 {
			args = make(map[string]any, len(sp.Args))
			for k, v := range sp.Args {
				args[k] = v
			}
		}
		events = append(events, Event{
			Name: sp.Name, Cat: "serve", Ph: "X",
			Ts:  float64(sp.StartNs-origin) / 1e3,
			Dur: float64(sp.EndNs-sp.StartNs) / 1e3,
			Pid: 1, Tid: tids[sp.Track], Args: args,
		})
	}
	return WriteChrome(w, process, threads, events)
}

// SortWallSpans orders spans by start time, then track, then name —
// the canonical order the serve coordinator emits, stable so equal
// traces render (and hash) identically.
func SortWallSpans(spans []WallSpan) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartNs != spans[j].StartNs {
			return spans[i].StartNs < spans[j].StartNs
		}
		if spans[i].Track != spans[j].Track {
			return spans[i].Track < spans[j].Track
		}
		return spans[i].Name < spans[j].Name
	})
}
