package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Event is one Chrome trace_event record. The field order (and
// json.Marshal's sorted Args keys) keeps the output byte-stable; unset
// optional fields are omitted.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds since the trace origin
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Thread names one track (tid) of the single traced process.
type Thread struct {
	Tid  int
	Name string
}

// WriteChrome writes Chrome trace_event JSON (the format chrome://tracing
// and Perfetto load): process and thread metadata for pid 1, then events,
// one record per line. It is the one trace_event writer: the sim-time
// span and capture exporters (internal/telemetry) and the wall-clock
// query traces (WriteChromeWallSpans) all render through it.
func WriteChrome(w io.Writer, process string, threads []Thread, events []Event) error {
	all := make([]Event, 0, 1+len(threads)+len(events))
	all = append(all, Event{
		Name: "process_name", Ph: "M", Pid: 1, Cat: "__metadata",
		Args: map[string]any{"name": process},
	})
	for _, t := range threads {
		all = append(all, Event{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: t.Tid, Cat: "__metadata",
			Args: map[string]any{"name": t.Name},
		})
	}
	all = append(all, events...)
	sep := "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
	for _, ev := range all {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s", sep, b); err != nil {
			return err
		}
		sep = ",\n"
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
