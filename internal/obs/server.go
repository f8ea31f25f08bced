package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"hic/internal/metrics"
)

// Options configures a Server.
type Options struct {
	// Warn receives one-line structured warnings the moment they occur
	// (an audit exceeding tolerance, a profiler error). nil = stderr.
	Warn io.Writer
	// EventCap bounds the event ring (0 = 4096 events).
	EventCap int
	// ProfileDir, when set, enables continuous profile capture: one CPU
	// profile spanning each ProfileInterval plus a heap profile at each
	// boundary, written as numbered pprof files under the directory.
	ProfileDir string
	// ProfileInterval is the capture cadence (0 = 30s).
	ProfileInterval time.Duration
	// EventLog, when non-nil, receives every event as one JSON line at
	// Emit time — the durable companion to the bounded ring (the
	// -events-out flag). Writes are serialized by the server; the first
	// write error disables the log with a warning. If it also
	// implements io.Closer, Close closes it.
	EventLog io.Writer
}

// Server is the HTTP control plane and the canonical Sink. Construct
// with NewServer (handlers only, for embedding/tests) or Start (bind
// and serve).
type Server struct {
	opts  Options
	now   func() time.Time // test hook; time.Now in production
	start time.Time

	ring    *Ring
	tracker *Tracker
	agg     *fleetAgg

	mu       sync.Mutex
	sources  []MetricSource
	kinds    map[string]uint64
	warnings uint64
	eventLog io.Writer // nil after a write error or Close

	ln   net.Listener
	srv  *http.Server
	prof *profiler
}

// NewServer builds a server without binding a listener — Handler
// serves its endpoints; Start wraps this with a real listener.
func NewServer(o Options) *Server {
	if o.Warn == nil {
		o.Warn = os.Stderr
	}
	if o.EventCap <= 0 {
		o.EventCap = 4096
	}
	if o.ProfileInterval <= 0 {
		o.ProfileInterval = 30 * time.Second
	}
	s := &Server{
		opts:  o,
		now:   time.Now,
		ring:  NewRing(o.EventCap),
		kinds: make(map[string]uint64),
		agg:   newFleetAgg(),
	}
	s.start = s.now()
	s.eventLog = o.EventLog
	s.tracker = NewTracker(func() time.Time { return s.now() })
	return s
}

// Start binds addr (e.g. ":6060"), serves the control plane in the
// background, and starts continuous profile capture when configured.
func Start(addr string, o Options) (*Server, error) {
	s := NewServer(o)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	if o.ProfileDir != "" {
		s.prof = startProfiler(o.ProfileDir, s.opts.ProfileInterval, s.opts.Warn)
	}
	return s, nil
}

// Addr returns the bound listen address ("" when built by NewServer).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the profiler, the HTTP server, and the event log (when
// it is closable). The sink methods stay safe to call after Close
// (events land in the ring, unserved and unlogged).
func (s *Server) Close() error {
	if s.prof != nil {
		s.prof.stopAndWait()
	}
	s.mu.Lock()
	w := s.eventLog
	s.eventLog = nil
	s.mu.Unlock()
	var logErr error
	if c, ok := w.(io.Closer); ok {
		logErr = c.Close()
	}
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			return err
		}
	}
	return logErr
}

// Tracker returns the run registry (the /progress source).
func (s *Server) Tracker() *Tracker { return s.tracker }

// AddSource registers a live metric source for /metrics; sources are
// sampled on every scrape in registration order.
func (s *Server) AddSource(src MetricSource) {
	if src == nil {
		return
	}
	s.mu.Lock()
	s.sources = append(s.sources, src)
	s.mu.Unlock()
}

// Emit implements Sink: stamp, ring-append, count by kind, and raise
// an immediate warning for audit-over-tolerance and warning events —
// the operator hears about a failing audit when it fails, not in the
// run-end summary.
func (s *Server) Emit(e Event) {
	if e.WallNs == 0 {
		e.WallNs = s.now().UnixNano()
	}
	e = s.ring.Append(e)
	warn := e.Kind == KindWarning || e.Kind == KindWorkerStale ||
		(e.Kind == KindAuditResult && e.OverTol)
	var logErr error
	s.mu.Lock()
	s.kinds[e.Kind]++
	if warn {
		s.warnings++
	}
	if s.eventLog != nil {
		if b, err := json.Marshal(e); err == nil {
			b = append(b, '\n')
			if _, werr := s.eventLog.Write(b); werr != nil {
				s.eventLog = nil
				logErr = werr
			}
		}
	}
	s.mu.Unlock()
	if logErr != nil {
		fmt.Fprintf(s.opts.Warn, "obs: event log write failed: %v (log disabled)\n", logErr)
	}
	if warn {
		if b, err := json.Marshal(e); err == nil {
			fmt.Fprintf(s.opts.Warn, "obs: WARN %s\n", b)
		}
	}
}

// StartRun implements Sink: register in the tracker and bracket the
// run with run_start/run_finish events.
func (s *Server) StartRun(label string, total int64, phases ...string) *Run {
	r := s.tracker.StartRun(label, total, phases...)
	s.Emit(Event{Kind: KindRunStart, Run: r.Label()})
	r.onFinish = func(r *Run) {
		s.Emit(Event{Kind: KindRunFinish, Run: r.Label()})
	}
	return r
}

// RunMetrics implements Sink: fold a completed simulation's registry
// snapshot into the fleet-cumulative rollup served by /metrics.
func (s *Server) RunMetrics(snap Snapshot) { s.agg.merge(snap) }

// Handler returns the control plane mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// Register installs the control-plane endpoints on an existing mux,
// skipping any pattern the mux already serves — so a host process (the
// serve daemon) can hang its own API and the control plane off one
// server and port without http.ServeMux's duplicate-registration
// panic. The host's handlers win on conflict; the patterns actually
// registered are returned so callers can log what the control plane
// ended up owning.
func (s *Server) Register(mux *http.ServeMux) []string {
	endpoints := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"/", s.handleIndex},
		{"/metrics", s.handleMetrics},
		{"/progress", s.handleProgress},
		{"/events", s.handleEvents},
		{"/debug/pprof/", pprof.Index},
		{"/debug/pprof/cmdline", pprof.Cmdline},
		{"/debug/pprof/profile", pprof.Profile},
		{"/debug/pprof/symbol", pprof.Symbol},
		{"/debug/pprof/trace", pprof.Trace},
	}
	var added []string
	for _, e := range endpoints {
		if muxHasPattern(mux, e.pattern) {
			continue
		}
		mux.HandleFunc(e.pattern, e.h)
		added = append(added, e.pattern)
	}
	return added
}

// muxHasPattern reports whether mux already has a handler registered
// under exactly this pattern. ServeMux has no lookup API, so probe with
// a synthetic request for the pattern's path: Handler returns the
// pattern that would serve it, which equals ours only if ours (or an
// identical one) is registered — a shallower fallback like "/" comes
// back as its own pattern and does not mask deeper registrations.
func muxHasPattern(mux *http.ServeMux, pattern string) bool {
	_, got := mux.Handler(&http.Request{
		Method: http.MethodGet,
		Host:   "probe.invalid",
		URL:    &url.URL{Path: pattern},
	})
	return got == pattern
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "hic control plane\n\n"+
		"/metrics       Prometheus text exposition (live executor + fleet rollup)\n"+
		"/progress      JSON run registry: per-phase completion, points/sec, ETA\n"+
		"/events        structured event log (JSONL ring; ?n=N limits, ?since=SEQ tails)\n"+
		"/debug/pprof/  pprof profiles (profile, heap, goroutine, trace, ...)\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	out := struct {
		Runs      []RunStatus `json:"runs"`
		Aggregate RunStatus   `json:"aggregate"`
	}{Runs: s.tracker.Snapshot(), Aggregate: s.tracker.Aggregate()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client disconnects are not ours
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	// ?since=N tails incrementally: only events with seq > N, so a
	// poller that passes back the last seq it saw reads each event once
	// instead of re-reading the whole ring (or losing events past wrap).
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			since = n
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	s.ring.WriteJSONLSince(w, since, limit) //nolint:errcheck
}

// WriteMetrics renders the full exposition: control-plane self
// metrics, the run registry, every registered live source, and the
// fleet-cumulative registry rollup. Output is deterministic for a
// given state (sorted where the underlying order is a map's).
func (s *Server) WriteMetrics(w io.Writer) error {
	now := s.now()
	s.mu.Lock()
	sources := append([]MetricSource(nil), s.sources...)
	kinds := make([]string, 0, len(s.kinds))
	for k := range s.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	kindCounts := make([]uint64, len(kinds))
	for i, k := range kinds {
		kindCounts[i] = s.kinds[k]
	}
	warnings := s.warnings
	s.mu.Unlock()

	p := &promWriter{}
	sample(p, "hic_obs_uptime_seconds", "gauge", now.Sub(s.start).Seconds())
	sample(p, "hic_obs_events_total", "counter", s.ring.Total())
	sample(p, "hic_obs_events_dropped_total", "counter", s.ring.Dropped())
	sample(p, "hic_obs_warnings_total", "counter", warnings)
	for i, k := range kinds {
		sample(p, fmt.Sprintf("hic_obs_events_kind_total{kind=%q}", k), "counter", kindCounts[i])
	}

	for _, st := range s.tracker.Snapshot() {
		l := fmt.Sprintf("{run=%q}", st.Run)
		sample(p, "hic_obs_run_total"+l, "gauge", st.Total)
		sample(p, "hic_obs_run_done"+l, "gauge", st.Done)
		sample(p, "hic_obs_run_points_per_sec"+l, "gauge", st.PointsPerSec)
		sample(p, "hic_obs_run_eta_seconds"+l, "gauge", st.EtaSec)
		var fin int64
		if st.Finished {
			fin = 1
		}
		sample(p, "hic_obs_run_finished"+l, "gauge", fin)
	}

	for _, src := range sources {
		src.MetricsInto(func(name, typ string, v float64) { sample(p, name, typ, v) })
	}
	s.agg.write(p)
	return p.flush(w)
}

// fleetAgg accumulates registry snapshots across completed
// simulations: counters sum, gauge maxima keep their max, histograms
// keep count and sum. Quantiles are not merged (they are not mergeable
// from snapshots); per-run quantiles remain available through the
// one-shot WritePrometheus export.
type fleetAgg struct {
	mu       sync.Mutex
	runs     uint64
	counters map[string]uint64
	gaugeMax map[string]int64
	histCnt  map[string]uint64
	histSum  map[string]float64
}

func newFleetAgg() *fleetAgg {
	return &fleetAgg{
		counters: make(map[string]uint64),
		gaugeMax: make(map[string]int64),
		histCnt:  make(map[string]uint64),
		histSum:  make(map[string]float64),
	}
}

func (f *fleetAgg) merge(snap metrics.Snapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.runs++
	for n, v := range snap.Counters {
		f.counters[n] += v
	}
	for n, g := range snap.Gauges {
		if g.Max > f.gaugeMax[n] {
			f.gaugeMax[n] = g.Max
		}
	}
	for n, h := range snap.Histograms {
		f.histCnt[n] += h.Count
		f.histSum[n] += h.Sum
	}
}

// write renders the rollup under the hic_fleet_ prefix with the
// snapshot export's name mangling, so series names line up with the
// one-shot -metrics-out output.
func (f *fleetAgg) write(p *promWriter) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sample(p, "hic_fleet_runs_total", "counter", f.runs)
	for _, n := range sortedKeys(f.counters) {
		sample(p, promName("hic_fleet_", n)+"_total", "counter", f.counters[n])
	}
	for _, n := range sortedKeys(f.gaugeMax) {
		sample(p, promName("hic_fleet_", n)+"_max", "gauge", f.gaugeMax[n])
	}
	for _, n := range sortedKeys(f.histCnt) {
		name := promName("hic_fleet_", n)
		sample(p, name+"_count", "counter", f.histCnt[n])
		sample(p, name+"_sum", "gauge", f.histSum[n])
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
