package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"hic/internal/obs"
)

// workerState is the coordinator's view of one registered worker: the
// fleet health registry entry behind WorkersPath, the staleness
// detector's input, and the accumulator the federated hic_worker_*
// series are served from. All fields are guarded by the owning
// Server's mu.
type workerState struct {
	id         string
	name       string
	registered time.Time
	lastSeen   time.Time
	// backoffMS is the worker's self-reported idle poll backoff at its
	// most recent poll.
	backoffMS float64
	// staleWarned suppresses repeat worker_stale warnings until the
	// worker is seen again.
	staleWarned bool
	// active is the lease the worker holds (nil = idle).
	active *heldLease

	ranges      uint64
	prefetches  uint64
	expirations uint64
	duplicates  uint64
	// counters federates the worker's accepted completions:
	// the cluster.Stats enumeration plus worker-local deltas, keyed by
	// hic_worker_* series suffix.
	counters map[string]float64
}

// heldLease identifies the lease a worker currently holds.
type heldLease struct {
	job     string
	rangeID int
	kind    string // "range" or LeasePrefetch
	lo, hi  int
	since   time.Time
}

// seen marks contact from the worker (register, poll, or completion)
// and re-arms its staleness warning. Called under the server lock.
func (ws *workerState) seen(now time.Time) {
	ws.lastSeen = now
	ws.staleWarned = false
}

// leaseKindLabel names a lease kind for events and registry entries.
func leaseKindLabel(kind string) string {
	if kind == LeasePrefetch {
		return LeasePrefetch
	}
	return "range"
}

// staleAfter is the staleness threshold: a worker not seen for this
// long is stale, and stale-with-a-lease raises a WARN. Half the lease
// timeout by default, so the operator hears about a dying worker one
// reclaim cycle before its lease expires and the work reruns.
func (s *Server) staleAfter() time.Duration {
	if s.opts.StaleAfter > 0 {
		return s.opts.StaleAfter
	}
	return s.opts.LeaseTimeout / 2
}

// foldCompletion attributes an accepted completion to its worker:
// liveness, lease accounting, and the federated counter fold. Called
// under the server lock.
func (s *Server) foldCompletion(p *RangePartial, now time.Time) {
	ws := s.workers[p.Worker]
	if ws == nil {
		return
	}
	ws.seen(now)
	if a := ws.active; a != nil && a.job == p.Job && a.rangeID == p.RangeID &&
		(a.kind == LeasePrefetch) == p.Prefetch {
		ws.active = nil
	}
	if p.Prefetch {
		ws.prefetches++
	} else {
		ws.ranges++
	}
	if ws.counters == nil {
		ws.counters = make(map[string]float64)
	}
	p.Stats.Each(func(name string, v uint64) {
		if v != 0 {
			ws.counters[name] += float64(v)
		}
	})
	if d := p.Deltas; d != nil {
		ws.counters["cache_hits_total"] += float64(d.CacheHits)
		ws.counters["cache_misses_total"] += float64(d.CacheMisses)
		ws.counters["cache_collapses_total"] += float64(d.CacheCollapses)
		ws.counters["pool_tasks_total"] += float64(d.PoolTasks)
		ws.counters["exec_ms_total"] += d.ExecMS
	}
}

// checkStale scans for workers holding a lease without recent contact
// and returns one worker_stale event per newly-stale worker (the obs
// sink raises each as an immediate WARN). Called under the server lock
// from the query handler's reclaim ticker — staleness is detected
// while queries are in flight, which is exactly when leases exist.
func (s *Server) checkStale(now time.Time) []obs.Event {
	if s.opts.Obs == nil {
		return nil
	}
	var evs []obs.Event
	threshold := s.staleAfter()
	for _, ws := range s.workers {
		a := ws.active
		if a == nil || ws.staleWarned || now.Sub(ws.lastSeen) <= threshold {
			continue
		}
		ws.staleWarned = true
		unseen := now.Sub(ws.lastSeen)
		expiresIn := s.opts.LeaseTimeout - now.Sub(a.since)
		evs = append(evs, obs.Event{
			Kind: obs.KindWorkerStale, Run: "serve:" + a.job,
			Point: a.rangeID, Key: ws.id, Route: leaseKindLabel(a.kind),
			Value: unseen.Seconds(),
			Why: fmt.Sprintf("worker unseen for %.1fs while holding %s %d of %s (lease expires in %.1fs)",
				unseen.Seconds(), leaseKindLabel(a.kind), a.rangeID, a.job, expiresIn.Seconds()),
		})
	}
	return evs
}

// emitEvents forwards coordinator lifecycle events to the obs sink.
// Always called outside the server lock (the sink has its own).
func (s *Server) emitEvents(evs []obs.Event) {
	if s.opts.Obs == nil {
		return
	}
	for _, e := range evs {
		s.opts.Obs.Emit(e)
	}
}

// workerInfos snapshots the registry, sorted by worker id.
func (s *Server) workerInfos(now time.Time) []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	threshold := s.staleAfter()
	out := make([]WorkerInfo, 0, len(s.workers))
	for _, ws := range s.workers {
		info := WorkerInfo{
			ID:               ws.id,
			Name:             ws.name,
			RegisteredAgoSec: now.Sub(ws.registered).Seconds(),
			LastSeenAgoSec:   now.Sub(ws.lastSeen).Seconds(),
			Stale:            now.Sub(ws.lastSeen) > threshold,
			BackoffMS:        ws.backoffMS,
			RangesDone:       ws.ranges,
			PrefetchesDone:   ws.prefetches,
			Expirations:      ws.expirations,
			Duplicates:       ws.duplicates,
		}
		if a := ws.active; a != nil {
			info.Active = &ActiveLease{Job: a.job, RangeID: a.rangeID,
				Kind: leaseKindLabel(a.kind), Lo: a.lo, Hi: a.hi,
				HeldMS: float64(now.Sub(a.since).Nanoseconds()) / 1e6}
		}
		if len(ws.counters) > 0 {
			info.Counters = make(map[string]float64, len(ws.counters))
			for k, v := range ws.counters {
				info.Counters[k] = v
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleWorkers serves the fleet health registry.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	out := struct {
		Workers       []WorkerInfo `json:"workers"`
		StaleAfterSec float64      `json:"stale_after_sec"`
	}{Workers: s.workerInfos(time.Now()), StaleAfterSec: s.staleAfter().Seconds()}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client disconnects are not ours
}

// MetricsInto implements the control plane's MetricSource interface:
// the federated per-worker series (hic_worker_*, labeled by worker id)
// plus the fleet rollups (hic_workers_*, the label-free sums), sampled
// from the registry on every /metrics scrape, and the warm-start
// store's hic_runcache_* series labeled store="warm" (the result store
// is registered on its own, unlabeled). Per-worker counters sum to the
// merged queries' counters by construction — both sides fold the same
// accepted partials.
func (s *Server) MetricsInto(emit func(name, typ string, v float64)) {
	if ws := s.opts.WarmStore; ws != nil {
		ws.MetricsInto(func(name, typ string, v float64) { emit(name+`{store="warm"}`, typ, v) })
	}
	infos := s.workerInfos(time.Now())

	var staleCount, activeCount float64
	fleet := make(map[string]float64)
	fleetLease := map[string]float64{}
	for _, info := range infos {
		l := fmt.Sprintf("{worker=%q}", info.ID)
		emit("hic_worker_last_seen_seconds"+l, "gauge", info.LastSeenAgoSec)
		stale := 0.0
		if info.Stale {
			stale, staleCount = 1, staleCount+1
		}
		emit("hic_worker_stale"+l, "gauge", stale)
		emit("hic_worker_backoff_ms"+l, "gauge", info.BackoffMS)
		held := 0.0
		if info.Active != nil {
			held, activeCount = 1, activeCount+1
		}
		emit("hic_worker_active_lease"+l, "gauge", held)
		emit("hic_worker_ranges_done_total"+l, "counter", float64(info.RangesDone))
		emit("hic_worker_prefetches_done_total"+l, "counter", float64(info.PrefetchesDone))
		emit("hic_worker_expirations_total"+l, "counter", float64(info.Expirations))
		emit("hic_worker_duplicates_total"+l, "counter", float64(info.Duplicates))
		fleetLease["ranges_done_total"] += float64(info.RangesDone)
		fleetLease["prefetches_done_total"] += float64(info.PrefetchesDone)
		fleetLease["expirations_total"] += float64(info.Expirations)
		fleetLease["duplicates_total"] += float64(info.Duplicates)
		for _, name := range sortedCounterKeys(info.Counters) {
			emit("hic_worker_"+name+l, "counter", info.Counters[name])
			fleet[name] += info.Counters[name]
		}
	}

	emit("hic_workers_registered", "gauge", float64(len(infos)))
	emit("hic_workers_stale", "gauge", staleCount)
	emit("hic_workers_active_leases", "gauge", activeCount)
	for _, name := range []string{"ranges_done_total", "prefetches_done_total", "expirations_total", "duplicates_total"} {
		emit("hic_workers_"+name, "counter", fleetLease[name])
	}
	for _, name := range sortedCounterKeys(fleet) {
		emit("hic_workers_"+name, "counter", fleet[name])
	}
}

func sortedCounterKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
