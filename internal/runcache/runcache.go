// Package runcache memoizes simulation results on disk, keyed by a
// content address of the scenario parameters. Every paper figure is a
// grid of independent core.Params points; re-running a figure after
// touching one grid dimension should recompute only the changed points.
// The cache makes that incremental: a point whose canonical parameter
// encoding (plus a simulator-version salt) hashes to a stored entry is
// served from disk, byte-identical to a cold run because the simulator
// itself is bit-deterministic per seed.
//
// Entries are compact JSON files named <sha256>.json under the store
// directory (default results/cache/); readers accept any JSON layout,
// so indented entries written by earlier versions still hit.
// Invalidation is by key construction: the canonical encoding includes
// every parameter field, and the version salt (core.SimVersion) is
// bumped whenever simulator behavior changes, so stale entries are
// simply never addressed again.
//
// The byte layer underneath a Store is pluggable (see Backend): the
// default is a local directory, and NewHTTP reaches the same namespace
// served by a hicserve coordinator, so content-addressed results,
// calibration blobs, and warm checkpoints dedup across machines — one
// worker's DES anchor warms every other worker's fluid routing.
//
// A Store is also the one in-process dedup memo. GetOrCompute collapses
// concurrent computations of a key into one, and the memory layer
// serves later ones, so byte-identical fleet hosts cost one simulation.
// Callers without a persistent cache (core.RunEach, cluster fleets and
// fidelity routers built without one) use NewMemory, a Store with no
// backend.
//
// The execution fidelity participates in the version salt. Pure DES
// results are stored under core.SimVersion exactly as before; the
// fidelity layer (internal/fidelity) salts every approximate strategy
// differently — early-stopped DES appends the stopping rule
// (core.EarlyStop.Version), calibrated fluid appends the fluid model
// version plus the calibration anchor coordinates, and uncalibrated
// fluid appends "+raw". A fluid or early-stopped result can therefore
// never satisfy a pure-DES lookup, or vice versa, even in a shared
// cache directory; internal/core's TestFluidAndDESNeverShareCacheEntry
// pins this.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"hic/internal/host"
	"hic/internal/obs"
)

// DefaultDir is the conventional store location, relative to the
// invocation directory of the cmd/ tools.
const DefaultDir = "results/cache"

// Key content-addresses a canonical parameter encoding under a
// simulator-version salt. Same version + same canonical string ⇒ same
// key; anything else ⇒ a different, never-before-seen key.
func Key(version, canonical string) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	return hex.EncodeToString(h.Sum(nil))
}

// entry is the stored format. Canonical is stored alongside the results
// so a cache directory is auditable (and hash collisions detectable).
type entry struct {
	Version   string       `json:"version"`
	Canonical string       `json:"canonical"`
	Results   host.Results `json:"results"`
}

// memEntry is one result held in the memory layer. untouched marks an
// entry Contains read from the backend: its recency bump is still owed,
// and the first Get that serves it pays it, exactly as if that Get had
// read the backend itself.
type memEntry struct {
	r         host.Results
	untouched bool
}

// Store is a result cache: a memory layer over an optional Backend,
// with an in-flight table that collapses concurrent computations of
// one key into a single simulation. It is safe for concurrent use by
// the parallel sweep runners. A Store from NewMemory has no backend:
// it is the in-process dedup memo for callers without a persistent
// cache, and does no JSON encoding and no backend call.
type Store struct {
	be Backend // nil for a memory-only store

	mu       sync.Mutex
	mem      map[string]memEntry // write-through in-memory layer
	inflight map[string]*call    // keys a GetOrCompute is computing

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	corrupt   atomic.Uint64
	collapses atomic.Uint64
}

// call is one in-flight GetOrCompute computation; callers that find it
// wait on done and share its result.
type call struct {
	done chan struct{}
	res  host.Results
	err  error
}

// Open creates (if needed) and opens a disk store rooted at dir.
func Open(dir string) (*Store, error) {
	be, err := NewDisk(dir)
	if err != nil {
		return nil, err
	}
	return NewStore(be), nil
}

// NewStore wraps a Backend in the full Store machinery (memory layer,
// in-flight collapse, accounting).
func NewStore(be Backend) *Store {
	return &Store{be: be, mem: make(map[string]memEntry), inflight: make(map[string]*call)}
}

// NewMemory returns a Store with no backend: results live in the
// memory layer for the Store's lifetime, so a fleet or sweep without a
// persistent cache still runs each distinct point once. Its size is
// O(distinct keys), which for fleet workloads is the archetype-catalog
// size, not the host count. The blob namespace needs a backend, so
// NewMemory stores are for results only.
func NewMemory() *Store { return NewStore(nil) }

// OpenRemote opens the results namespace a hicserve coordinator serves
// at base (e.g. "http://coordinator:8091") — the -cache-url path every
// CLI shares. Remote stores never prune (the coordinator owns
// eviction) and degrade to misses when the coordinator is unreachable.
func OpenRemote(base string) *Store {
	return NewStore(NewHTTP(RemoteURL(base, RemoteResultsPath), nil))
}

// Dir returns the store's backing location — the root directory for
// disk stores, the base URL for remote ones.
func (s *Store) Dir() string { return s.be.Name() }

// Get returns the memoized results for key. A missing, unreadable, or
// version/canonical-mismatched entry is a miss — the cache is purely an
// accelerator and never an error source. A backend hit bumps the
// entry's recency (Backend.Touch) so size-budget pruning evicts cold
// entries instead of hot ones; hits served by the in-memory layer don't
// re-touch, which is harmless because the first hit of the process
// already did (the first hit on an entry Contains left there is that
// first hit, so it touches).
func (s *Store) Get(key, version, canonical string) (host.Results, bool) {
	if r, ok := s.memHit(key); ok {
		return r, true
	}
	if s.be == nil {
		s.misses.Add(1)
		return host.Results{}, false
	}
	data, ok := s.be.Load(key)
	if !ok {
		s.misses.Add(1)
		return host.Results{}, false
	}
	r, err := decodeEntry(data, version, canonical)
	if err != nil {
		// Corrupt or truncated entry (interrupted write on a filesystem
		// without atomic rename, disk trouble, manual tampering): delete
		// it so the recomputed result can be stored cleanly, and count it
		// separately from ordinary misses so a rotting cache directory is
		// visible in -v output and on /metrics.
		s.dropCorrupt(key)
		return host.Results{}, false
	}
	if r == nil {
		s.misses.Add(1)
		return host.Results{}, false
	}
	s.mu.Lock()
	s.mem[key] = memEntry{r: *r}
	s.mu.Unlock()
	s.be.Touch(key)
	s.hits.Add(1)
	return *r, true
}

// memHit serves key from the memory layer, counting the hit and paying
// the recency bump an entry Contains left there still owes.
func (s *Store) memHit(key string) (host.Results, bool) {
	s.mu.Lock()
	m, ok := s.mem[key]
	if m.untouched {
		s.mem[key] = memEntry{r: m.r}
	}
	s.mu.Unlock()
	if !ok {
		return host.Results{}, false
	}
	if m.untouched {
		s.be.Touch(key)
	}
	s.hits.Add(1)
	return m.r, true
}

// decodeEntry decodes a stored result entry. A nil result with a nil
// error is a version or canonical mismatch; an error means the entry
// does not parse.
func decodeEntry(data []byte, version, canonical string) (*host.Results, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	if e.Version != version || e.Canonical != canonical {
		return nil, nil
	}
	return &e.Results, nil
}

// Contains reports whether a valid entry for key exists, without
// counting a hit or a miss — a pure peek for callers (the fidelity
// warm-start planner) that only need to know whether the exact result
// is already paid for, and must not skew the lookup accounting of the
// run that follows. It doesn't touch recency either. An entry it reads
// from the backend is kept in the memory layer, so the Get that
// usually follows costs no second read or decode; that Get still
// counts the hit and bumps recency, as a Get of its own would.
func (s *Store) Contains(key, version, canonical string) bool {
	s.mu.Lock()
	if _, ok := s.mem[key]; ok {
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	if s.be == nil {
		return false
	}
	data, ok := s.be.Load(key)
	if !ok {
		return false
	}
	r, err := decodeEntry(data, version, canonical)
	if err != nil || r == nil {
		return false
	}
	s.mu.Lock()
	if _, ok := s.mem[key]; !ok {
		s.mem[key] = memEntry{r: *r, untouched: true}
	}
	s.mu.Unlock()
	return true
}

// Put stores results under key. Disk writes are atomic (temp file +
// rename) so concurrent sweep goroutines and interrupted runs never
// leave a torn entry behind. Entries are compact JSON; readers accept
// any JSON layout, so indented entries written before still hit.
func (s *Store) Put(key, version, canonical string, r host.Results) error {
	s.mu.Lock()
	s.mem[key] = memEntry{r: r}
	s.mu.Unlock()
	s.puts.Add(1)
	if s.be == nil {
		return nil
	}
	data, err := json.Marshal(entry{Version: version, Canonical: canonical, Results: r})
	if err != nil {
		return fmt.Errorf("runcache: encoding entry: %w", err)
	}
	return s.be.Store(key, data)
}

// GetOrCompute returns the results for key, computing and storing them
// at most once across concurrent callers: a memory-layer hit returns at
// once; otherwise the first caller looks the key up and, on a miss,
// runs compute while later callers wait for it, so N workers hitting
// the same cold key cost one simulation, one Put, and N-1 collapses.
// Every caller returns only after the winning compute has finished.
// Put failures are returned (a broken cache directory should not be
// silently recomputed forever); compute errors propagate to every
// collapsed caller and are never stored, so a later call recomputes.
func (s *Store) GetOrCompute(key, version, canonical string, compute func() (host.Results, error)) (host.Results, error) {
	if r, ok := s.memHit(key); ok {
		return r, nil
	}
	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.collapses.Add(1)
		if sink := obs.Default(); sink != nil {
			sink.Emit(obs.Event{Kind: obs.KindCacheCollapse, Key: key, Why: "inflight"})
		}
		<-c.done
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	// The Get re-checks the memory layer: a computation that finished
	// between memHit and registering c has already stored its result.
	if r, ok := s.Get(key, version, canonical); ok {
		c.res = r
	} else if c.res, c.err = compute(); c.err == nil {
		c.err = s.Put(key, version, canonical, c.res)
	}

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// dropCorrupt removes an undecodable entry and records the event. A
// corrupt entry counts as a miss too, so hit+miss totals still add up
// to lookups.
func (s *Store) dropCorrupt(key string) {
	s.be.Delete(key)
	s.corrupt.Add(1)
	s.misses.Add(1)
}

// Hits returns how many lookups were served from the cache.
func (s *Store) Hits() uint64 { return s.hits.Load() }

// Misses returns how many lookups fell through to a simulation run.
func (s *Store) Misses() uint64 { return s.misses.Load() }

// Corrupt returns how many undecodable entries were found and deleted.
func (s *Store) Corrupt() uint64 { return s.corrupt.Load() }

// Stats is the counter bundle the cmd/ tools print with -v.
type Stats struct {
	// Hits and Misses count store lookups (memory layer + backend),
	// and Puts the entries written; lookups and writes served to
	// remote clients through Handler count too.
	Hits, Misses, Puts uint64
	// Corrupt counts undecodable entries found during lookups; each was
	// deleted and also counted as a miss.
	Corrupt uint64
	// Collapses counts simulations avoided by the in-flight collapse:
	// GetOrCompute calls that shared another caller's in-flight run.
	Collapses uint64
}

// Stats returns the store's lookup and in-flight collapse counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.Hits(), Misses: s.Misses(), Puts: s.puts.Load(), Corrupt: s.Corrupt(), Collapses: s.collapses.Load()}
}

// MetricsInto implements the control plane's MetricSource interface:
// live cache counters under the hic_runcache_ prefix, sampled from the
// store's atomics on every /metrics scrape. These unlabeled series are
// the result store's; the warm-start store's owner (the fidelity
// router, the serve coordinator) reports it under store="warm".
func (s *Store) MetricsInto(emit func(name, typ string, v float64)) {
	st := s.Stats()
	emit("hic_runcache_hits_total", "counter", float64(st.Hits))
	emit("hic_runcache_misses_total", "counter", float64(st.Misses))
	emit("hic_runcache_puts_total", "counter", float64(st.Puts))
	emit("hic_runcache_collapses_total", "counter", float64(st.Collapses))
	emit("hic_runcache_corrupt_total", "counter", float64(st.Corrupt))
}

// Summary renders the stats on one line for the cmd/ tools' logs.
func (s *Store) Summary() string {
	st := s.Stats()
	out := fmt.Sprintf("%d hits, %d misses", st.Hits, st.Misses)
	if st.Collapses > 0 {
		out += fmt.Sprintf(", %d singleflight collapses", st.Collapses)
	}
	if st.Corrupt > 0 {
		out += fmt.Sprintf(", %d corrupt entries dropped", st.Corrupt)
	}
	return out
}

// Len reports how many entries the store's backend currently holds.
// Backends that don't enumerate (remote stores — the coordinator owns
// the bytes) report zero.
func (s *Store) Len() (int, error) {
	l, ok := s.be.(lister)
	if !ok {
		return 0, nil
	}
	es, err := l.entries()
	if err != nil {
		return 0, err
	}
	return len(es), nil
}
