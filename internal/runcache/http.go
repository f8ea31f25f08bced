package runcache

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// HTTP transport for the Backend interface: a hicserve coordinator
// mounts Store.Handler over its own disk-backed stores, and every
// worker (or any CLI pointed at it with -cache-url/-warm-url) opens the
// same namespaces through NewHTTP. Content addressing makes the
// protocol trivial and idempotent — an entry is immutable once written,
// concurrent PUTs of the same key carry identical bytes, and GET/PUT
// order never changes a result, only how much work was saved.

// Conventional mount points for the two namespaces a coordinator
// serves: content-addressed simulation results, and warm-start blobs
// (calibrations + checkpoints). RemoteURL resolves a user-supplied base
// URL against them.
const (
	RemoteResultsPath = "/api/v1/cache/results"
	RemoteWarmPath    = "/api/v1/cache/warm"
)

// RemoteURL resolves base against the conventional mount path for a
// namespace: a bare http://host:port gets path appended, while a base
// that already carries an explicit path (a non-standard mount) is used
// verbatim.
func RemoteURL(base, path string) string {
	u, err := url.Parse(base)
	if err != nil || u.Path == "" || u.Path == "/" {
		return strings.TrimSuffix(base, "/") + path
	}
	return strings.TrimSuffix(base, "/")
}

// HTTPBackend reaches a Backend served by Store.Handler on another
// process. Loads degrade to misses on any transport error (the cache
// accelerates, never fails a run); Stores return errors so a computed
// result is never silently dropped.
type HTTPBackend struct {
	base   string
	client *http.Client

	errs atomic.Uint64
}

// NewHTTP opens the backend at base (e.g. the result of
// RemoteURL("http://coord:8080", RemoteResultsPath)). client may be nil
// for a default with sane timeouts.
func NewHTTP(base string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPBackend{base: strings.TrimSuffix(base, "/"), client: client}
}

func (b *HTTPBackend) url(key string) string { return b.base + "/" + key }

func (b *HTTPBackend) Load(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	resp, err := b.client.Get(b.url(key))
	if err != nil {
		b.errs.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusNotFound {
			b.errs.Add(1)
		}
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil || int64(len(data)) > maxEntryBytes {
		b.errs.Add(1)
		return nil, false
	}
	return data, true
}

func (b *HTTPBackend) Store(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("runcache: invalid key %q", key)
	}
	req, err := http.NewRequest(http.MethodPut, b.url(key), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		b.errs.Add(1)
		return fmt.Errorf("runcache: storing %s to %s: %w", key[:8], b.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		b.errs.Add(1)
		return fmt.Errorf("runcache: storing %s to %s: HTTP %d", key[:8], b.base, resp.StatusCode)
	}
	return nil
}

func (b *HTTPBackend) Delete(key string) {
	if !validKey(key) {
		return
	}
	req, err := http.NewRequest(http.MethodDelete, b.url(key), nil)
	if err != nil {
		return
	}
	if resp, err := b.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// Touch is a no-op: the serving side bumps recency on every GET it
// answers, which is exactly the access order its pruner should honor.
func (b *HTTPBackend) Touch(string) {}

func (b *HTTPBackend) Name() string { return b.base }

// Errors returns how many transport-level failures were absorbed
// (loads degraded to misses, failed stores/deletes).
func (b *HTTPBackend) Errors() uint64 { return b.errs.Load() }

// maxEntryBytes bounds one entry payload on the wire. Entries are a
// JSON envelope around host.Results or a warm blob; the largest real
// payloads (full testbed checkpoints) are tens of KB, so 16 MB is a
// generous ceiling that still stops an errant client or server from
// streaming unbounded data.
const maxEntryBytes int64 = 16 << 20

// validKey admits exactly the hex sha256 strings Key produces — on the
// server side this is also the path-traversal guard.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Handler serves the store's backend over HTTP: GET /{key} returns
// the raw payload (and bumps recency), PUT /{key} stores it, DELETE
// /{key} removes it. Mount one per namespace (results, warm) — the
// client Store already embeds version salts in keys and payloads, so
// the wire layer needs no further validation beyond key syntax. Served
// lookups and writes count on this store (Stats, MetricsInto) exactly
// like its own, so a coordinator's hic_runcache_* series show what its
// clients fetched and wrote.
func (s *Store) Handler() http.Handler {
	be := s.be
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/")
		if !validKey(key) {
			http.Error(w, "runcache: key must be 64 lowercase hex chars", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			data, ok := be.Load(key)
			if !ok {
				s.misses.Add(1)
				http.NotFound(w, r)
				return
			}
			be.Touch(key)
			s.hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", fmt.Sprint(len(data)))
			if r.Method == http.MethodGet {
				w.Write(data)
			}
		case http.MethodPut:
			data, err := io.ReadAll(io.LimitReader(r.Body, maxEntryBytes+1))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if int64(len(data)) > maxEntryBytes {
				http.Error(w, "runcache: entry too large", http.StatusRequestEntityTooLarge)
				return
			}
			if err := be.Store(key, data); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			s.puts.Add(1)
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			be.Delete(key)
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}
