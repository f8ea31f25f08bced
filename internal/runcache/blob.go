package runcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Blob namespace: a second content-addressed entry kind for warm state
// that is not a host.Results — persisted fidelity calibrations (anchors,
// noise tiers, gain/drop-offset corrections) and converged DES
// checkpoints. Blob entries share the store's backend and the Key
// scheme, but carry an arbitrary JSON payload and record their own
// version salt, so a blob can never satisfy a result lookup or vice
// versa: result lookups decode the `results` field, blob lookups the
// `blob` field, and the two kinds are salted with disjoint version
// strings (result salts start with core.SimVersion, blob salts with a
// "hic-calib-"/"hic-ckpt-" family prefix).
//
// Blobs have no in-memory write-through layer: callers (fidelity.Router)
// already keep their own per-signature in-memory state and touch the
// store once per signature per process.

// blobEntry is the stored format of the second namespace. Blob holds
// the payload: the value to encode on a write, and on a read a pointer
// the decoder fills in the same pass that parses the envelope.
type blobEntry struct {
	Version   string `json:"version"`
	Canonical string `json:"canonical"`
	Blob      any    `json:"blob"`
}

// GetBlob decodes the blob stored under key into out. Like Get, any
// missing, corrupt, or version/canonical-mismatched entry is a miss;
// corrupt entries are deleted and counted, and a hit bumps recency.
func (s *Store) GetBlob(key, version, canonical string, out any) bool {
	data, ok := s.LoadBlob(key)
	return ok && s.DecodeBlob(key, version, canonical, data, out)
}

// LoadBlob reads the entry under key undecoded (a missing one is a
// miss); DecodeBlob finishes the lookup whenever the payload is needed.
func (s *Store) LoadBlob(key string) ([]byte, bool) {
	data, ok := s.be.Load(key)
	if !ok {
		s.misses.Add(1)
	}
	return data, ok
}

// DecodeBlob is the second half of GetBlob: it decodes data, as
// LoadBlob returned it for key, into out, which must be a non-nil
// pointer. The envelope and the payload are decoded in one pass over
// data, and out is written only on a hit. An envelope that does not
// parse, or a payload that does not fit out, is dropped as corrupt; a
// version or canonical mismatch, or a missing or null blob, is a miss.
func (s *Store) DecodeBlob(key, version, canonical string, data []byte, out any) bool {
	// The decoder fills a fresh *T behind slot rather than out itself,
	// so a payload that is missing or null leaves slot nil and reads
	// as a miss instead of an untouched out reading as a hit.
	dst := reflect.ValueOf(out)
	slot := reflect.New(dst.Type())
	e := blobEntry{Blob: slot.Interface()}
	err := json.Unmarshal(data, &e)
	var typeErr *json.UnmarshalTypeError
	if err != nil && !(errors.As(err, &typeErr) && isPayloadField(typeErr.Field)) {
		s.dropCorrupt(key)
		return false
	}
	if e.Version != version || e.Canonical != canonical || slot.Elem().IsNil() {
		s.misses.Add(1)
		return false
	}
	if err != nil {
		s.dropCorrupt(key)
		return false
	}
	dst.Elem().Set(slot.Elem().Elem())
	s.be.Touch(key)
	s.hits.Add(1)
	return true
}

// isPayloadField reports whether a decode type error's field path lies
// inside the blob payload rather than in the envelope's own fields.
func isPayloadField(field string) bool {
	return field == "blob" || strings.HasPrefix(field, "blob.")
}

// PutBlob stores v (JSON-encoded) under key, atomically like Put.
func (s *Store) PutBlob(key, version, canonical string, v any) error {
	data, err := json.Marshal(blobEntry{Version: version, Canonical: canonical, Blob: v})
	if err != nil {
		return fmt.Errorf("runcache: encoding blob entry: %w", err)
	}
	s.puts.Add(1)
	return s.be.Store(key, data)
}

// Prune deletes the least-recently-used entries (by backend mtime — Get
// and GetBlob bump it on every backend hit) until the store's total
// entry size is at most maxBytes. It returns how many entries were
// removed and how many bytes were freed. A persistent cache,
// calibration, or checkpoint directory shared across many runs is
// bounded by calling Prune at process start (-cache-max-mb). Backends
// that don't enumerate entries (remote stores) prune nothing: the
// machine that owns the bytes — the coordinator — owns the eviction
// policy.
func (s *Store) Prune(maxBytes int64) (removed int, freed int64, err error) {
	l, ok := s.be.(lister)
	if !ok {
		return 0, 0, nil
	}
	files, err := l.entries()
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, f := range files {
		total += f.size
	}
	if total <= maxBytes {
		return 0, 0, nil
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].key < files[j].key
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		s.be.Delete(f.key)
		delete(s.mem, f.key)
		total -= f.size
		freed += f.size
		removed++
	}
	return removed, freed, nil
}
