package runcache

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Backend is the raw byte store a Store sits on top of: a flat
// content-addressed namespace of opaque entry payloads. The Store owns
// everything semantic — the entry/blob JSON envelopes, version and
// canonical verification, the write-through memory layer, in-flight collapse,
// and hit/miss accounting — while the backend only moves bytes, so one
// Store implementation serves both a local directory (diskBackend) and
// a coordinator's cache API on another machine (HTTPBackend).
//
// Load treats every failure as absence: the cache is an accelerator and
// never an error source, so an unreachable backend degrades to a 0% hit
// rate, not a failed run. Store is the one fallible operation — losing
// a computed result silently would recompute it forever.
type Backend interface {
	// Load returns the raw entry payload for key, or false when the
	// backend has no (readable) entry.
	Load(key string) ([]byte, bool)
	// Store durably writes the payload for key. Writes must be atomic:
	// a concurrent Load observes either the old payload or the new one,
	// never a torn prefix.
	Store(key string, data []byte) error
	// Delete removes the entry, if present (corrupt-entry cleanup).
	Delete(key string)
	// Touch marks the entry recently used, best effort. Disk backends
	// bump the file mtime so size-budget pruning (Prune) evicts in
	// least-recently-*used* order rather than write order; backends with
	// no local eviction (HTTP — the coordinator prunes its own disk)
	// no-op.
	Touch(key string)
	// Name identifies the backend for logs and prune messages: the
	// directory path for disk, the base URL for HTTP.
	Name() string
}

// entryInfo describes one stored entry for pruning and enumeration.
type entryInfo struct {
	key   string
	size  int64
	mtime int64 // UnixNano
}

// lister is the optional enumeration side of a Backend. Disk implements
// it; remote backends do not (the machine that owns the bytes owns the
// eviction policy too), which makes Store.Prune and Store.Len no-ops
// there.
type lister interface {
	entries() ([]entryInfo, error)
}

// diskBackend stores each entry as <key>.json under one directory —
// the layout every release so far has used, so existing cache
// directories keep working unchanged.
type diskBackend struct {
	dir string
}

// NewDisk creates (if needed) and opens a directory-backed Backend.
func NewDisk(dir string) (Backend, error) {
	if dir == "" {
		dir = DefaultDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: creating %s: %w", dir, err)
	}
	return &diskBackend{dir: dir}, nil
}

func (d *diskBackend) path(key string) string { return filepath.Join(d.dir, key+".json") }

func (d *diskBackend) Load(key string) ([]byte, bool) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Store writes via temp file + rename so concurrent sweep goroutines
// and interrupted runs never leave a torn entry behind.
func (d *diskBackend) Store(key string, data []byte) error {
	tmp, err := os.CreateTemp(d.dir, "put-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

func (d *diskBackend) Delete(key string) { os.Remove(d.path(key)) }

func (d *diskBackend) Touch(key string) {
	now := time.Now()
	os.Chtimes(d.path(key), now, now)
}

func (d *diskBackend) Name() string { return d.dir }

func (d *diskBackend) entries() ([]entryInfo, error) {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var out []entryInfo
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent delete
		}
		out = append(out, entryInfo{
			key:   de.Name()[:len(de.Name())-len(".json")],
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
	}
	return out, nil
}
