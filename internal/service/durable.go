package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"iscope/internal/wal"
)

// Options configures a durable server. The zero value (and New())
// yields the in-memory server the tests use: no journal, no request
// shedding, durability only through explicit SaveAll/LoadAll.
type Options struct {
	// StateDir enables crash durability: every accepted mutation is
	// journaled under StateDir/wal/<tenant>/ before the response, and
	// LoadAll(StateDir) replays the journal suffix on top of the last
	// checkpoint. Empty disables journaling.
	StateDir string
	// Sync is the journal fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval bounds the fsync gap under wal.SyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// MaxInflight bounds concurrently served API requests; excess
	// requests are shed with 503 + Retry-After. 0 means unbounded.
	MaxInflight int
}

// walOptions derives the per-tenant journal configuration; segments
// rotate at the journal's own default size.
func (o Options) walOptions() wal.Options {
	return wal.Options{Policy: o.Sync, Interval: o.SyncInterval}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcBytes(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ErrEraMismatch marks a .ckpt / .tenant.json pair that do not come
// from the same checkpoint: the metadata names a snapshot whose bytes
// are missing or fail the recorded checksum.
var ErrEraMismatch = errors.New("service: snapshot and metadata are from different checkpoint eras")

// SaveError is the typed failure of SaveAll/Checkpoint, naming the
// tenant whose persistence failed. Snapshot writes are atomic
// renames, so a failed save leaves the previous checkpoint era
// intact on disk.
type SaveError struct {
	Tenant string
	Err    error
}

func (e *SaveError) Error() string { return fmt.Sprintf("service: save %q: %v", e.Tenant, e.Err) }
func (e *SaveError) Unwrap() error { return e.Err }

// LoadError is the typed failure of LoadAll, naming the tenant (or
// file) that could not be restored. LoadAll never leaves partial
// tenants behind: on any error every tenant restored so far is
// closed and the server comes back empty.
type LoadError struct {
	Tenant string
	Err    error
}

func (e *LoadError) Error() string { return fmt.Sprintf("service: load %q: %v", e.Tenant, e.Err) }
func (e *LoadError) Unwrap() error { return e.Err }

// journalRecord is the WAL payload for one accepted mutation. Replay
// feeds records back through the exact request-handling code, so any
// outcome — full admit, partial batch, rejection ladder — reproduces
// deterministically, rebuilding the simulation, admission, and dedup
// state the crash destroyed.
type journalRecord struct {
	// Kind is "submit", "advance", or "seal".
	Kind string `json:"kind"`
	// Key is the submission's idempotency key ("" when the client
	// sent none).
	Key string `json:"key,omitempty"`
	// Jobs is the submit batch, exactly as it arrived on the wire.
	Jobs []JobSubmission `json:"jobs,omitempty"`
	// To is the advance target in virtual seconds.
	To float64 `json:"to,omitempty"`
}

const (
	recSubmit  = "submit"
	recAdvance = "advance"
	recSeal    = "seal"
)

// dedupEntry is one remembered submission outcome: the HTTP status
// and the exact response body the original request was answered
// with. Persisted in the tenant metadata at each checkpoint and
// rebuilt from the journal between checkpoints.
type dedupEntry struct {
	Key    string          `json:"key"`
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// dedupWindow is a FIFO window of recent idempotency keys. A retry
// whose key is still inside the window returns the stored outcome
// without touching the simulation; beyond the window a retry would
// re-apply, so the window must comfortably exceed a client's retry
// horizon: it remembers dedupWindowSize batches.
type dedupWindow struct {
	keys []string
	m    map[string]dedupEntry
}

const dedupWindowSize = 512

func newDedupWindow() *dedupWindow {
	return &dedupWindow{m: make(map[string]dedupEntry)}
}

func (w *dedupWindow) get(key string) (dedupEntry, bool) {
	e, ok := w.m[key]
	return e, ok
}

func (w *dedupWindow) add(e dedupEntry) {
	if e.Key == "" {
		return
	}
	if _, exists := w.m[e.Key]; exists {
		w.m[e.Key] = e
		return
	}
	w.keys = append(w.keys, e.Key)
	w.m[e.Key] = e
	for len(w.keys) > dedupWindowSize {
		delete(w.m, w.keys[0])
		w.keys = w.keys[1:]
	}
}

// export lists the window oldest-first for the checkpoint metadata.
func (w *dedupWindow) export() []dedupEntry {
	out := make([]dedupEntry, len(w.keys))
	for i, k := range w.keys {
		out[i] = w.m[k]
	}
	return out
}

func (w *dedupWindow) restore(entries []dedupEntry) {
	w.keys = w.keys[:0]
	w.m = make(map[string]dedupEntry, len(entries))
	for _, e := range entries {
		w.add(e)
	}
}
