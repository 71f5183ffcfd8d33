package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"iscope/internal/checkpoint"
	"iscope/internal/pool"
	"iscope/internal/units"
	"iscope/internal/wal"
)

// Server multiplexes tenants behind the HTTP API. The tenant map is
// guarded by its own lock; each tenant serializes its simulation
// under its own mutex, so independent tenants advance concurrently
// while a single tenant's stream stays totally ordered.
//
// A server built with a non-empty Options.StateDir is crash-durable:
// tenant creation writes an initial checkpoint before the tenant is
// visible, every accepted mutation is journaled before its response,
// and LoadAll replays the journal suffix on top of the newest
// checkpoint after a crash.
type Server struct {
	mu      sync.RWMutex
	tenants map[string]*tenant
	opts    Options

	// fleets shares one fleet among the tenants with the same
	// (FleetSeed, Procs). It has its own locks: a fleet build never
	// holds mu, which every request takes to look up its tenant.
	fleets fleetCache

	// inflight bounds concurrently served requests when
	// Options.MaxInflight > 0; nil means unbounded.
	inflight chan struct{}

	// writeFile is the atomic byte-writer for checkpoints and
	// metadata. Tests swap it to inject disk-full failures; everything
	// else gets checkpoint.WriteBytes.
	writeFile func(path string, data []byte) error
}

// New builds an empty, in-memory server (no journal, no shedding).
func New() *Server { return NewWithOptions(Options{}) }

// NewWithOptions builds a server with the given durability and
// overload configuration.
func NewWithOptions(opts Options) *Server {
	s := &Server{
		tenants:   make(map[string]*tenant),
		opts:      opts.withDefaults(),
		writeFile: checkpoint.WriteBytes,
	}
	if s.opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, s.opts.MaxInflight)
	}
	return s
}

func (s *Server) durable() bool { return s.opts.StateDir != "" }

// walDir is where a durable tenant's journal segments live.
func (s *Server) walDir(name string) string {
	return filepath.Join(s.opts.StateDir, "wal", name)
}

// Handler builds the route table. Control plane: tenant CRUD, seal,
// snapshot, result, checkpoint. Data plane: job submission and clock
// advancement, per tenant or in bulk. The whole API sits behind the
// in-flight limiter; the health probes do not, so an overloaded
// daemon still answers its orchestrator.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", s.handleCreate)
	mux.HandleFunc("GET /v1/tenants", s.handleList)
	mux.HandleFunc("GET /v1/tenants/{name}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/tenants/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/tenants/{name}/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/tenants/{name}/advance", s.handleAdvance)
	mux.HandleFunc("POST /v1/tenants/{name}/seal", s.handleSeal)
	mux.HandleFunc("GET /v1/tenants/{name}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/tenants/{name}/result", s.handleResult)
	mux.HandleFunc("POST /v1/advance", s.handleAdvanceAll)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s.shed(mux)
}

// shed is the overload gate: when MaxInflight requests are already in
// flight, excess requests are rejected immediately with 503 and a
// Retry-After hint instead of queueing without bound. Health probes
// bypass the gate.
func (s *Server) shed(next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			writeErr(w, errOverloaded())
		}
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz reports whether the daemon can take another request
// right now: 503 when the in-flight limiter is saturated, 200
// otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.inflight != nil && len(s.inflight) >= cap(s.inflight) {
		w.Header().Set("Retry-After", "1")
		writeErr(w, errOverloaded())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ready\n"))
}

// Close releases every tenant's resources.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		t.close()
	}
	s.tenants = make(map[string]*tenant)
}

// openTenant builds a tenant on the server's shared fleet for its
// spec. The spec is validated before any fleet is built; the tenant
// holds a fleet reference until it is closed.
func (s *Server) openTenant(spec TenantSpec, resume []byte) (*tenant, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key := specFleetKey(&spec)
	fleet, err := s.fleets.acquire(key)
	if err != nil {
		return nil, err
	}
	t, err := newTenant(spec, fleet, resume)
	if err != nil {
		s.fleets.release(key)
		return nil, err
	}
	t.fleets = &s.fleets
	return t, nil
}

func (s *Server) lookup(name string) (*tenant, *APIError) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	if !ok {
		return nil, errNotFound("no tenant %q", name)
	}
	return t, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, aerr *APIError) {
	// Every 503 carries a Retry-After hint: the condition is transient
	// by definition (shed or journal stall), and the client's retry
	// loop prefers the server's figure over its own backoff schedule.
	if aerr.Status == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, aerr.Status, struct {
		Error *APIError `json:"error"`
	}{aerr})
}

// handleCreate builds the tenant, and on a durable server commits it
// to disk — journal opened, initial checkpoint written — before it
// becomes visible. The disk work happens under the server lock:
// creates are rare control-plane operations, and holding the lock
// means a concurrent create of the same name can never interleave
// with the wipe-then-open of its journal directory.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	if aerr := decodeJSON(r, &spec); aerr != nil {
		writeErr(w, aerr)
		return
	}
	if err := validTenantName(spec.Name); err != nil {
		writeErr(w, &APIError{Status: http.StatusUnprocessableEntity, Code: "invalid_spec", Message: err.Error()})
		return
	}
	t, err := s.openTenant(spec, nil)
	if err != nil {
		writeErr(w, &APIError{Status: http.StatusUnprocessableEntity, Code: "invalid_spec", Message: err.Error()})
		return
	}
	t.dedup = newDedupWindow(s.opts.DedupWindow)
	s.mu.Lock()
	if _, exists := s.tenants[spec.Name]; exists {
		s.mu.Unlock()
		t.close()
		writeErr(w, errConflict("tenant %q already exists", spec.Name))
		return
	}
	if s.durable() {
		if aerr := s.attachDurability(t); aerr != nil {
			s.mu.Unlock()
			t.close()
			writeErr(w, aerr)
			return
		}
	}
	s.tenants[spec.Name] = t
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, t.status())
}

// attachDurability opens a fresh journal for a new tenant and writes
// its era-0 checkpoint. Any leftover journal directory from a crashed
// create or delete of the same name is wiped first — its records
// belong to a tenant that never committed (no metadata on disk), so
// replaying them into this one would corrupt it.
func (s *Server) attachDurability(t *tenant) *APIError {
	name := t.spec.Name
	if err := wal.Remove(s.walDir(name)); err != nil {
		return &APIError{Status: http.StatusInternalServerError, Code: "journal_failed",
			Message: fmt.Sprintf("tenant %q: clear stale journal: %v", name, err)}
	}
	jr, err := wal.Open(s.walDir(name), s.opts.walOptions())
	if err != nil {
		return &APIError{Status: http.StatusInternalServerError, Code: "journal_failed",
			Message: fmt.Sprintf("tenant %q: open journal: %v", name, err)}
	}
	t.jr = jr
	if err := s.saveTenant(s.opts.StateDir, t); err != nil {
		return &APIError{Status: http.StatusInternalServerError, Code: "checkpoint_failed",
			Message: fmt.Sprintf("tenant %q: initial checkpoint: %v", name, err)}
	}
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	out := make([]StatusResponse, len(list))
	for i, t := range list {
		out[i] = t.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	t, aerr := s.lookup(r.PathValue("name"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

// handleDelete removes the tenant and, on a durable server, its
// on-disk state. The metadata file goes first: once it is gone a
// crash mid-delete leaves only orphans (checkpoints LoadAll never
// globs, a journal directory the next create wipes), never a
// restorable half-deleted tenant.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
	}
	s.mu.Unlock()
	if !ok {
		writeErr(w, errNotFound("no tenant %q", name))
		return
	}
	t.close()
	if s.durable() {
		dir := s.opts.StateDir
		_ = os.Remove(filepath.Join(dir, name+metaSuffix))
		if snaps, err := filepath.Glob(filepath.Join(dir, name+".*"+snapSuffix)); err == nil {
			for _, p := range snaps {
				_ = os.Remove(p)
			}
		}
		_ = wal.Remove(s.walDir(name))
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSubmit applies one batch through the tenant's dedup window
// and journal. The optional Idempotency-Key header makes retries
// safe: a key seen before returns the stored outcome byte-for-byte
// instead of re-applying the batch.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t, aerr := s.lookup(r.PathValue("name"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if len(key) > 128 {
		writeErr(w, errBadRequest("Idempotency-Key exceeds 128 bytes"))
		return
	}
	var req SubmitRequest
	if aerr := decodeJSON(r, &req); aerr != nil {
		writeErr(w, aerr)
		return
	}
	if len(req.Jobs) == 0 {
		writeErr(w, errBadRequest("empty job batch"))
		return
	}
	status, body := t.submitBatch(key, req.Jobs)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	t, aerr := s.lookup(r.PathValue("name"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	var req AdvanceRequest
	if aerr := decodeJSON(r, &req); aerr != nil {
		writeErr(w, aerr)
		return
	}
	if !isFinite(req.To) || req.To < 0 {
		writeErr(w, errBadRequest("advance target %v is not a non-negative finite time", req.To))
		return
	}
	fired, aerr := t.advance(units.Seconds(req.To))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, AdvanceResponse{Fired: fired, Now: float64(t.status().Now)})
}

func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	t, aerr := s.lookup(r.PathValue("name"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	if aerr := t.seal(); aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, aerr := s.lookup(r.PathValue("name"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	data, aerr := t.snapshot()
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	t, aerr := s.lookup(r.PathValue("name"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	res, aerr := t.result()
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleAdvanceAll advances every tenant to the same virtual time,
// fanning the independent tenants over the coarse worker pool.
func (s *Server) handleAdvanceAll(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if aerr := decodeJSON(r, &req); aerr != nil {
		writeErr(w, aerr)
		return
	}
	if !isFinite(req.To) || req.To < 0 {
		writeErr(w, errBadRequest("advance target %v is not a non-negative finite time", req.To))
		return
	}
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()

	type cell struct {
		Name  string  `json:"name"`
		Fired int     `json:"fired"`
		Now   float64 `json:"now"`
		Error string  `json:"error,omitempty"`
	}
	out := make([]cell, len(list))
	pool.Feed(r.Context(), pool.Workers(0, len(list)), len(list), func(i int) {
		t := list[i]
		fired, aerr := t.advance(units.Seconds(req.To))
		out[i] = cell{Name: t.spec.Name, Fired: fired, Now: t.status().Now}
		if aerr != nil {
			out[i].Error = aerr.Message
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// handleCheckpoint forces a full checkpoint of every tenant (and the
// journal compaction that follows). 404 on a non-durable server.
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if !s.durable() {
		writeErr(w, errNotFound("server has no state directory"))
		return
	}
	n, err := s.Checkpoint()
	if err != nil {
		writeErr(w, &APIError{Status: http.StatusInternalServerError, Code: "checkpoint_failed", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Checkpointed int `json:"checkpointed"`
	}{n})
}

// --- persistence ----------------------------------------------------

// tenantMeta is the restart metadata saved next to each tenant's
// snapshot: the spec to rebuild the fleet and config from, the bits
// of daemon state that live outside the simulation snapshot, and the
// checkpoint era — the journal sequence the snapshot covers plus the
// checksum of its bytes. Metadata and snapshot form one era; a pair
// that disagrees (crash between renames, manual tampering) is
// rejected with ErrEraMismatch instead of silently resuming from the
// wrong state.
type tenantMeta struct {
	Spec      TenantSpec     `json:"spec"`
	Sealed    bool           `json:"sealed"`
	Admission admissionState `json:"admission"`
	// JournalSeq is the last journal sequence folded into the
	// snapshot; replay starts after it.
	JournalSeq uint64 `json:"journal_seq"`
	// SnapCRC is the CRC-32C of the snapshot file this metadata
	// belongs to.
	SnapCRC uint32 `json:"snap_crc"`
	// Dedup is the idempotency window at checkpoint time.
	Dedup []dedupEntry `json:"dedup,omitempty"`
}

const (
	metaSuffix = ".tenant.json"
	snapSuffix = ".ckpt"
)

// snapName is the era-stamped snapshot filename. Tenant names cannot
// contain '.', so the era always splits back out unambiguously.
func snapName(name string, seq uint64) string {
	return fmt.Sprintf("%s.%020d%s", name, seq, snapSuffix)
}

// saveTenant writes one crash-consistent checkpoint era for t into
// dir. Write order is the crash-safety argument:
//
//  1. the era-stamped snapshot lands first (atomic rename) — a crash
//     here leaves an orphan file the old metadata never references;
//  2. the metadata commits the era (atomic rename) — before it, a
//     restart uses the old era; after it, the new one; never a mix,
//     because the snapshot filename embeds the era and the metadata
//     carries its checksum;
//  3. only then is the journal compacted and stale-era snapshots
//     removed — both pure garbage collection by this point.
func (s *Server) saveTenant(dir string, t *tenant) error {
	name := t.spec.Name
	snap, meta, err := t.persist()
	if err != nil {
		return err
	}
	metaJSON, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := s.writeFile(filepath.Join(dir, snapName(name, meta.JournalSeq)), snap); err != nil {
		return err
	}
	if err := s.writeFile(filepath.Join(dir, name+metaSuffix), metaJSON); err != nil {
		return err
	}
	if err := t.compactJournal(meta.JournalSeq); err != nil {
		return err
	}
	if snaps, err := filepath.Glob(filepath.Join(dir, name+".*"+snapSuffix)); err == nil {
		current := snapName(name, meta.JournalSeq)
		for _, p := range snaps {
			if filepath.Base(p) != current {
				_ = os.Remove(p)
			}
		}
	}
	return nil
}

// SaveAll checkpoints every tenant into dir: <name>.<era>.ckpt holds
// the simulation snapshot (the standard checkpoint envelope) and
// <name>.tenant.json the restart metadata committing that era. On a
// durable server each tenant's journal is compacted afterwards. Used
// by the daemon's shutdown and periodic-checkpoint paths; a failure
// is a *SaveError naming the tenant, and the previous era stays
// intact on disk.
func (s *Server) SaveAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].spec.Name < list[j].spec.Name })
	for _, t := range list {
		if err := s.saveTenant(dir, t); err != nil {
			return &SaveError{Tenant: t.spec.Name, Err: err}
		}
	}
	return nil
}

// Checkpoint persists every tenant into the configured state
// directory and reports how many were saved.
func (s *Server) Checkpoint() (int, error) {
	if !s.durable() {
		return 0, fmt.Errorf("service: checkpoint requires a state directory")
	}
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	if err := s.SaveAll(s.opts.StateDir); err != nil {
		return 0, err
	}
	return n, nil
}

// LoadAll restores every tenant saved in dir: newest checkpoint era,
// then — on a durable server — the journal suffix replayed through
// the same request-handling code that produced it, rebuilding the
// exact pre-crash state. Any failure is a *LoadError and leaves the
// server empty: every tenant restored so far is closed, because a
// partial fleet that silently dropped a tenant is worse than a clean
// refusal to start.
func (s *Server) LoadAll(dir string) (int, error) {
	metas, err := filepath.Glob(filepath.Join(dir, "*"+metaSuffix))
	if err != nil {
		return 0, &LoadError{Tenant: dir, Err: err}
	}
	sort.Strings(metas)
	fail := func(name string, err error) (int, error) {
		s.Close()
		return 0, &LoadError{Tenant: name, Err: err}
	}
	for _, path := range metas {
		name := strings.TrimSuffix(filepath.Base(path), metaSuffix)
		t, err := s.loadTenant(dir, name, path)
		if err != nil {
			return fail(name, err)
		}
		s.mu.Lock()
		if _, exists := s.tenants[name]; exists {
			s.mu.Unlock()
			t.close()
			return fail(name, fmt.Errorf("tenant already exists"))
		}
		s.tenants[name] = t
		s.mu.Unlock()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tenants), nil
}

// loadTenant restores one tenant: verify the checkpoint era, rebuild
// the simulation from the snapshot, reapply sealed/admission/dedup
// state, then replay the journal records after the checkpoint. The
// journal is attached only after replay, so the replayed mutations
// cannot journal themselves.
func (s *Server) loadTenant(dir, name, metaPath string) (*tenant, error) {
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		return nil, err
	}
	var meta tenantMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("decode metadata: %w", err)
	}
	if meta.Spec.Name != name {
		return nil, fmt.Errorf("metadata names tenant %q", meta.Spec.Name)
	}
	snap, err := checkpoint.ReadBytes(filepath.Join(dir, snapName(name, meta.JournalSeq)))
	if err != nil {
		if os.IsNotExist(err) || strings.Contains(err.Error(), "no such file") {
			return nil, fmt.Errorf("%w: metadata era %d has no snapshot: %v", ErrEraMismatch, meta.JournalSeq, err)
		}
		return nil, err
	}
	if got := crcBytes(snap); got != meta.SnapCRC {
		return nil, fmt.Errorf("%w: snapshot CRC %08x, metadata records %08x", ErrEraMismatch, got, meta.SnapCRC)
	}
	t, err := s.openTenant(meta.Spec, snap)
	if err != nil {
		return nil, err
	}
	t.dedup = newDedupWindow(s.opts.DedupWindow)
	t.dedup.restore(meta.Dedup)
	t.adm.restore(meta.Admission)
	if meta.Sealed {
		t.seal()
	}
	if !s.durable() {
		return t, nil
	}
	jr, err := wal.Open(s.walDir(name), s.opts.walOptions())
	if err != nil {
		t.close()
		return nil, fmt.Errorf("open journal: %w", err)
	}
	if err := jr.Replay(meta.JournalSeq, func(_ uint64, payload []byte) error {
		return t.applyRecord(payload)
	}); err != nil {
		jr.Close()
		t.close()
		return nil, fmt.Errorf("replay journal: %w", err)
	}
	t.jr = jr
	return t, nil
}

// validTenantName restricts names to a filesystem- and URL-safe
// alphabet (they become path segments and snapshot file names; '.'
// stays reserved as the era separator).
func validTenantName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("tenant name must be 1-64 characters, got %d", len(name))
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("tenant name %q: only [A-Za-z0-9_-] allowed", name)
		}
	}
	return nil
}
