package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"iscope/internal/brownout"
	"iscope/internal/invariants"
	"iscope/internal/scheduler"
	"iscope/internal/units"
	"iscope/internal/wal"
	"iscope/internal/wind"
)

// tenant is one live simulation: a stepper, its admission policy, and
// one mutex serializing every touch. The HTTP layer never reaches the
// stepper except through these methods, so the Stepper's
// single-threaded contract holds no matter how many requests race.
//
// On a durable server the tenant also owns a write-ahead journal:
// every accepted mutation is appended (and fsynced, per policy)
// before the response leaves, so the mutation order the journal
// records is exactly the virtual-time order the stepper saw — replay
// after a crash reconstructs bit-identical state. jr is nil while a
// restored tenant replays its own journal, which is what keeps
// replay from journaling itself.
type tenant struct {
	mu    sync.Mutex
	spec  TenantSpec
	fleet *scheduler.Fleet
	st    *scheduler.Stepper
	adm   admitter
	jr    *wal.Journal
	dedup *dedupWindow
	// fleets holds the tenant's reference to its shared fleet, dropped
	// on close; nil for a tenant built on a fleet of its own.
	fleets *fleetCache
}

// buildConfig derives the deterministic run configuration a spec
// describes. Everything is regenerated from seeds, which is what lets
// a daemon restart rebuild a tenant whose snapshot still hashes to the
// same configuration.
func buildConfig(spec *TenantSpec, fleet *scheduler.Fleet) (scheduler.RunConfig, error) {
	cfg := scheduler.RunConfig{Seed: spec.Seed}
	if spec.Wind != nil {
		w := spec.Wind
		tr, err := wind.Generate(wind.DefaultConfig(w.Seed, units.Days(w.Days)))
		if err != nil {
			return cfg, fmt.Errorf("service: generate wind: %w", err)
		}
		cfg.Wind = tr.Scale(w.MeanFrac * float64(fleet.PeakDemand()) / float64(tr.Mean()))
	}
	if spec.Brownout {
		bc := brownout.DefaultConfig()
		cfg.Brownout = &bc
	}
	if spec.Invariants {
		cfg.Invariants = &invariants.Config{}
	}
	return cfg, nil
}

// newTenant builds a tenant from a valid spec on fleet, optionally
// resuming from a snapshot (the daemon restart path). The job stream
// starts open; a saved Sealed flag is reapplied by the caller.
func newTenant(spec TenantSpec, fleet *scheduler.Fleet, resume []byte) (*tenant, error) {
	sch, ok := scheduler.SchemeByName(spec.Scheme)
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q", spec.Scheme)
	}
	cfg, err := buildConfig(&spec, fleet)
	if err != nil {
		return nil, err
	}
	cfg.Resume = resume
	adm, err := newAdmitter(spec.Admission)
	if err != nil {
		return nil, err
	}
	st, err := scheduler.NewStepper(fleet, sch, cfg)
	if err != nil {
		return nil, err
	}
	return &tenant{spec: spec, fleet: fleet, st: st, adm: adm, dedup: newDedupWindow(0)}, nil
}

// journalAppend records one accepted mutation before its response is
// written. Non-durable tenants (and tenants mid-replay, whose jr is
// still nil) skip it. A failed append is a 503: the mutation may or
// may not have reached disk, so the client must retry — which the
// idempotency window makes safe.
func (t *tenant) journalAppend(rec journalRecord) *APIError {
	if t.jr == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return &APIError{Status: http.StatusInternalServerError, Code: "journal_failed",
			Message: fmt.Sprintf("tenant %q: encode journal record: %v", t.spec.Name, err)}
	}
	if _, err := t.jr.Append(data); err != nil {
		return &APIError{Status: http.StatusServiceUnavailable, Code: "journal_failed",
			Message: fmt.Sprintf("tenant %q: journal append: %v", t.spec.Name, err)}
	}
	return nil
}

// submitBatch applies one submission batch under a single lock hold:
// dedup lookup, journal append, then the per-job rejection ladder.
// It returns the HTTP outcome (status plus the exact response body),
// which is also what the dedup window stores — a retried batch whose
// key is still in the window gets the original bytes back without
// touching the simulation.
//
// The journal record is written before the first job is applied.
// Replay re-runs this same method, so whatever the batch did —
// full admit, partial stop at a 422/429, nothing at all — happens
// identically after a crash; journaling the request rather than the
// outcome is safe because the outcome is a deterministic function of
// tenant state, which replay reconstructs in order.
func (t *tenant) submitBatch(key string, jobs []JobSubmission) (int, json.RawMessage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if key != "" {
		if e, ok := t.dedup.get(key); ok {
			return e.Status, e.Body
		}
	}
	if aerr := t.journalAppend(journalRecord{Kind: recSubmit, Key: key, Jobs: jobs}); aerr != nil {
		return aerr.Status, marshalErrEnvelope(aerr)
	}
	status, body := t.applySubmitLocked(jobs)
	t.dedup.add(dedupEntry{Key: key, Status: status, Body: body})
	return status, body
}

// applySubmitLocked runs the per-job ladder over the batch. Earlier
// jobs in the batch stay admitted when a later one fails; the error
// names the failing job so the client can resume after it.
func (t *tenant) applySubmitLocked(jobs []JobSubmission) (int, json.RawMessage) {
	resp := SubmitResponse{Indices: make([]int, 0, len(jobs))}
	for i := range jobs {
		idx, aerr := t.submitLocked(&jobs[i])
		if aerr != nil {
			return aerr.Status, marshalErrEnvelope(aerr)
		}
		resp.Indices = append(resp.Indices, idx)
		resp.Admitted++
	}
	body, err := json.Marshal(resp)
	if err != nil {
		aerr := &APIError{Status: http.StatusInternalServerError, Code: "encode_failed", Message: err.Error()}
		return aerr.Status, marshalErrEnvelope(aerr)
	}
	return http.StatusOK, body
}

// submit streams one job into the tenant (the in-process test path;
// the HTTP handler goes through submitBatch).
func (t *tenant) submit(js *JobSubmission) (int, *APIError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.submitLocked(js)
}

// submitLocked streams one job into the tenant. The rejection ladder
// is ordered so each failure class gets its own status: malformed
// fields are 422 before the admission policy ever sees the job (a
// garbage submission must not burn a token), admission rejections are
// 429, and a sealed stream is 409.
func (t *tenant) submitLocked(js *JobSubmission) (int, *APIError) {
	if t.st.Sealed() {
		return 0, errConflict("tenant %q: job stream is sealed", t.spec.Name)
	}
	if aerr := t.validateSubmission(js); aerr != nil {
		return 0, aerr
	}
	at := units.Seconds(js.At)
	if aerr := t.adm.admit(at); aerr != nil {
		return 0, aerr
	}
	idx, err := t.st.InjectJob(at, js.Job())
	if err != nil {
		return 0, errUnprocessable("tenant %q: %v", t.spec.Name, err)
	}
	return idx, nil
}

// validateSubmission rejects out-of-range and out-of-order
// submissions with a typed 422 before they can touch the simulation
// or the admission bucket. It mirrors the stepper's own validation;
// the stepper stays the authority, this is the wire's fail-fast copy.
func (t *tenant) validateSubmission(js *JobSubmission) *APIError {
	switch {
	case !isFinite(js.At) || !isFinite(js.Runtime) || !isFinite(js.Boundness) || !isFinite(js.Deadline):
		return errUnprocessable("job %d: non-finite fields", js.ID)
	case js.At < 0:
		return errUnprocessable("job %d: negative arrival time %v", js.ID, js.At)
	case js.Procs <= 0:
		return errUnprocessable("job %d: requests %d procs", js.ID, js.Procs)
	case js.Runtime <= 0:
		return errUnprocessable("job %d: runtime %v", js.ID, js.Runtime)
	case js.Boundness < 0 || js.Boundness > 1:
		return errUnprocessable("job %d: boundness %v outside [0,1]", js.ID, js.Boundness)
	case js.Deadline != 0 && js.Deadline < js.At+js.Runtime:
		return errUnprocessable("job %d: deadline %v before earliest completion", js.ID, js.Deadline)
	}
	if now := t.st.Now(); units.Seconds(js.At) < now {
		return errUnprocessable("job %d: arrival t=%v is out of order (clock is at %v)", js.ID, js.At, now)
	}
	return nil
}

// advance fires every event at or before to. An advance that cannot
// fire anything (clock already past to, heap empty, or run finished)
// is a no-op and skips the journal — polling clients must not bloat
// it — which is safe because replay would reproduce the same no-op.
func (t *tenant) advance(to units.Seconds) (int, *APIError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if at, ok := t.st.PeekNextEventTime(); t.st.Finished() || !ok || at > to {
		return 0, nil
	}
	if aerr := t.journalAppend(journalRecord{Kind: recAdvance, To: float64(to)}); aerr != nil {
		return 0, aerr
	}
	fired, err := t.st.AdvanceTo(to)
	if err != nil {
		return fired, &APIError{Status: http.StatusInternalServerError, Code: "simulation_failed",
			Message: fmt.Sprintf("tenant %q: %v", t.spec.Name, err)}
	}
	return fired, nil
}

// seal closes the job stream (idempotent; only the first seal is
// journaled).
func (t *tenant) seal() *APIError {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.st.Sealed() {
		return nil
	}
	if aerr := t.journalAppend(journalRecord{Kind: recSeal}); aerr != nil {
		return aerr
	}
	t.st.Seal()
	return nil
}

// applyRecord replays one journal record during recovery. The tenant
// must not be serving yet and jr must still be nil (attached after
// replay), so the replayed mutations cannot re-journal themselves.
// Mutation errors are part of the historical outcome — the original
// request was answered with the same error — and are not replay
// failures; only an undecodable or unknown record aborts recovery.
func (t *tenant) applyRecord(payload []byte) error {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("decode journal record: %w", err)
	}
	switch rec.Kind {
	case recSubmit:
		t.submitBatch(rec.Key, rec.Jobs)
	case recAdvance:
		t.advance(units.Seconds(rec.To))
	case recSeal:
		t.seal()
	default:
		return fmt.Errorf("unknown journal record kind %q", rec.Kind)
	}
	return nil
}

// snapshot encodes the tenant's full simulation state.
func (t *tenant) snapshot() ([]byte, *APIError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := t.st.Snapshot()
	if err != nil {
		return nil, &APIError{Status: http.StatusInternalServerError, Code: "snapshot_failed",
			Message: fmt.Sprintf("tenant %q: %v", t.spec.Name, err)}
	}
	return data, nil
}

// result drains the sealed stream to completion and assembles the
// final measurements. Requesting a result on an open stream is a
// conflict — the caller must seal first.
func (t *tenant) result() (*scheduler.Result, *APIError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.st.Sealed() {
		return nil, errConflict("tenant %q: result requested on an open stream; seal it first", t.spec.Name)
	}
	for !t.st.Finished() {
		fired, err := t.st.ProcessNextEvent()
		if err != nil {
			return nil, &APIError{Status: http.StatusInternalServerError, Code: "simulation_failed",
				Message: fmt.Sprintf("tenant %q: %v", t.spec.Name, err)}
		}
		if !fired {
			break
		}
	}
	res, err := t.st.Result()
	if err != nil {
		return nil, &APIError{Status: http.StatusInternalServerError, Code: "simulation_failed",
			Message: fmt.Sprintf("tenant %q: %v", t.spec.Name, err)}
	}
	return res, nil
}

// status reports the live view.
func (t *tenant) status() StatusResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.st.Status()
	return StatusResponse{
		Name:          t.spec.Name,
		Scheme:        t.spec.Scheme,
		Now:           float64(s.Now),
		Jobs:          s.Jobs,
		JobsLeft:      s.JobsLeft,
		PendingEvents: s.PendingEvents,
		Sealed:        s.Sealed,
		Finished:      s.Finished,
		Violations:    s.Violations,
		UtilityEnergy: float64(s.UtilityEnergy),
		WindEnergy:    float64(s.WindEnergy),
		Wind:          float64(s.Wind),

		BrownoutStage:       s.BrownoutStage.String(),
		InvariantViolations: s.InvariantViolations,
	}
}

// persist captures one crash-consistent checkpoint era under a single
// lock hold: the snapshot bytes plus metadata that names them (the
// journal sequence the snapshot covers and the CRC of its bytes). The
// journal is synced first so JournalSeq never points past durable
// records; for non-durable tenants the sequence is 0.
func (t *tenant) persist() ([]byte, tenantMeta, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap, err := t.st.Snapshot()
	if err != nil {
		return nil, tenantMeta{}, fmt.Errorf("snapshot: %w", err)
	}
	meta := tenantMeta{
		Spec:      t.spec,
		Sealed:    t.st.Sealed(),
		Admission: t.adm.state(),
		SnapCRC:   crcBytes(snap),
		Dedup:     t.dedup.export(),
	}
	if t.jr != nil {
		if err := t.jr.Sync(); err != nil {
			return nil, tenantMeta{}, fmt.Errorf("sync journal: %w", err)
		}
		meta.JournalSeq = t.jr.LastSeq()
	}
	return snap, meta, nil
}

// compactJournal drops journal records a checkpoint has made
// redundant.
func (t *tenant) compactJournal(upTo uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jr == nil {
		return nil
	}
	return t.jr.Compact(upTo)
}

func (t *tenant) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jr != nil {
		t.jr.Close()
		t.jr = nil
	}
	if t.fleets != nil {
		t.fleets.release(specFleetKey(&t.spec))
		t.fleets = nil
	}
}
