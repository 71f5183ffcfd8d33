// Package service multiplexes live, steppable iScope simulations —
// tenants — behind an HTTP JSON API. The control plane creates,
// seals, snapshots and deletes tenants; the data plane streams job
// submissions into a tenant's open stream and advances its virtual
// clock. Each tenant wraps one scheduler.Stepper behind one mutex, so
// the determinism contract carries through: the same spec fed the
// same submissions in the same virtual order produces bit-identical
// results, snapshots included, no matter how the HTTP traffic was
// interleaved in wall-clock time.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"iscope/internal/units"
	"iscope/internal/workload"
)

// TenantSpec is the control-plane description of one simulation. It
// is deliberately self-contained and deterministic: everything a
// tenant needs (fleet, wind trace, scheme, knobs) is derived from the
// spec by construction, so a daemon restarted from a saved spec plus a
// snapshot rebuilds the identical run.
type TenantSpec struct {
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	// Seed seeds the run; FleetSeed seeds the hardware population.
	Seed      uint64 `json:"seed"`
	FleetSeed uint64 `json:"fleet_seed"`
	// Procs sizes the fleet. At most maxProcs.
	Procs int `json:"procs"`
	// Wind optionally powers the tenant with a synthetic wind farm;
	// nil simulates a utility-only datacenter.
	Wind *WindSpec `json:"wind,omitempty"`
	// Brownout enables the staged-degradation ladder with its default
	// thresholds (requires Wind).
	Brownout bool `json:"brownout,omitempty"`
	// Invariants enables the online runtime-verification monitor in
	// record mode; violations surface in the tenant status.
	Invariants bool `json:"invariants,omitempty"`
	// Workers is accepted and ignored: it once set a per-tenant worker
	// count, and specs and state dirs written then still carry it. It
	// must still lie in [0, maxWorkers], so every spec accepted or
	// refused before is accepted or refused now.
	Workers int `json:"workers,omitempty"`
	// Admission selects the job-admission policy; nil admits
	// everything.
	Admission *AdmissionSpec `json:"admission,omitempty"`
}

// maxWorkers caps the ignored TenantSpec.Workers at the bound it had
// when it was a worker count.
const maxWorkers = 64

// maxProcs caps TenantSpec.Procs. A tenant's fleet is built before the
// tenant exists, at about half a kilobyte per proc, so an unbounded
// count from the wire could exhaust the daemon's memory; 1<<20 is above
// the largest fleet the benchmarks build (1,000,000 procs).
const maxProcs = 1 << 20

// WindSpec derives a deterministic wind trace for a tenant: Days of
// synthetic weather from Seed, scaled so the mean covers MeanFrac of
// the fleet's peak demand.
type WindSpec struct {
	Seed     uint64  `json:"seed"`
	Days     float64 `json:"days"`
	MeanFrac float64 `json:"mean_frac"`
}

// AdmissionSpec selects and parameterizes the admission policy.
// Policy "always" admits every job; "token-bucket" admits at most
// Burst jobs instantaneously and refills at RatePerHour in *virtual*
// time — the policy is part of the simulation, so replaying the same
// submissions yields the same admits and rejects.
type AdmissionSpec struct {
	Policy      string  `json:"policy"`
	RatePerHour float64 `json:"rate_per_hour,omitempty"`
	Burst       int     `json:"burst,omitempty"`
}

// Validate rejects specs the daemon could not rebuild deterministically.
func (sp *TenantSpec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("tenant name is required")
	}
	if sp.Procs <= 0 || sp.Procs > maxProcs {
		return fmt.Errorf("procs must be in [1, %d], got %d", maxProcs, sp.Procs)
	}
	if sp.Workers < 0 || sp.Workers > maxWorkers {
		return fmt.Errorf("workers must be in [0, %d], got %d", maxWorkers, sp.Workers)
	}
	if sp.Wind != nil {
		w := sp.Wind
		if !isFinite(w.Days) || w.Days <= 0 || w.Days > 365 {
			return fmt.Errorf("wind.days must be in (0, 365], got %v", w.Days)
		}
		if !isFinite(w.MeanFrac) || w.MeanFrac <= 0 || w.MeanFrac > 10 {
			return fmt.Errorf("wind.mean_frac must be in (0, 10], got %v", w.MeanFrac)
		}
	}
	if sp.Brownout && sp.Wind == nil {
		return fmt.Errorf("brownout requires a wind spec")
	}
	if a := sp.Admission; a != nil {
		switch a.Policy {
		case "", "always":
		case "token-bucket":
			if !isFinite(a.RatePerHour) || a.RatePerHour <= 0 {
				return fmt.Errorf("token-bucket rate_per_hour must be positive, got %v", a.RatePerHour)
			}
			if a.Burst <= 0 {
				return fmt.Errorf("token-bucket burst must be positive, got %d", a.Burst)
			}
		default:
			return fmt.Errorf("unknown admission policy %q", a.Policy)
		}
	}
	return nil
}

// JobSubmission is the data-plane wire format for one streamed job.
// All times are virtual seconds. At is the arrival time — it must not
// precede the tenant's clock, and it becomes the job's submit time.
type JobSubmission struct {
	ID      int     `json:"id"`
	At      float64 `json:"at"`
	Runtime float64 `json:"runtime"`
	Procs   int     `json:"procs"`
	// Boundness is the job's memory-boundness in [0, 1].
	Boundness float64 `json:"boundness"`
	// Deadline is absolute virtual seconds; 0 means none.
	Deadline float64 `json:"deadline,omitempty"`
}

// Job converts the submission to the scheduler's job type. The
// scheduler re-validates (finiteness, ranges, deadline feasibility);
// this conversion only has to be shape-preserving.
func (js *JobSubmission) Job() workload.Job {
	return workload.Job{
		ID:        js.ID,
		Submit:    units.Seconds(js.At),
		Runtime:   units.Seconds(js.Runtime),
		Procs:     js.Procs,
		Boundness: js.Boundness,
		Deadline:  units.Seconds(js.Deadline),
	}
}

// SubmitRequest is the body of POST /v1/tenants/{name}/jobs: one or
// more submissions, applied in order, atomically rejected on the
// first failure (earlier jobs in the batch stay admitted — the stream
// has no transactions, matching the one-event-at-a-time contract).
type SubmitRequest struct {
	Jobs []JobSubmission `json:"jobs"`
}

type SubmitResponse struct {
	Admitted int   `json:"admitted"`
	Indices  []int `json:"indices"`
}

// AdvanceRequest is the body of the advance endpoints: fire every
// event at or before To (virtual seconds).
type AdvanceRequest struct {
	To float64 `json:"to"`
}

type AdvanceResponse struct {
	Fired int     `json:"fired"`
	Now   float64 `json:"now"`
}

// StatusResponse is the live view of one tenant (GET
// /v1/tenants/{name}).
type StatusResponse struct {
	Name          string  `json:"name"`
	Scheme        string  `json:"scheme"`
	Now           float64 `json:"now"`
	Jobs          int     `json:"jobs"`
	JobsLeft      int     `json:"jobs_left"`
	PendingEvents int     `json:"pending_events"`
	Sealed        bool    `json:"sealed"`
	Finished      bool    `json:"finished"`
	Violations    int     `json:"deadline_violations"`

	UtilityEnergy float64 `json:"utility_energy_j"`
	WindEnergy    float64 `json:"wind_energy_j"`
	Wind          float64 `json:"wind_w"`

	BrownoutStage       string `json:"brownout_stage"`
	InvariantViolations int    `json:"invariant_violations"`
}

// APIError is the typed error envelope every non-2xx response
// carries: {"error": {"code": "...", "message": "..."}}.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfter is the server's Retry-After hint, when the response
	// carried one (typically on 503). Transport metadata like Status:
	// filled by the client from the header, never serialized.
	RetryAfter time.Duration `json:"-"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func errBadRequest(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusNotFound, Code: "not_found", Message: fmt.Sprintf(format, args...)}
}

func errConflict(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusConflict, Code: "conflict", Message: fmt.Sprintf(format, args...)}
}

func errUnprocessable(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusUnprocessableEntity, Code: "invalid_job", Message: fmt.Sprintf(format, args...)}
}

func errThrottled(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusTooManyRequests, Code: "admission_rejected", Message: fmt.Sprintf(format, args...)}
}

func errOverloaded() *APIError {
	return &APIError{Status: http.StatusServiceUnavailable, Code: "overloaded",
		Message: "server is at its in-flight request limit; retry shortly"}
}

// marshalErrEnvelope renders the standard error envelope as raw bytes
// for paths that store or forward the exact response body (the
// idempotency window).
func marshalErrEnvelope(aerr *APIError) json.RawMessage {
	data, err := json.Marshal(struct {
		Error *APIError `json:"error"`
	}{aerr})
	if err != nil {
		return json.RawMessage(`{"error":{"code":"encode_failed","message":"error encoding failed"}}`)
	}
	return data
}

// maxBodyBytes bounds every request body; the largest legitimate
// payload (a snapshot resume is served, never accepted) is a job
// batch.
const maxBodyBytes = 1 << 20

// decodeJSON strictly decodes one JSON value from the request body:
// unknown fields, trailing garbage, oversized bodies, and syntactic
// junk (NaN and Inf are not JSON) all produce a typed 400. A strict
// decoder is the fuzz target's first line of defense — nothing
// semantically interesting happens until the bytes parse.
func decodeJSON(r *http.Request, v any) *APIError {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return errBadRequest("request body exceeds %d bytes", maxErr.Limit)
		}
		return errBadRequest("decode: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errBadRequest("trailing data after JSON value")
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
