package scheduler

import (
	"fmt"
	"math"

	"iscope/internal/brownout"
	"iscope/internal/checkpoint"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// arrivalSeqBase is the top of the reserved arrival sequence band.
// Every arrival event — batch-scheduled or injected mid-run — carries
// sequence number jobIndex+1 below this base, while the engine counter
// issues all other sequence numbers above it. Tie-breaking between an
// arrival and any same-timestamp event is therefore a pure function of
// the job index, so a late InjectJob merges into exactly the queue
// position a batch run would have given the same job. 1<<40 leaves room for a
// trillion jobs below and 2^24 of headroom per event above.
const arrivalSeqBase = uint64(1) << 40

// Stepper exposes the simulation loop one event at a time: the step
// primitives Run is built from, plus a streaming job intake. A batch
// run is the special case "inject everything, seal, drain"; a service
// keeps the stream open and interleaves InjectJob with event
// processing.
//
// The determinism contract carries over from Run: driving a sealed
// stepper to completion yields a Result (and checkpoint bytes)
// bit-identical to Run over the same trace, and a job injected while
// the clock is strictly before its submit time lands in the same queue
// position a batch run would have given it. The Stepper is not safe for
// concurrent use; callers serialize access (the service wraps one
// mutex per tenant).
type Stepper struct {
	s      *sim
	result *Result
}

// NewStepper builds a streaming simulation. cfg.Jobs seeds the run and
// may be nil or empty — unlike Run, a stepper can start with no jobs
// and receive all of them through InjectJob. cfg.Resume restores a
// snapshot first (including any jobs the snapshot knows that cfg.Jobs
// does not; see restore), leaving the stream open.
func NewStepper(fleet *Fleet, scheme Scheme, cfg RunConfig) (*Stepper, error) {
	return newStepper(fleet, scheme, cfg, true)
}

func newStepper(fleet *Fleet, scheme Scheme, cfg RunConfig, streaming bool) (*Stepper, error) {
	s, err := newSim(fleet, scheme, cfg, streaming)
	if err != nil {
		return nil, err
	}
	if cfg.Resume != nil {
		if err := s.restore(cfg.Resume); err != nil {
			return nil, err
		}
	}
	return &Stepper{s: s}, nil
}

// HasPendingEvents reports whether the event queue is non-empty.
func (st *Stepper) HasPendingEvents() bool { return st.s.eng.Pending() > 0 }

// PeekNextEventTime returns the virtual time of the event
// ProcessNextEvent would fire next; ok is false when the queue is
// empty.
func (st *Stepper) PeekNextEventTime() (at units.Seconds, ok bool) {
	at, _, ok = st.s.eng.PeekNext()
	return at, ok
}

// Now returns the virtual clock (the timestamp of the last fired
// event).
func (st *Stepper) Now() units.Seconds { return st.s.eng.Now() }

// Sealed reports whether the job stream has been closed.
func (st *Stepper) Sealed() bool { return !st.s.open }

// Finished reports the batch loop's stop condition: the stream is
// sealed and every known job has completed. Result may be called once
// Finished is true.
func (st *Stepper) Finished() bool { return !st.s.open && st.s.jobsLeft == 0 }

// ProcessNextEvent fires the earliest pending event, advancing the
// clock. fired is false when the queue is empty. A latched fail-fast
// invariant violation or a terminal result surfaces as an error and no
// event fires.
func (st *Stepper) ProcessNextEvent() (fired bool, err error) {
	if st.result != nil {
		return false, fmt.Errorf("scheduler: step after the result was assembled")
	}
	if st.s.invErr != nil {
		return false, st.s.invErr
	}
	return st.s.eng.Step(), nil
}

// ProcessEventBatch fires every event pending at the front timestamp in
// one engine call, gathered from the engine's in-order run and its heap
// at once instead of probing both per event as a ProcessNextEvent loop
// does. It returns the number of events fired (zero when the queue is
// empty). The fired sequence is bit-identical to calling
// ProcessNextEvent that many times: newly scheduled events — even at
// the same timestamp — carry larger sequence numbers and sort after the
// whole batch, so they fire in the next call. The dispatch stops
// mid-batch as soon as the run is terminally done (the
// stream sealed and its last job finished, or a fail-fast invariant
// latched — surfaced as an error on the next call), the states in which
// a single-step driver would strand the same events in the queue
// forever. On an open stream a finished job ends nothing — more may
// arrive — so the whole batch fires.
func (st *Stepper) ProcessEventBatch() (fired int, err error) {
	if st.result != nil {
		return 0, fmt.Errorf("scheduler: step after the result was assembled")
	}
	if st.s.invErr != nil {
		return 0, st.s.invErr
	}
	return st.s.eng.StepBatch(st.s.batchHalt), nil
}

// AdvanceTo fires every event with timestamp <= t in order, stopping
// early when the run finishes (matching the batch loop, which stops
// the instant the last job completes and leaves stale events queued)
// or a fail-fast invariant trips. It returns the number of events
// fired. The clock is left at the last fired event, never forced
// forward to t, so a job submitted at any time > Now can still be
// injected afterwards.
func (st *Stepper) AdvanceTo(t units.Seconds) (int, error) {
	fired := 0
	for !st.Finished() {
		at, ok := st.PeekNextEventTime()
		if !ok || at > t {
			break
		}
		if _, err := st.ProcessNextEvent(); err != nil {
			return fired, err
		}
		fired++
	}
	return fired, nil
}

// InjectJob adds one job to the open stream, arriving at virtual time
// at (the job's Submit field is overwritten with at). The arrival
// merges into the event queue under the reserved arrival sequence band,
// so as long as at is strictly after the current clock the resulting
// trajectory is bit-identical to a batch run whose trace contained the
// job all along. at == Now is accepted — the arrival fires before any
// later-scheduled same-timestamp event — but a batch run could have
// fired that arrival earlier in the same instant, so strict inequality
// is what the equivalence guarantee is stated for. It returns the
// job's index in the run's job set.
func (st *Stepper) InjectJob(at units.Seconds, job workload.Job) (int, error) {
	s := st.s
	if !s.open {
		return 0, fmt.Errorf("scheduler: InjectJob on a sealed stream")
	}
	if at < s.eng.Now() {
		return 0, fmt.Errorf("scheduler: InjectJob at t=%v before the clock %v", at, s.eng.Now())
	}
	job.Submit = at
	if err := validateJob(&job); err != nil {
		return 0, err
	}
	idx := len(s.states)
	// Individually allocated: stateIdx and live slices hold *workload.Job
	// keys, so injected jobs must never share (or reallocate) a backing
	// array.
	jp := new(workload.Job)
	*jp = job
	s.states = append(s.states, jobState{job: jp})
	s.stateIdx[jp] = idx
	s.jobsLeft++
	if err := s.injectArrival(idx); err != nil {
		// Roll the bookkeeping back; the queue was not touched.
		s.states = s.states[:idx]
		delete(s.stateIdx, jp)
		s.jobsLeft--
		return 0, err
	}
	return idx, nil
}

// validateJob checks one injected job the way Trace.Validate checks a
// batch trace (minus cross-job ordering, which the arrival band makes
// irrelevant).
func validateJob(j *workload.Job) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case !finite(float64(j.Submit)) || !finite(float64(j.Runtime)) ||
		!finite(float64(j.Deadline)) || !finite(j.Boundness):
		return fmt.Errorf("scheduler: injected job %d has non-finite fields", j.ID)
	case j.Procs <= 0:
		return fmt.Errorf("scheduler: injected job %d requests %d procs", j.ID, j.Procs)
	case j.Runtime <= 0:
		return fmt.Errorf("scheduler: injected job %d has runtime %v", j.ID, j.Runtime)
	case j.Boundness < 0 || j.Boundness > 1:
		return fmt.Errorf("scheduler: injected job %d boundness %v outside [0,1]", j.ID, j.Boundness)
	case j.Deadline != 0 && j.Deadline < j.Submit+j.Runtime:
		return fmt.Errorf("scheduler: injected job %d deadline before earliest completion", j.ID)
	}
	return nil
}

// Seal closes the job stream: no further InjectJob calls are accepted,
// and the periodic ticks stop re-arming once the last known job
// completes — the same wind-down a batch run performs. Sealing is
// idempotent.
func (st *Stepper) Seal() { st.s.open = false }

// Snapshot encodes the simulation state between events, exactly as the
// periodic checkpoint sink would receive it. It carries the definition
// of every injected job, so a stepper resumed from it (cfg.Resume)
// does not need them re-submitted; the configured trace and its
// pending arrivals come from the resuming configuration, which must
// hash the same.
func (st *Stepper) Snapshot() ([]byte, error) {
	snap, err := st.s.snapshot()
	if err != nil {
		return nil, err
	}
	data, err := checkpoint.Encode(snap)
	if err != nil {
		return nil, fmt.Errorf("scheduler: encode snapshot: %w", err)
	}
	return data, nil
}

// Result settles the run and assembles the measurements. It is valid
// once Finished reports true (or a terminal error is latched); calling
// it early returns an error and changes nothing. The first successful
// call settles the final energy integrals, so the result is computed
// exactly once and later calls return the same value; stepping or
// injecting after that is refused.
func (st *Stepper) Result() (*Result, error) {
	if st.result != nil {
		return st.result, nil
	}
	s := st.s
	if s.ckptErr != nil {
		return nil, s.ckptErr
	}
	if s.invErr != nil {
		return nil, s.invErr
	}
	if s.open {
		return nil, fmt.Errorf("scheduler: result requested with the job stream still open (%d jobs unfinished)", s.jobsLeft)
	}
	if s.jobsLeft > 0 {
		if s.eng.Pending() > 0 {
			return nil, fmt.Errorf("scheduler: result requested with %d jobs unfinished and %d events pending", s.jobsLeft, s.eng.Pending())
		}
		return nil, fmt.Errorf("scheduler: simulation stalled with %d jobs unfinished", s.jobsLeft)
	}
	res, err := s.assembleResult()
	if err != nil {
		return nil, err
	}
	st.result = res
	return res, nil
}

// Status is a point-in-time view of a stepper for live inspection.
// Energies are integrals up to the last account sync, not Now — the
// account advances lazily inside event handlers, and forcing a sync
// here would split integration intervals differently from an
// unobserved run and break bit-identity.
type StepStatus struct {
	Now           units.Seconds
	Jobs          int // jobs known to the run (initial + injected)
	JobsLeft      int
	Violations    int // deadline violations so far
	PendingEvents int
	Sealed        bool
	Finished      bool

	UtilityEnergy units.Joules
	WindEnergy    units.Joules
	Wind          units.Watts // current renewable supply (derated)

	// BrownoutStage is the degradation ladder's current rung
	// (StageNormal when the ladder is disabled).
	BrownoutStage brownout.Stage
	// InvariantViolations counts monitor findings so far (0 when the
	// monitor is disabled).
	InvariantViolations int
}

// Status reports the stepper's live state without disturbing it.
func (st *Stepper) Status() StepStatus {
	s := st.s
	out := StepStatus{
		Now:           s.eng.Now(),
		Jobs:          len(s.states),
		JobsLeft:      s.jobsLeft,
		Violations:    s.violations,
		PendingEvents: s.eng.Pending(),
		Sealed:        !s.open,
		Finished:      st.Finished(),
		UtilityEnergy: s.account.Utility,
		WindEnergy:    s.account.WindUsed,
		Wind:          s.curWind,
	}
	if s.brown != nil {
		out.BrownoutStage = s.brown.ladder.Stage()
	}
	if s.mon != nil {
		out.InvariantViolations = s.mon.Report().Violations
	}
	return out
}

// Close does nothing: a stepper holds no goroutines or other resources
// beyond its memory. It stays for callers written when it released a
// worker pool.
func (st *Stepper) Close() {}
