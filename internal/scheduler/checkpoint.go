package scheduler

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/checkpoint"
	"iscope/internal/cluster"
	"iscope/internal/faults"
	"iscope/internal/invariants"
	"iscope/internal/metrics"
	"iscope/internal/profiling"
	"iscope/internal/telemetry"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// tagKind enumerates the kinds of event the scheduler queues on its
// engine. A kind and its integer operands are all a handler needs, so
// a pending event serializes as its tag and fires the same after a
// resume.
type tagKind uint8

const (
	tagArrival    tagKind = iota + 1 // A = job index
	tagWindTick                      // periodic wind/matching tick
	tagAuxTick                       // utility-only profiling/rebalance tick
	tagSample                        // power-trace sampler tick
	tagCheckpoint                    // periodic snapshot tick
	tagCompletion                    // A = slice serial, B = generation
	tagFinishScan                    // A = processor id
	tagFaultEvent                    // A = index into the compiled fault plan
	tagRepaired                      // A = processor id
	tagMargin                        // A = slice serial, B = generation, C = level
	tagReprofiled                    // A = processor id (its false pass waits in faultState.reprofiling)
	tagTelemetry                     // periodic sensor sampling tick
)

// engineTag is the event the scheduler's engine queues. A single
// concrete struct (rather than one type per kind) with int32 operands
// keeps it 16 bytes and pointer-free, so the engine's node is 32 bytes
// and its sift copies are short memmoves with no GC write barriers, a
// measurable share of the hot loop.
type engineTag struct {
	Kind    tagKind
	A, B, C int32
}

// eventTag is the v5 wire form of an engineTag. gob writes struct type
// names into the stream, so it keeps its name and all seven fields. The
// false-pass payload (FP*) is set only on a tagReprofiled event:
// snapshot fills it from faultState.reprofiling and restore puts it
// back there.
type eventTag struct {
	Kind            tagKind
	A, B, C         int32
	FPChip, FPLevel int32
	FPDrift         float64
}

// engine is the engine's form of a restored tag, without the payload.
func (t eventTag) engine() engineTag {
	return engineTag{Kind: t.Kind, A: t.A, B: t.B, C: t.C}
}

// fp reassembles the false-pass payload of a tagReprofiled tag.
func (t eventTag) fp() faults.FalsePass {
	return faults.FalsePass{Chip: int(t.FPChip), Level: int(t.FPLevel), DriftFrac: t.FPDrift}
}

// snapMeta identifies the run a snapshot belongs to. Restore refuses a
// snapshot whose meta does not match the resuming configuration —
// resuming under different parameters would silently produce results
// belonging to neither run.
type snapMeta struct {
	Scheme  string
	Seed    uint64
	Procs   int
	Jobs    int
	CfgHash uint64
}

// snapEvent is one pending engine event.
type snapEvent struct {
	At  units.Seconds
	Seq uint64
	Tag eventTag
}

// jobSnap is one job's completion progress. Every job has one; only
// jobs past the configured trace (streamed in through InjectJob) also
// carry their definition, in runSnapshot.Injected.
type jobSnap struct {
	Remaining int
	Finish    units.Seconds
}

// deferredSnap is one held admission; restartCount is one slice's shed
// tally (the map is stored as a sorted list for deterministic bytes).
type deferredSnap struct {
	Idx int
	At  units.Seconds
}

type restartCount struct {
	Serial int
	Count  int
}

// brownSnap captures the brownout ladder's runtime: the controller's
// hysteresis state plus the action bookkeeping.
type brownSnap struct {
	Stats       metrics.BrownoutStats
	Ladder      brownout.State
	Deferred    []deferredSnap
	ParkedAt    []units.Seconds
	Restarts    []restartCount
	LastAdvance units.Seconds
	LastUtility units.Joules
}

// faultSnap captures the fault-injection runtime. The compiled plan is
// omitted: Compile is deterministic in (spec, seed), so resume rebuilds
// an identical plan and pending plan events are restored by index.
type faultSnap struct {
	Stats         metrics.FaultStats
	Victims       []faults.FalsePass
	Override      []units.Volts
	SupplyFactor  float64
	Last          units.Seconds
	FallbackSince []units.Seconds
	RepairSince   []units.Seconds
}

// telemSnap captures the sensor-and-estimation runtime. The compiled
// sensor plan is omitted: telemetry.Compile is deterministic in
// (spec, procs, seed), so resume rebuilds an identical plan; only the
// dynamic read state and the estimated power view travel.
type telemSnap struct {
	Stats        metrics.TelemetryStats
	ErrSum       float64
	ErrN         int
	Model        telemetry.State
	DemandFactor float64
	NodeRatio    []float64
	Guarded      bool
	GuardSince   units.Seconds
}

// runSnapshot is the simulation state at one instant that the
// configuration cannot re-derive. Every accumulated float is stored
// verbatim; restore re-derives only what is provably bit-identical to
// re-derive: the fault and sensor plans, the knowledge regime, the
// configured trace's job definitions and its pending arrivals, and the
// efficiency order until online profiling re-sorts it. The exact
// config hash in Meta pins every input those come from.
type runSnapshot struct {
	Meta snapMeta

	Now units.Seconds
	Seq uint64
	// Events is the pending queue less the configured trace's arrivals
	// and the stale completions and margin checks (see staleTag).
	Events []snapEvent
	// TraceNext is the first trace job whose arrival has not fired: the
	// pending trace arrivals are exactly [TraceNext, len(trace)), each
	// at (Submit, index+1), and restore re-injects them.
	TraceNext int

	Cluster cluster.State
	Account metrics.AccountState
	Battery []battery.State // zero or one

	Rand []byte
	// EffPref is the efficiency order once online profiling has
	// re-sorted it; nil while it is still the order newSim builds.
	EffPref []int

	CurWind     units.Watts
	NominalWind units.Watts

	Trace []metrics.TracePoint

	ProfilesDirty bool
	ScanState     []byte
	ScanLeft      int
	ProfEnergy    units.Joules
	Profiled      int
	DBRecords     []profiling.Record

	Jobs       []jobSnap      // every job, trace first
	Injected   []workload.Job // definitions of the jobs past the trace
	JobsLeft   int
	Violations int
	WorkDone   units.Seconds
	SlicesDone int
	SliceSeq   int

	Faults    []faultSnap        // zero or one
	Brownout  []brownSnap        // zero or one
	Monitor   []invariants.State // zero or one
	Telemetry []telemSnap        // zero or one
}

// configHash fingerprints the run's configuration and its live job
// set (the trace plus every injected job), so a snapshot taken
// mid-stream fingerprints the jobs it carries.
func (s *sim) configHash() uint64 {
	h := hashConfig(&s.cfg)
	h.u64(uint64(len(s.states)))
	for i := range s.states {
		h.value(reflect.ValueOf(s.states[i].job).Elem())
	}
	return uint64(h)
}

// runHash is FNV-64a over the exact bits of every input that shapes a
// run's trajectory: integers as 64-bit two's complement, floats as
// their IEEE-754 bits, bools as 0 or 1, each in little-endian byte
// order. Nothing is printed, so no display resolution can hide a
// difference, and nothing depends on encoder state.
type runHash uint64

// u64 feeds v's eight little-endian bytes.
func (h *runHash) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ v&0xff) * 1099511628211
		v >>= 8
	}
	*h = runHash(x)
}

func (h *runHash) f64(v float64) { h.u64(math.Float64bits(v)) }

// value feeds v field by field, so every field of every config type is
// hashed, including fields added later: a slice or array writes its
// length and then its elements, a pointer writes 0 when nil and
// otherwise 1 and its target.
func (h *runHash) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.u64(1)
		} else {
			h.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.f64(v.Float())
	case reflect.Array, reflect.Slice:
		h.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.value(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			h.u64(0)
			return
		}
		h.u64(1)
		h.value(v.Elem())
	default:
		panic(fmt.Sprintf("scheduler: the config hash has no writer for %v", v.Type()))
	}
}

// hashConfig starts a run hash over every RunConfig field except the
// job set, which the caller appends. Checkpoint and Resume are
// excluded: where and how often a run snapshots does not change what it
// computes. The ignored Workers field and the test-only naive switch
// are excluded for the same reason, so a checkpoint taken under one
// value of either resumes under any other. A
// disabled telemetry spec constructs no state and perturbs no
// decision, so it hashes like no spec, which keeps its checkpoints
// interchangeable with the oracle path's.
func hashConfig(cfg *RunConfig) runHash {
	c := *cfg
	c.Jobs, c.Checkpoint, c.Resume, c.Workers, c.naive = nil, nil, nil, 0, false
	if c.Telemetry != nil && !c.Telemetry.Enabled() {
		c.Telemetry = nil
	}
	h := runHash(14695981039346656037)
	h.value(reflect.ValueOf(c))
	return h
}

func (s *sim) snapMeta() snapMeta {
	return snapMeta{
		Scheme:  s.scheme.Name,
		Seed:    s.cfg.Seed,
		Procs:   s.dc.Len(),
		Jobs:    len(s.states),
		CfgHash: s.configHash(),
	}
}

// snapshot captures the simulation state the configuration cannot
// re-derive (see runSnapshot).
func (s *sim) snapshot() (*runSnapshot, error) {
	trace := s.trace()
	pending := s.eng.PendingEvents()
	events := make([]snapEvent, 0, len(pending))
	next, arrivals := len(trace), 0
	for _, ev := range pending {
		if i := int(ev.Tag.A); ev.Tag.Kind == tagArrival && i < len(trace) {
			// Trace arrivals pop in (Submit, index+1) order, so the
			// unfired ones are a suffix of the trace, in index order.
			if arrivals == 0 {
				next = i
			}
			if i != next+arrivals || ev.At != trace[i].Submit || ev.Seq != uint64(i)+1 {
				return nil, fmt.Errorf("scheduler: pending arrival of trace job %d (t=%v, seq %d) breaks the unfired suffix from job %d", i, ev.At, ev.Seq, next)
			}
			arrivals++
			continue
		}
		if s.staleTag(ev.Tag) {
			continue
		}
		tag := eventTag{Kind: ev.Tag.Kind, A: ev.Tag.A, B: ev.Tag.B, C: ev.Tag.C}
		if tag.Kind == tagReprofiled {
			fp := s.faults.reprofiling[int(tag.A)]
			tag.FPChip, tag.FPLevel, tag.FPDrift = int32(fp.Chip), int32(fp.Level), fp.DriftFrac
		}
		events = append(events, snapEvent{At: ev.At, Seq: ev.Seq, Tag: tag})
	}
	if next+arrivals != len(trace) {
		return nil, fmt.Errorf("scheduler: trace arrivals [%d, %d) are pending, but the trace has %d jobs", next, next+arrivals, len(trace))
	}
	randState, err := s.r.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("scheduler: marshal rng: %w", err)
	}
	snap := &runSnapshot{
		Meta:          s.snapMeta(),
		Now:           s.eng.Now(),
		Seq:           s.eng.Seq(),
		Events:        events,
		TraceNext:     next,
		Cluster:       s.dc.CaptureState(func(j *workload.Job) int { return s.stateIdx[j] }),
		Account:       s.account.CaptureState(),
		Rand:          randState,
		CurWind:       s.curWind,
		NominalWind:   s.nominalWind,
		ProfilesDirty: s.profilesDirty,
		ProfEnergy:    s.profEnergy,
		Profiled:      s.profiled,
		JobsLeft:      s.jobsLeft,
		Violations:    s.violations,
		WorkDone:      s.workDone,
		SlicesDone:    s.slicesDone,
		SliceSeq:      s.sliceSeq,
		ScanLeft:      s.scanLeft,
	}
	if s.effResorted {
		snap.EffPref = append([]int(nil), s.effPref...)
	}
	if s.account.Battery != nil {
		snap.Battery = []battery.State{s.account.Battery.CaptureState()}
	}
	if s.sampler != nil {
		snap.Trace = append([]metrics.TracePoint(nil), s.sampler.Points...)
	}
	if s.onlineActive {
		snap.ScanState = append([]byte(nil), s.scanState...)
		snap.DBRecords = s.db.Records()
	}
	snap.Jobs = make([]jobSnap, len(s.states))
	for i := range s.states {
		snap.Jobs[i] = jobSnap{Remaining: s.states[i].remaining, Finish: s.states[i].finish}
	}
	if len(s.states) > len(trace) {
		snap.Injected = make([]workload.Job, 0, len(s.states)-len(trace))
		for _, st := range s.states[len(trace):] {
			snap.Injected = append(snap.Injected, *st.job)
		}
	}
	if s.faults != nil {
		f := s.faults
		victims := make([]faults.FalsePass, 0, len(f.victims))
		for _, fp := range f.victims {
			victims = append(victims, fp)
		}
		sort.Slice(victims, func(a, b int) bool {
			if victims[a].Chip != victims[b].Chip {
				return victims[a].Chip < victims[b].Chip
			}
			return victims[a].Level < victims[b].Level
		})
		snap.Faults = []faultSnap{{
			Stats:         f.stats,
			Victims:       victims,
			Override:      append([]units.Volts(nil), f.override...),
			SupplyFactor:  f.supplyFactor,
			Last:          f.last,
			FallbackSince: append([]units.Seconds(nil), f.fallbackSince...),
			RepairSince:   append([]units.Seconds(nil), f.repairSince...),
		}}
	}
	if s.brown != nil {
		b := s.brown
		deferred := make([]deferredSnap, len(b.deferred))
		for i, d := range b.deferred {
			deferred[i] = deferredSnap{Idx: d.idx, At: d.at}
		}
		restarts := make([]restartCount, 0, len(b.restarts))
		for serial, c := range b.restarts {
			restarts = append(restarts, restartCount{Serial: serial, Count: c})
		}
		sort.Slice(restarts, func(a, c int) bool { return restarts[a].Serial < restarts[c].Serial })
		snap.Brownout = []brownSnap{{
			Stats:       b.stats,
			Ladder:      b.ladder.CaptureState(),
			Deferred:    deferred,
			ParkedAt:    append([]units.Seconds(nil), b.parkedAt...),
			Restarts:    restarts,
			LastAdvance: b.lastAdvance,
			LastUtility: b.lastUtility,
		}}
	}
	if s.mon != nil {
		snap.Monitor = []invariants.State{s.mon.CaptureState()}
	}
	if s.telem != nil {
		t := s.telem
		mstate, err := t.model.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("scheduler: %w", err)
		}
		snap.Telemetry = []telemSnap{{
			Stats:        t.stats,
			ErrSum:       t.errSum,
			ErrN:         t.errN,
			Model:        mstate,
			DemandFactor: t.demandFactor,
			NodeRatio:    append([]float64(nil), t.nodeRatio...),
			Guarded:      t.guarded,
			GuardSince:   t.guardSince,
		}}
	}
	return snap, nil
}

// emitCheckpoint encodes the current state and hands it to the sink.
// The first failure latches into s.ckptErr and fails the run — a
// checkpointing run that silently stopped checkpointing would defeat
// the point.
func (s *sim) emitCheckpoint() {
	if s.ckptErr != nil {
		return
	}
	snap, err := s.snapshot()
	if err != nil {
		s.ckptErr = err
		return
	}
	data, err := checkpoint.Encode(snap)
	if err != nil {
		s.ckptErr = fmt.Errorf("scheduler: encode checkpoint: %w", err)
		return
	}
	if err := s.cfg.Checkpoint.Sink(data); err != nil {
		s.ckptErr = fmt.Errorf("scheduler: checkpoint sink: %w", err)
	}
}

// restore overlays a snapshot onto a freshly initialized sim. The sim
// has already run its normal construction (consuming the init-only
// random draws exactly as the original run did); restore then resets
// the engine, overlays every piece of captured state, and re-injects
// the pending events with their original sequence numbers so that
// same-timestamp tie-breaking replays identically.
//
// The snapshot's job set may exceed the resuming configuration's: jobs
// streamed into the original run (Stepper.InjectJob) live only in the
// snapshot, and restore rebuilds them from the carried definitions,
// extending this run's job set. The configured trace must be the
// snapshot's: the trace lengths must agree, and the exact config hash
// over the extended job set pins every trace job's fields.
func (s *sim) restore(data []byte) error {
	var snap runSnapshot
	if err := checkpoint.Decode(data, &snap); err != nil {
		return fmt.Errorf("scheduler: resume: %w", err)
	}
	if snap.Meta.Scheme != s.scheme.Name || snap.Meta.Seed != s.cfg.Seed || snap.Meta.Procs != s.dc.Len() {
		return fmt.Errorf("scheduler: resume: snapshot belongs to a different run (snapshot %+v, this run %+v)", snap.Meta, s.snapMeta())
	}
	trace := s.trace()
	if len(snap.Jobs) != len(trace)+len(snap.Injected) {
		return fmt.Errorf("scheduler: resume: snapshot has %d jobs and %d injected ones, this run's trace has %d", len(snap.Jobs), len(snap.Injected), len(trace))
	}
	if snap.TraceNext < 0 || snap.TraceNext > len(trace) {
		return fmt.Errorf("scheduler: resume: trace cursor %d outside a %d-job trace", snap.TraceNext, len(trace))
	}
	for i := range snap.Injected {
		// The decoded slice is never appended to, so its elements stay
		// put like InjectJob's individual allocations: live pointers
		// must never move.
		jp := &snap.Injected[i]
		s.states = append(s.states, jobState{job: jp})
		s.stateIdx[jp] = len(s.states) - 1
	}
	if want := s.snapMeta(); snap.Meta != want {
		return fmt.Errorf("scheduler: resume: snapshot belongs to a different run (snapshot %+v, this run %+v)", snap.Meta, want)
	}
	if err := s.r.UnmarshalBinary(snap.Rand); err != nil {
		return fmt.Errorf("scheduler: resume: rng state: %w", err)
	}
	if snap.EffPref != nil {
		if len(snap.EffPref) != len(s.effPref) {
			return fmt.Errorf("scheduler: resume: effPref length %d, want %d", len(snap.EffPref), len(s.effPref))
		}
		copy(s.effPref, snap.EffPref)
		s.effResorted = true
	}
	s.profilesDirty = snap.ProfilesDirty

	// Serials are issued from 0 up to SliceSeq, and the serial index is
	// sized by them: one outside that range would index it out of
	// bounds, or grow it without limit.
	for i := range snap.Cluster.Procs {
		ps := &snap.Cluster.Procs[i]
		for _, list := range [2][]cluster.SliceState{ps.Current, ps.Queue} {
			for k := range list {
				if serial := list[k].Serial; serial < 0 || serial >= snap.SliceSeq {
					return fmt.Errorf("scheduler: resume: processor %d holds slice serial %d, outside the %d issued", i, serial, snap.SliceSeq)
				}
			}
		}
	}
	live, err := s.dc.RestoreState(snap.Cluster, &s.arena, func(ref int) (*workload.Job, error) {
		if ref < 0 || ref >= len(s.states) {
			return nil, fmt.Errorf("job ref %d out of range", ref)
		}
		return s.states[ref].job, nil
	})
	if err != nil {
		return fmt.Errorf("scheduler: resume: %w", err)
	}
	s.rebuildSerialIndex(live)

	s.account.RestoreState(snap.Account)
	switch {
	case len(snap.Battery) == 1 && s.account.Battery != nil:
		if err := s.account.Battery.RestoreState(snap.Battery[0]); err != nil {
			return fmt.Errorf("scheduler: resume: %w", err)
		}
	case len(snap.Battery) != 0 || s.account.Battery != nil && len(snap.Battery) == 0:
		return fmt.Errorf("scheduler: resume: battery presence mismatch")
	}

	if s.sampler != nil {
		s.sampler.Points = append([]metrics.TracePoint(nil), snap.Trace...)
	}
	s.curWind = snap.CurWind
	s.nominalWind = snap.NominalWind
	s.profEnergy = snap.ProfEnergy
	s.profiled = snap.Profiled
	s.jobsLeft = snap.JobsLeft
	s.violations = snap.Violations
	s.workDone = snap.WorkDone
	s.slicesDone = snap.SlicesDone
	s.sliceSeq = snap.SliceSeq
	// Neither incremental consumer needs a reset: RestoreState
	// overflowed the cluster's fair and queue-estimate feeds, so the
	// fair lists rebuild on first use and rebalance's next tick
	// recounts every processor.

	if s.onlineActive {
		if len(snap.ScanState) != len(s.scanState) {
			return fmt.Errorf("scheduler: resume: scan state length %d, want %d", len(snap.ScanState), len(s.scanState))
		}
		copy(s.scanState, snap.ScanState)
		s.scanLeft = snap.ScanLeft
		if err := s.db.RestoreRecords(snap.DBRecords); err != nil {
			return fmt.Errorf("scheduler: resume: %w", err)
		}
	}

	for i := range s.states {
		s.states[i].remaining = snap.Jobs[i].Remaining
		s.states[i].finish = snap.Jobs[i].Finish
	}

	switch {
	case s.faults != nil && len(snap.Faults) == 1:
		f, fs := s.faults, snap.Faults[0]
		if len(fs.Override) != len(f.override) ||
			len(fs.FallbackSince) != len(f.fallbackSince) ||
			len(fs.RepairSince) != len(f.repairSince) {
			return fmt.Errorf("scheduler: resume: fault state shape mismatch")
		}
		f.stats = fs.Stats
		f.victims = make(map[victimKey]faults.FalsePass, len(fs.Victims))
		for _, fp := range fs.Victims {
			f.victims[victimKey{fp.Chip, fp.Level}] = fp
		}
		copy(f.override, fs.Override)
		f.supplyFactor = fs.SupplyFactor
		f.last = fs.Last
		copy(f.fallbackSince, fs.FallbackSince)
		copy(f.repairSince, fs.RepairSince)
	case s.faults == nil && len(snap.Faults) == 0:
		// fault-free on both sides
	default:
		return fmt.Errorf("scheduler: resume: fault-injection presence mismatch")
	}

	switch {
	case s.brown != nil && len(snap.Brownout) == 1:
		b, bs := s.brown, snap.Brownout[0]
		if len(bs.ParkedAt) != len(b.parkedAt) {
			return fmt.Errorf("scheduler: resume: brownout state shape mismatch")
		}
		if err := b.ladder.RestoreState(bs.Ladder); err != nil {
			return fmt.Errorf("scheduler: resume: %w", err)
		}
		b.stats = bs.Stats
		b.deferred = b.deferred[:0]
		for _, d := range bs.Deferred {
			if d.Idx < 0 || d.Idx >= len(s.states) {
				return fmt.Errorf("scheduler: resume: deferred job index %d out of range", d.Idx)
			}
			b.deferred = append(b.deferred, deferredJob{idx: d.Idx, at: d.At})
		}
		copy(b.parkedAt, bs.ParkedAt)
		b.restarts = make(map[int]int, len(bs.Restarts))
		for _, rc := range bs.Restarts {
			b.restarts[rc.Serial] = rc.Count
		}
		b.lastAdvance = bs.LastAdvance
		b.lastUtility = bs.LastUtility
		// The battery's reserve floor travels in battery.State, already
		// restored above.
	case s.brown == nil && len(snap.Brownout) == 0:
		// brownout disabled on both sides
	default:
		return fmt.Errorf("scheduler: resume: brownout presence mismatch")
	}

	switch {
	case s.mon != nil && len(snap.Monitor) == 1:
		if err := s.mon.RestoreState(snap.Monitor[0]); err != nil {
			return fmt.Errorf("scheduler: resume: %w", err)
		}
	case s.mon == nil && len(snap.Monitor) == 0:
		// monitor disabled on both sides
	default:
		return fmt.Errorf("scheduler: resume: invariant-monitor presence mismatch")
	}

	switch {
	case s.telem != nil && len(snap.Telemetry) == 1:
		ts := snap.Telemetry[0]
		t := s.telem
		if err := t.model.RestoreState(ts.Model); err != nil {
			return fmt.Errorf("scheduler: resume: %w", err)
		}
		if len(ts.NodeRatio) != len(t.nodeRatio) {
			return fmt.Errorf("scheduler: resume: telemetry node count mismatch: snapshot %d, config %d", len(ts.NodeRatio), len(t.nodeRatio))
		}
		t.stats = ts.Stats
		t.errSum = ts.ErrSum
		t.errN = ts.ErrN
		t.demandFactor = ts.DemandFactor
		copy(t.nodeRatio, ts.NodeRatio)
		t.guarded = ts.Guarded
		t.guardSince = ts.GuardSince
	case s.telem == nil && len(snap.Telemetry) == 0:
		// telemetry disabled on both sides
	default:
		return fmt.Errorf("scheduler: resume: telemetry presence mismatch")
	}

	// Rebuild the event queue with original (at, seq) pairs, merging
	// the re-derived trace arrivals in so that every event appends to
	// the engine's in-order run, as the arrivals do at construction.
	s.eng.Reset(snap.Now, snap.Seq)
	next := snap.TraceNext
	arriveBefore := func(at units.Seconds, seq uint64) error {
		for ; next < len(trace); next++ {
			if sub := trace[next].Submit; sub > at || sub == at && uint64(next)+1 > seq {
				return nil
			}
			if err := s.injectArrival(next); err != nil {
				return fmt.Errorf("scheduler: resume: trace job %d: %w", next, err)
			}
		}
		return nil
	}
	ckptRestored := false
	arriving := make([]bool, len(snap.Injected)) // by injected-job index
	timed := make([]bool, len(s.bySerial))       // running slices' completions, by serial
	for _, ev := range snap.Events {
		keep, err := s.validateTag(ev.Tag)
		if err != nil {
			return fmt.Errorf("scheduler: resume: event at t=%v: %w", ev.At, err)
		}
		if !keep {
			continue
		}
		if err := arriveBefore(ev.At, ev.Seq); err != nil {
			return err
		}
		switch ev.Tag.Kind {
		case tagCompletion:
			// A completion of the running generation ends the slice when
			// it fires, so it must be due at the slice's Finish and be
			// its only one. Earlier generations' completions are no-ops.
			sl := s.sliceFor(int(ev.Tag.A))
			if !sl.Running() || int(ev.Tag.B) != sl.Gen {
				break
			}
			if ev.At != sl.Finish {
				return fmt.Errorf("scheduler: resume: event at t=%v: completion of running slice %d, which finishes at %v", ev.At, sl.Serial, sl.Finish)
			}
			if timed[sl.Serial] {
				return fmt.Errorf("scheduler: resume: event at t=%v: second completion of running slice %d", ev.At, sl.Serial)
			}
			timed[sl.Serial] = true
		case tagArrival:
			// injectArrival queues a job's arrival once, at its submit
			// time with sequence number index+1.
			idx := int(ev.Tag.A)
			if sub := s.states[idx].job.Submit; ev.At != sub || ev.Seq != uint64(idx)+1 {
				return fmt.Errorf("scheduler: resume: event at t=%v: arrival of injected job %d with seq %d, due at its submit time %v with seq %d", ev.At, idx, ev.Seq, sub, idx+1)
			}
			if arriving[idx-len(trace)] {
				return fmt.Errorf("scheduler: resume: event at t=%v: second arrival for injected job %d", ev.At, idx)
			}
			arriving[idx-len(trace)] = true
		case tagCheckpoint:
			ckptRestored = true
		case tagReprofiled:
			s.faults.reprofiling[int(ev.Tag.A)] = ev.Tag.fp()
		}
		if err := s.eng.InjectTag(ev.At, ev.Seq, ev.Tag.engine()); err != nil {
			return fmt.Errorf("scheduler: resume: %w", err)
		}
	}
	if err := arriveBefore(units.Seconds(math.Inf(1)), math.MaxUint64); err != nil {
		return err
	}
	// A running slice without its completion would never finish, and
	// neither would the run.
	for serial, sl := range s.bySerial {
		if sl != nil && sl.Running() && !timed[serial] {
			return fmt.Errorf("scheduler: resume: running slice %d has no pending completion at its finish time %v", serial, sl.Finish)
		}
	}
	// Every job that has not arrived waits on exactly one pending
	// arrival: a trace job from TraceNext on, an injected job through
	// its event. A job has arrived once it was placed, so slices of it
	// remain or it finished, or once brownout holds it deferred. A job
	// with neither would never arrive, and the run would never finish;
	// one with both would arrive twice.
	held := make([]bool, len(s.states))
	if s.brown != nil {
		for _, d := range s.brown.deferred {
			held[d.idx] = true
		}
	}
	for idx := range s.states {
		st := &s.states[idx]
		arrived := st.remaining > 0 || st.finish != 0 || held[idx]
		pending := idx >= snap.TraceNext
		if idx >= len(trace) {
			pending = arriving[idx-len(trace)]
		}
		switch {
		case arrived && pending:
			return fmt.Errorf("scheduler: resume: job %d has already arrived but has a pending arrival", idx)
		case !arrived && !pending:
			return fmt.Errorf("scheduler: resume: job %d has neither arrived nor a pending arrival", idx)
		}
	}
	// A job's Remaining counts its live slices, running or queued, and
	// its last completion sets its Finish and takes it off JobsLeft. A
	// count that disagrees resumes into a run that finishes early or
	// never.
	slicesOf := make([]int, len(s.states))
	for _, sl := range live {
		slicesOf[s.stateIdx[sl.Job]]++
	}
	unfinished := 0
	for idx := range s.states {
		st := &s.states[idx]
		switch {
		case st.remaining != slicesOf[idx]:
			return fmt.Errorf("scheduler: resume: job %d counts %d remaining slices but has %d", idx, st.remaining, slicesOf[idx])
		case st.finish != 0 && slicesOf[idx] > 0:
			return fmt.Errorf("scheduler: resume: job %d finished at t=%v but has %d slices left", idx, st.finish, slicesOf[idx])
		case st.finish == 0:
			unfinished++
		}
	}
	if s.jobsLeft != unfinished {
		return fmt.Errorf("scheduler: resume: snapshot counts %d jobs left, but %d have not finished", s.jobsLeft, unfinished)
	}
	// The resumed run may enable checkpointing even when the snapshot
	// holds no pending tick (the original run checkpointed only on
	// cancellation, or not at all).
	if !ckptRestored && s.cfg.Checkpoint != nil && s.cfg.Checkpoint.Every > 0 {
		_ = s.eng.AfterTag(s.cfg.Checkpoint.Every, engineTag{Kind: tagCheckpoint})
	}
	return nil
}

// staleTag reports a completion or margin check whose slice is gone.
// Serials are never reissued, so the dispatcher would drop the event
// whenever it fired. Capture leaves such events out and restore drops
// them, so a resumed run's checkpoints equal the uninterrupted run's.
func (s *sim) staleTag(tag engineTag) bool {
	return (tag.Kind == tagCompletion || tag.Kind == tagMargin) && s.sliceFor(int(tag.A)) == nil
}

// validateTag vets a pending event against the restored world. keep is
// false for events that are provably no-ops there: a stale completion
// or margin check (see staleTag), or a checkpoint tick when the resumed
// run disabled checkpointing. Dropping a no-op instead of replaying it
// cannot change the trajectory. Kept events fire through the same
// dispatcher the live run uses.
func (s *sim) validateTag(tag eventTag) (bool, error) {
	switch tag.Kind {
	case tagArrival:
		// Trace arrivals travel as runSnapshot.TraceNext.
		if int(tag.A) < len(s.trace()) || int(tag.A) >= len(s.states) {
			return false, fmt.Errorf("arrival index %d is not an injected job's", tag.A)
		}
		return true, nil
	case tagWindTick:
		if s.cfg.Wind == nil {
			return false, fmt.Errorf("wind tick in a utility-only run")
		}
		return true, nil
	case tagAuxTick:
		return true, nil
	case tagSample:
		if s.sampler == nil {
			return false, fmt.Errorf("sampler tick with sampling disabled")
		}
		return true, nil
	case tagTelemetry:
		if s.telem == nil {
			return false, fmt.Errorf("telemetry tick with telemetry disabled")
		}
		return true, nil
	case tagCheckpoint:
		if s.cfg.Checkpoint == nil || s.cfg.Checkpoint.Every <= 0 {
			return false, nil
		}
		return true, nil
	case tagCompletion:
		return !s.staleTag(tag.engine()), nil
	case tagFinishScan:
		if tag.A < 0 || int(tag.A) >= s.dc.Len() {
			return false, fmt.Errorf("scan finish for processor %d out of range", tag.A)
		}
		if !s.onlineActive || s.scanState[tag.A] != 1 {
			return false, fmt.Errorf("scan finish for processor %d, which has no scan in progress", tag.A)
		}
		return true, nil
	case tagFaultEvent:
		if s.faults == nil {
			return false, fmt.Errorf("fault event with fault injection disabled")
		}
		if tag.A < 0 || int(tag.A) >= len(s.faults.plan.Events) {
			return false, fmt.Errorf("fault plan index %d out of range", tag.A)
		}
		if !s.faultEventObserved(int(tag.A)) {
			return false, fmt.Errorf("fault plan event %d has no observer", tag.A)
		}
		return true, nil
	case tagRepaired:
		if s.faults == nil || tag.A < 0 || int(tag.A) >= s.dc.Len() {
			return false, fmt.Errorf("repair event for processor %d invalid", tag.A)
		}
		return true, nil
	case tagMargin:
		if s.faults == nil {
			return false, fmt.Errorf("margin event with fault injection disabled")
		}
		return !s.staleTag(tag.engine()), nil
	case tagReprofiled:
		if s.faults == nil {
			return false, fmt.Errorf("reprofile event with fault injection disabled")
		}
		if tag.A < 0 || int(tag.A) >= s.dc.Len() {
			return false, fmt.Errorf("reprofile event for processor %d out of range", tag.A)
		}
		// The payload is a faults.FalsePass of this chip: the handler
		// indexes voltages by its level, and its drift is a fraction
		// strictly inside (0, 1).
		if tag.FPChip != tag.A || tag.FPLevel < 0 || int(tag.FPLevel) >= s.faults.levels || !(tag.FPDrift > 0 && tag.FPDrift < 1) {
			return false, fmt.Errorf("reprofile event for processor %d carries a malformed false pass (chip %d, level %d, drift %v)", tag.A, tag.FPChip, tag.FPLevel, tag.FPDrift)
		}
		if _, dup := s.faults.reprofiling[int(tag.A)]; dup {
			return false, fmt.Errorf("second reprofile event for processor %d", tag.A)
		}
		return true, nil
	}
	return false, fmt.Errorf("unknown event tag kind %d", tag.Kind)
}
