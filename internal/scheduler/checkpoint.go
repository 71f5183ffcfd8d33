package scheduler

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

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

// tagKind enumerates the event descriptors the scheduler attaches to
// every scheduled callback. Tags are what make the event queue
// checkpointable: the callback closures cannot be serialized, but each
// one can be rebuilt from its tag on resume.
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
	tagReprofiled                    // A = processor id, FP* = the tripped false pass
	tagTelemetry                     // periodic sensor sampling tick
)

// eventTag is the serializable descriptor of one pending event. A
// single concrete struct (rather than one type per kind) keeps gob
// encoding free of interface registration. The fields are int32 and the
// false-pass payload is inlined as scalars, which keeps the tag — and
// with it the event engine's heap node — small and pointer-free: sift
// copies are short memmoves with no GC write barriers, a measurable
// share of the hot loop. FPDrift 0 (which a compiled false pass can
// never have) marks "no false-pass payload".
type eventTag struct {
	Kind            tagKind
	A, B, C         int32
	FPChip, FPLevel int32
	FPDrift         float64
}

// fp reassembles the inlined false-pass payload of a tagReprofiled tag.
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

// jobSnap is one job's definition and completion progress. Carrying
// the full definition (format v3) makes snapshots self-contained:
// a streaming run's injected jobs exist nowhere but here, and restore
// rebuilds them — extending a resuming run's job set — instead of
// requiring the caller to replay the stream.
type jobSnap struct {
	Def       workload.Job
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

// runSnapshot is the complete simulation state at one instant. Every
// accumulated float is stored verbatim; nothing is re-derived on
// restore except what is provably bit-identical to re-derive (the
// fault plan, the knowledge regime, job definitions).
type runSnapshot struct {
	Meta snapMeta

	Now    units.Seconds
	Seq    uint64
	Events []snapEvent

	Cluster cluster.State
	Account metrics.AccountState
	Battery []battery.State // zero or one

	Rand    []byte
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

	Jobs       []jobSnap
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

// cfgHash fingerprints every RunConfig field that shapes the
// simulation trajectory, over the configured trace. The sim's live
// hash (configHash) uses the same byte layout but draws the job set
// from the run's states, which include streamed jobs; for a batch run
// the two are identical.
func cfgHash(cfg RunConfig) uint64 {
	h := fnv.New64a()
	put := func(format string, args ...any) { fmt.Fprintf(h, format+"|", args...) }
	hashCfgFields(put, &cfg)
	if cfg.Jobs != nil {
		put("jobs=%d", len(cfg.Jobs.Jobs))
		var buf []byte
		for i := range cfg.Jobs.Jobs {
			buf = appendJob(buf[:0], &cfg.Jobs.Jobs[i])
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// configHash is the sim-level cfgHash: identical fields, but the job
// section covers the live job set (initial trace plus every injected
// job) so a snapshot taken mid-stream fingerprints the jobs it
// actually carries.
func (s *sim) configHash() uint64 {
	h := fnv.New64a()
	put := func(format string, args ...any) { fmt.Fprintf(h, format+"|", args...) }
	hashCfgFields(put, &s.cfg)
	put("jobs=%d", len(s.states))
	var buf []byte
	for i := range s.states {
		buf = appendJob(buf[:0], s.states[i].job)
		h.Write(buf)
	}
	return h.Sum64()
}

// appendJob appends one job's section of the config hash. Its bytes are
// frozen at what fmt wrote for format v4 — "%d,%v,%v,%v,%v,%v|" over
// ID, Submit, Runtime, Procs, Boundness and Deadline, times in
// units.Seconds' display formats of that version — so the hash no
// longer depends on fmt or on later edits to a display method, and
// strconv's appenders write it without fmt's per-call cost.
func appendJob(b []byte, j *workload.Job) []byte {
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, ',')
	b = appendSecondsV4(b, j.Submit)
	b = append(b, ',')
	b = appendSecondsV4(b, j.Runtime)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(j.Procs), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, j.Boundness, 'g', -1, 64) // fmt's %v
	b = append(b, ',')
	b = appendSecondsV4(b, j.Deadline)
	return append(b, '|')
}

// appendSecondsV4 appends s the way units.Seconds.String printed it in
// format v4: two decimals of days or hours, one of minutes or seconds.
func appendSecondsV4(b []byte, s units.Seconds) []byte {
	v := float64(s)
	switch {
	case s >= 86400:
		return append(strconv.AppendFloat(b, v/86400, 'f', 2, 64), " d"...)
	case s >= 3600:
		return append(strconv.AppendFloat(b, v/3600, 'f', 2, 64), " h"...)
	case s >= 60:
		return append(strconv.AppendFloat(b, v/60, 'f', 1, 64), " min"...)
	}
	return append(strconv.AppendFloat(b, v, 'f', 1, 64), " s"...)
}

// hashCfgFields feeds every trajectory-shaping RunConfig field except
// the job set. Checkpoint and Resume are deliberately excluded: where
// and how often a run snapshots does not change what it computes.
// Workers (and test-only naive) are excluded for the same reason —
// execution tiers never change results, so a checkpoint taken at one
// worker count must resume at any other.
func hashCfgFields(put func(string, ...any), cfg *RunConfig) {
	put("cop=%v", cfg.COP)
	put("prices=%v", cfg.Prices)
	put("theta=%v", cfg.FairTheta)
	put("sample=%v", cfg.SampleInterval)
	put("match=%v", cfg.MatchInterval)
	put("nomatch=%v", cfg.DisableMatching)
	put("rebalance=%v", cfg.EnableRebalance)
	put("randomcop=%v", cfg.RandomCOP)
	put("guard=%v", cfg.ScanGuard)
	if cfg.Battery != nil {
		put("battery=%+v", *cfg.Battery)
	}
	if cfg.Online != nil {
		put("online=%+v", *cfg.Online)
	}
	if cfg.Faults != nil {
		put("faults=%+v", *cfg.Faults)
	}
	// A disabled telemetry spec constructs no state and perturbs no
	// decision, so its checkpoints stay interchangeable with the oracle
	// path's; only an active spec pins the hash.
	if cfg.Telemetry != nil && cfg.Telemetry.Enabled() {
		put("telemetry=%+v", *cfg.Telemetry)
	}
	if cfg.Brownout != nil {
		put("brownout=%+v", *cfg.Brownout)
	}
	if cfg.Invariants != nil {
		put("invariants=%+v", *cfg.Invariants)
	}
	if cfg.Wind != nil {
		put("wind=%v/%d", cfg.Wind.Interval, len(cfg.Wind.Samples))
		for _, w := range cfg.Wind.Samples {
			put("%v", w)
		}
	}
}

func (s *sim) snapMeta() snapMeta {
	return snapMeta{
		Scheme:  s.scheme.Name,
		Seed:    s.cfg.Seed,
		Procs:   len(s.dc.Procs),
		Jobs:    len(s.states),
		CfgHash: s.configHash(),
	}
}

// snapshot captures the full simulation state.
func (s *sim) snapshot() (*runSnapshot, error) {
	pending := s.eng.PendingEvents()
	events := make([]snapEvent, 0, len(pending))
	for _, ev := range pending {
		if ev.Closure {
			return nil, fmt.Errorf("scheduler: untagged event at t=%v cannot be checkpointed", ev.At)
		}
		events = append(events, snapEvent{At: ev.At, Seq: ev.Seq, Tag: ev.Tag})
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
		Cluster:       s.dc.CaptureState(func(j *workload.Job) int { return s.stateIdx[j] }),
		Account:       s.account.CaptureState(),
		Rand:          randState,
		EffPref:       append([]int(nil), s.effPref...),
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
		snap.Jobs[i] = jobSnap{Def: *s.states[i].job, Remaining: s.states[i].remaining, Finish: s.states[i].finish}
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
// extending this run's job set. The configured jobs must match the
// snapshot's prefix field-for-field — the identity meta (and the
// config hash over the extended set) is checked around that overlay.
func (s *sim) restore(data []byte) error {
	var snap runSnapshot
	if err := checkpoint.Decode(data, &snap); err != nil {
		return fmt.Errorf("scheduler: resume: %w", err)
	}
	if snap.Meta.Scheme != s.scheme.Name || snap.Meta.Seed != s.cfg.Seed || snap.Meta.Procs != len(s.dc.Procs) {
		return fmt.Errorf("scheduler: resume: snapshot belongs to a different run (snapshot %+v, this run %+v)", snap.Meta, s.snapMeta())
	}
	if len(snap.Jobs) < len(s.states) {
		return fmt.Errorf("scheduler: resume: snapshot has %d jobs, run has %d", len(snap.Jobs), len(s.states))
	}
	for i := range s.states {
		if *s.states[i].job != snap.Jobs[i].Def {
			return fmt.Errorf("scheduler: resume: job %d differs from the snapshot's definition", i)
		}
	}
	for i := len(s.states); i < len(snap.Jobs); i++ {
		// Individually allocated, exactly like InjectJob: live pointers
		// must never move under a growing backing array.
		jp := new(workload.Job)
		*jp = snap.Jobs[i].Def
		s.states = append(s.states, jobState{job: jp})
		s.stateIdx[jp] = i
	}
	if want := s.snapMeta(); snap.Meta != want {
		return fmt.Errorf("scheduler: resume: snapshot belongs to a different run (snapshot %+v, this run %+v)", snap.Meta, want)
	}
	if err := s.r.UnmarshalBinary(snap.Rand); err != nil {
		return fmt.Errorf("scheduler: resume: rng state: %w", err)
	}
	if len(snap.EffPref) != len(s.effPref) {
		return fmt.Errorf("scheduler: resume: effPref length %d, want %d", len(snap.EffPref), len(s.effPref))
	}
	copy(s.effPref, snap.EffPref)
	s.profilesDirty = snap.ProfilesDirty

	slices, err := s.dc.RestoreState(snap.Cluster, func(ref int) (*workload.Job, error) {
		if ref < 0 || ref >= len(s.states) {
			return nil, fmt.Errorf("job ref %d out of range", ref)
		}
		return s.states[ref].job, nil
	})
	if err != nil {
		return fmt.Errorf("scheduler: resume: %w", err)
	}
	s.rebuildSerialIndex(slices)

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
	s.fairValid = false
	// The snapshot carries dirty *flags* but not the dirty id sets the
	// incremental order repairs consume, so every retained order cache
	// is stale: force full rebuilds on first use. (RestoreState already
	// raised the cluster's fair-dirty overflow, which rebuilds every fair
	// shard; these cover the scheduler-side efficiency and slack caches.)
	s.effCacheOK = false
	s.resetEffDirty()

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

	// Rebuild the event queue with original (at, seq) pairs.
	s.eng.Reset(snap.Now, snap.Seq)
	ckptRestored := false
	for _, ev := range snap.Events {
		keep, err := s.validateTag(ev.Tag, slices)
		if err != nil {
			return fmt.Errorf("scheduler: resume: event at t=%v: %w", ev.At, err)
		}
		if !keep {
			continue
		}
		if ev.Tag.Kind == tagCheckpoint {
			ckptRestored = true
		}
		if err := s.eng.InjectTag(ev.At, ev.Seq, ev.Tag); err != nil {
			return fmt.Errorf("scheduler: resume: %w", err)
		}
	}
	// The resumed run may enable checkpointing even when the snapshot
	// holds no pending tick (the original run checkpointed only on
	// cancellation, or not at all).
	if !ckptRestored && s.cfg.Checkpoint != nil && s.cfg.Checkpoint.Every > 0 {
		_ = s.eng.AfterTag(s.cfg.Checkpoint.Every, eventTag{Kind: tagCheckpoint})
	}
	return nil
}

// validateTag vets a pending event against the restored world. keep is
// false for events that are provably no-ops there: a completion or
// margin check whose slice no longer exists, or a checkpoint tick when
// the resumed run disabled checkpointing. Dropping a no-op instead of
// replaying it cannot change the trajectory — the dispatcher guards on
// (serial, gen, running, level) and would return immediately. Kept
// events need no callback rebuilt: the engine routes their tags back
// through the same dispatcher the live run uses.
func (s *sim) validateTag(tag eventTag, slices map[int]*cluster.Slice) (bool, error) {
	switch tag.Kind {
	case tagArrival:
		if tag.A < 0 || int(tag.A) >= len(s.states) {
			return false, fmt.Errorf("arrival index %d out of range", tag.A)
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
		if _, ok := slices[int(tag.A)]; !ok {
			return false, nil // slice completed or replaced; stale no-op
		}
		return true, nil
	case tagFinishScan:
		if tag.A < 0 || int(tag.A) >= len(s.dc.Procs) {
			return false, fmt.Errorf("scan finish for processor %d out of range", tag.A)
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
		if s.faults == nil || tag.A < 0 || int(tag.A) >= len(s.dc.Procs) {
			return false, fmt.Errorf("repair event for processor %d invalid", tag.A)
		}
		return true, nil
	case tagMargin:
		if s.faults == nil {
			return false, fmt.Errorf("margin event with fault injection disabled")
		}
		if _, ok := slices[int(tag.A)]; !ok {
			return false, nil // slice gone; stale no-op
		}
		return true, nil
	case tagReprofiled:
		if s.faults == nil || tag.FPDrift <= 0 {
			return false, fmt.Errorf("reprofile event invalid")
		}
		if tag.A < 0 || int(tag.A) >= len(s.dc.Procs) {
			return false, fmt.Errorf("reprofile event for processor %d out of range", tag.A)
		}
		return true, nil
	}
	return false, fmt.Errorf("unknown event tag kind %d", tag.Kind)
}
