package scheduler

import (
	"context"
	"fmt"
	"math"
	"slices"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/cluster"
	"iscope/internal/faults"
	"iscope/internal/invariants"
	"iscope/internal/metrics"
	"iscope/internal/power"
	"iscope/internal/profiling"
	"iscope/internal/rng"
	"iscope/internal/simulator"
	"iscope/internal/telemetry"
	"iscope/internal/units"
	"iscope/internal/wind"
	"iscope/internal/workload"
)

// RunConfig parametrizes one simulation run.
type RunConfig struct {
	Seed uint64
	// Jobs must have deadlines assigned; the trace is not mutated.
	Jobs *workload.Trace
	// Wind is the renewable budget; nil simulates a utility-power-only
	// datacenter (Figure 5).
	Wind *wind.Trace
	// COP is the cooling coefficient; 0 uses the paper's 2.5.
	COP float64
	// Prices are the energy tariffs; the zero value uses the paper's.
	Prices metrics.Prices
	// FairTheta is ScanFair's wind-abundance threshold: wind counts as
	// abundant when it covers FairTheta x current demand. 0 -> 1.0.
	FairTheta float64
	// SampleInterval enables the Figure 7 power-trace sampler; 0
	// disables sampling.
	SampleInterval units.Seconds
	// MatchInterval is the power-matching period; 0 uses the wind
	// trace's sampling interval (the budget only changes then).
	MatchInterval units.Seconds
	// DisableMatching turns the DVFS supply-tracking loop off, as an
	// ablation.
	DisableMatching bool
	// Battery optionally adds on-site storage: surplus wind charges it
	// and deficits draw from it before the grid. The paper argues
	// large-scale batteries are an inefficient substitute for demand
	// matching (Section II.A); this knob quantifies the comparison.
	Battery *battery.Spec
	// ScanGuard overrides the in-cloud guardband above the scanned
	// MinVdd for Scan schemes (0 uses DefaultScanGuard) — the ablation
	// knob for the guardband sweep.
	ScanGuard units.Volts
	// Online enables in-simulation opportunistic profiling (Section
	// III.C): the datacenter starts on factory-bin knowledge and scans
	// idle processors during low-utilization windows, converging to
	// scan knowledge while serving the workload. Applies to Scan
	// schemes only.
	Online *OnlineProfiling
	// EnableRebalance turns on queued-work migration: at every tick,
	// queued slices whose estimated completion would miss their
	// deadline (queues stretched by DVFS-down matching, or stuck behind
	// a profiling session) are moved to processors where they still
	// fit — the "load migration between nodes" lever of the paper's
	// Section I.
	EnableRebalance bool
	// Faults optionally injects a deterministic fault plan compiled
	// from the spec: processor crash/repair cycles, renewable supply
	// derating windows, scanner false-passes with runtime margin
	// violations, and battery capacity fade. nil — or a spec with no
	// active class — leaves the run bit-identical to a fault-free one.
	Faults *faults.Spec
	// Telemetry optionally inserts the sensor-and-estimation layer
	// between the power model and the scheduler: per-node aggregate
	// sensors with a seed-driven error model, and a power view derived
	// from their readings that every supply-tracking decision (matching,
	// brownout pressure, fairness mode, level selection) flies on. The
	// metrics account and the invariant monitor keep integrating ground
	// truth. nil — or a spec with no active error source — leaves the
	// run bit-identical to the oracle path: perfect sensors carry
	// exactly the information the scheduler's self-model already has,
	// so the layer is elided entirely.
	Telemetry *telemetry.Spec
	// RandomCOP draws each processor's cooling coefficient from the
	// Greenberg et al. distribution the paper cites (normal on
	// [0.6, 3.5], mean COP) instead of using a uniform value —
	// cold-aisle vs hot-aisle placement variability.
	RandomCOP bool
	// Brownout enables the staged graceful-degradation ladder: under a
	// sustained supply deficit the run escalates through forced DVFS
	// down-levels, admission deferral, a battery reserve floor, and
	// priority-ordered load shedding, de-escalating after a recovery
	// dwell (see internal/brownout). Requires a wind trace. A pointer to
	// the zero Config selects the defaults.
	Brownout *brownout.Config
	// Invariants enables the online runtime-verification monitor:
	// energy conservation, SoC bounds, slice conservation, event-clock
	// monotonicity, and shed accounting are checked inside the event
	// loop. FailFast aborts the run on the first violation; Record
	// collects them into Result.Invariants. The monitor only reads
	// state, so enabling it never changes a run's results.
	Invariants *invariants.Config
	// Checkpoint enables periodic snapshots of the full simulation
	// state. Snapshots are transparent: a checkpointed run produces
	// results bit-identical to an unchecked one.
	Checkpoint *CheckpointConfig
	// Resume restores a snapshot produced by an earlier run with an
	// identical configuration; the run continues from the captured time
	// and finishes with results bit-identical to the uninterrupted run.
	Resume []byte
	// Workers is ignored: every kernel runs on the event goroutine. The
	// repository benchmark still sets it, so it stays until a change to
	// that benchmark deletes it. Negative values are refused as before,
	// and like naive it is excluded from the config hash.
	Workers int

	// naive switches the scheduler's hot paths to the retained reference
	// implementations (full re-sorts, fresh scratch allocations, no
	// memoized power) — the oracle the equivalence tests compare the
	// optimized paths against, byte for byte. Test-only, hence
	// unexported; it is excluded from the config hash because it must
	// not change any result.
	naive bool
}

// CheckpointConfig controls snapshotting. Every is the virtual-time
// period between snapshots (0 disables periodic snapshots; a final one
// is still written on cancellation). Sink receives each encoded
// snapshot; a sink error fails the run.
type CheckpointConfig struct {
	Every units.Seconds
	Sink  func([]byte) error
}

// OnlineProfiling configures in-simulation opportunistic scanning.
type OnlineProfiling struct {
	// Test selects the stability routine; the zero value is the
	// 29-second functional failing test.
	Test profiling.TestKind
	// TestPower is the draw of a processor under test (0 -> 115 W).
	TestPower units.Watts
	// UtilThreshold is the busy fraction (running + under test) below
	// which profiling may proceed (0 -> 0.3, Figure 10's line).
	UtilThreshold float64
	// MaxConcurrentFrac caps the fleet fraction under test at once
	// (0 -> 0.1).
	MaxConcurrentFrac float64
	// RequireWind gates profiling on renewable availability, as the
	// paper's stage-1 flow prescribes; ignored in utility-only runs.
	RequireWind bool
}

func (o *OnlineProfiling) withDefaults() OnlineProfiling {
	out := *o
	if out.TestPower == 0 {
		out.TestPower = 115
	}
	if out.UtilThreshold == 0 {
		out.UtilThreshold = 0.3
	}
	if out.MaxConcurrentFrac == 0 {
		out.MaxConcurrentFrac = 0.1
	}
	return out
}

// Result aggregates one run's measurements.
type Result struct {
	Scheme string

	UtilityEnergy units.Joules
	WindEnergy    units.Joules
	WindAvailable units.Joules
	TotalEnergy   units.Joules

	Cost        units.USD
	UtilityCost units.USD

	JobsCompleted      int
	DeadlineViolations int
	Makespan           units.Seconds

	// Scheduling-quality metrics over completed jobs. Slowdown is the
	// bounded slowdown (finish - submit) / max(runtime, 10 s); waits
	// measure submit-to-completion beyond the nominal runtime.
	MeanSlowdown float64
	P95Slowdown  float64
	MeanWait     units.Seconds

	// UtilTimes is each processor's total busy time; UtilVariance is
	// its population variance in hours^2 (Figure 9's metric).
	UtilTimes    []units.Seconds
	UtilVariance float64

	WindUtilization float64

	// Battery flows (zero without a battery): wind-side energy
	// absorbed, load-side energy served, and the stranded final charge.
	BatteryCharged   units.Joules
	BatteryDelivered units.Joules
	BatteryFinalSoC  units.Joules

	// Online-profiling outcomes (zero unless RunConfig.Online is set):
	// chips fully profiled during the run and the test energy spent.
	ProfiledChips   int
	ProfilingEnergy units.Joules

	// Trace is the sampled power series (empty unless sampling enabled).
	Trace []metrics.TracePoint

	// CompletedWork is the total slice work finished, in CPU-seconds at
	// the top DVFS level (one job runtime per completed slice);
	// CompletedSlices counts them. Together with Faults.LostWork these
	// support work-conservation checks under fault injection.
	CompletedWork   units.Seconds
	CompletedSlices int

	// Faults is the fault-injection ledger (zero when disabled).
	Faults metrics.FaultStats

	// Brownout is the degradation ledger (zero when the ladder is
	// disabled); Invariants is the online monitor's report (zero when
	// the monitor is disabled).
	Brownout   metrics.BrownoutStats
	Invariants invariants.Report

	// Telemetry is the sensor layer's ledger (zero when disabled).
	Telemetry metrics.TelemetryStats
}

type jobState struct {
	job       *workload.Job
	remaining int
	finish    units.Seconds
}

type sim struct {
	eng    *simulator.Engine[engineTag]
	dc     *cluster.Datacenter
	fleet  *Fleet
	know   Knowledge
	scheme Scheme
	cfg    RunConfig

	r             *rng.Rand
	effPref       []int // efficiency preference order
	profilesDirty bool  // effPref stale after new scan results
	// effResorted marks an effPref that online profiling has re-sorted
	// away from the order newSim builds; until then snapshots omit it.
	effResorted bool

	// Online profiling state (nil scanner when disabled).
	online       OnlineProfiling
	onlineActive bool
	scanner      *profiling.Scanner
	db           *profiling.DB // online profile DB, checkpointed
	scanState    []byte        // 0 untouched, 1 in progress, 2 done
	scanLeft     int
	scanDur      units.Seconds
	profEnergy   units.Joules
	profiled     int

	account *metrics.Account
	sampler *metrics.Sampler
	curWind units.Watts
	// nominalWind is the un-derated trace value; curWind is what the
	// farm actually delivers under the current fault factor.
	nominalWind units.Watts

	// faults is the active fault-injection state, nil when disabled.
	faults *faultState

	// telem is the sensor-and-estimation layer, nil when disabled.
	telem *telemState

	// brown is the brownout ladder's runtime, nil when disabled; mon is
	// the invariant monitor, nil when disabled. invErr latches the first
	// fail-fast violation and aborts the event loop.
	brown  *brownoutState
	mon    *invariants.Monitor
	invErr error

	// batchHalt is the engine's mid-batch stop predicate, bound once at
	// construction so the hot loop passes a preallocated closure. It is
	// true exactly when a single-step driver would abandon the queue for
	// good: the stream sealed with every job finished, or a fail-fast
	// invariant latched.
	batchHalt func() bool

	workDone   units.Seconds // completed slice work at the top level
	slicesDone int

	jobsLeft   int
	violations int
	states     []jobState
	stateIdx   map[*workload.Job]int

	// open marks a streaming run whose job stream has not been sealed:
	// more jobs may still arrive through InjectJob, so the periodic
	// ticks keep re-arming even when no known job is in flight. Batch
	// runs are born sealed. The flag compensates exactly for the jobs a
	// batch run would already count in jobsLeft: while a hypothetical
	// batch run of the full stream still has pending work, the streaming
	// run either has jobsLeft > 0 too or is still open — either way
	// moreWork agrees and the tick cadence is identical.
	open bool

	// sliceSeq issues checkpoint-stable slice serial numbers.
	sliceSeq int
	// bySerial resolves a completion/margin event's serial to its live
	// slice — the event queue stores only serializable tags, and this
	// index is how the dispatcher gets back to the object. Serials are
	// issued densely by sliceSeq, so a slice indexed by serial replaces
	// the previous map (and its hash/assign/delete cost on every
	// placement and completion). Entries are set at placement and
	// cleared at completion, so a nil (or out-of-range) entry means the
	// event is stale and a no-op. On resume it is rebuilt from the
	// restored cluster state.
	bySerial []*cluster.Slice
	// arena bulk-allocates slices; entries are never recycled within a
	// run, so slice pointers behave exactly like individual allocations.
	arena cluster.SliceArena
	// tickInterval is the period of the wind/aux tick, stored so a
	// restored tick event can re-arm itself.
	tickInterval units.Seconds
	// ckptErr latches the first snapshot/sink failure; it fails the run
	// after the event loop drains.
	ckptErr error

	// Scratch buffers reused across events; all steady-state
	// allocation-free. takenMark is an epoch-stamped membership set
	// (takenMark[id] == takenEpoch means taken this placement) that
	// replaces a per-placement map.
	runBuf     []*cluster.Slice
	runSorted  []*cluster.Slice
	availBuf   []procAvail
	placeBuf   []placement
	takenMark  []int64
	takenEpoch int64
	slackBuf   []slackEntry
	changedBuf []*cluster.Slice
	candBuf    []rebalCand
	slowsBuf   []float64
	permBuf    []int
	effKeys    []effKey

	// fair is the retained least-used order (see fair.go) and endanger
	// rebalance's per-processor candidate counts (see rebalance.go);
	// naive mode leaves both unused. They hold derived caches, never
	// simulation state, so checkpoints ignore them entirely.
	fair     fairState
	endanger endangerIndex

	// counters count the run's work by layer (see Counters). Like the
	// caches above they stay out of checkpoints.
	counters Counters
	// onRebalCands, when set, sees each tick's sorted rebalance
	// candidates before any migrates. It is a test seam; runs leave it
	// nil.
	onRebalCands func(cands []rebalCand)
}

type procAvail struct {
	id    int
	avail units.Seconds
}

// utilKey pairs a processor with its utilization key: a computed busy
// key in the fair order's busy window (see busyHead).
type utilKey struct {
	u  units.Seconds
	id int
}

// slackEntry keys a running slice, by its processor, with its deadline
// slack, computed once before the matching sort. Pointer-free on
// purpose: the sort's O(n log n) swaps then move plain scalars with no
// GC write barriers, and only the final O(n) writeback touches pointer
// memory.
type slackEntry struct {
	slack  units.Seconds
	procID int32 // deadline tiebreak; one running slice per processor
}

// effKey carries a processor's efficiency rank and tiebreak position,
// precomputed so the preference re-sort calls EffRank n times instead
// of O(n log n) times (Hybrid's rank does a DB lookup per call).
type effKey struct {
	rank float64
	pos  int32
	id   int32
}

// Run simulates one scheme over the fleet and workload.
func Run(fleet *Fleet, scheme Scheme, cfg RunConfig) (*Result, error) {
	return RunCtx(context.Background(), fleet, scheme, cfg)
}

// RunCtx simulates one scheme under a context. It is a thin driver
// over the step primitives (see Stepper): build the stepper with the
// whole trace pre-injected and the stream sealed, fire events (one
// same-timestamp batch per engine call, see ProcessEventBatch) until
// every job finishes, assemble the result. Cancellation is
// cooperative: the event loop checks the context between batches, and a
// canceled run writes a final snapshot to the checkpoint sink (when
// one is configured) before returning the context's error, so the work
// done so far can be resumed.
func RunCtx(ctx context.Context, fleet *Fleet, scheme Scheme, cfg RunConfig) (*Result, error) {
	st, err := newStepper(fleet, scheme, cfg, false)
	if err != nil {
		return nil, err
	}
	for st.s.jobsLeft > 0 {
		if err := ctx.Err(); err != nil {
			// Flush a final snapshot so the interrupted work is resumable.
			if st.s.cfg.Checkpoint != nil {
				st.s.emitCheckpoint()
			}
			cause := fmt.Errorf("scheduler: run canceled at t=%v with %d jobs unfinished: %w", st.s.eng.Now(), st.s.jobsLeft, err)
			if st.s.ckptErr != nil {
				return nil, fmt.Errorf("%w (final checkpoint failed: %v)", cause, st.s.ckptErr)
			}
			return nil, cause
		}
		fired, err := st.ProcessEventBatch()
		if err != nil || fired == 0 {
			break
		}
	}
	return st.Result()
}

// newSim builds a fully armed simulation: knowledge regime, datacenter,
// fault plan, arrival and tick events. The construction order (and in
// particular the sequence of random draws) is part of the determinism
// contract — restore() assumes a fresh sim consumed exactly the draws
// the original run's construction did.
//
// streaming opens the job stream: the initial trace (possibly empty)
// only seeds the run, later jobs may arrive through InjectJob until the
// stream is sealed, and the periodic ticks stay armed while the stream
// is open even when no injected job is in flight.
func newSim(fleet *Fleet, scheme Scheme, cfg RunConfig, streaming bool) (*sim, error) {
	if fleet == nil || len(fleet.Chips) == 0 {
		return nil, &ConfigError{Field: "Fleet", Reason: "nil or empty fleet"}
	}
	if err := cfg.validate(streaming); err != nil {
		return nil, err
	}
	if cfg.COP == 0 {
		cfg.COP = 2.5
	}
	if cfg.Prices == (metrics.Prices{}) {
		cfg.Prices = metrics.DefaultPrices()
	}
	if cfg.FairTheta == 0 {
		cfg.FairTheta = 1.0
	}

	guard := cfg.ScanGuard
	if guard == 0 {
		guard = DefaultScanGuard
	}
	var (
		know     Knowledge
		err      error
		scanner  *profiling.Scanner
		onlineDB *profiling.DB
		scanDur  units.Seconds
	)
	switch {
	case cfg.Online != nil && scheme.Knowledge == KnowScan:
		// Start on factory knowledge with an empty profile DB; the
		// opportunistic scanner fills it during the run.
		db := profiling.NewDB(len(fleet.Chips), fleet.PM.Table.NumLevels())
		onlineDB = db
		know, err = NewHybridKnowledge(fleet.Chips, fleet.PM, fleet.Binning, db, guard)
		if err != nil {
			return nil, err
		}
		online := cfg.Online.withDefaults()
		pcfg := profiling.DefaultConfig()
		pcfg.Kind = online.Test
		pcfg.TestPower = online.TestPower
		pcfg.Exhaustive = true // fixed, predictable session length
		tester := profiling.NewTester(fleet.Chips, scanTable{fleet.PM.Table}, 0, rng.Named(cfg.Seed, "online-scan"))
		scanner, err = profiling.NewScanner(pcfg, tester, scanTable{fleet.PM.Table}, db)
		if err != nil {
			return nil, err
		}
		scanDur = units.Seconds(float64(online.Test.Duration()) *
			float64(fleet.PM.Table.NumLevels()*pcfg.VoltagePoints))
	case scheme.Knowledge == KnowScan && cfg.ScanGuard > 0:
		know, err = NewScanKnowledge(fleet.Chips, fleet.PM, fleet.DB, cfg.ScanGuard)
	default:
		know, err = fleet.Knowledge(scheme.Knowledge)
	}
	if err != nil {
		return nil, err
	}
	var fstate *faultState
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		fstate, err = newFaultState(cfg, fleet, guard)
		if err != nil {
			return nil, err
		}
	}
	volt := func(id, l int) units.Volts { return know.Vdd(id, l) }
	if fstate != nil {
		levels := fleet.PM.Table.NumLevels()
		volt = func(id, l int) units.Volts {
			if v := fstate.override[id*levels+l]; v > 0 {
				return v
			}
			return know.Vdd(id, l)
		}
	}
	var dc *cluster.Datacenter
	if cfg.RandomCOP {
		copRand := rng.Named(cfg.Seed, "cop")
		cops := make([]float64, len(fleet.Chips))
		for i := range cops {
			cops[i] = copRand.TruncNormal(cfg.COP, 0.7, power.COPRange[0], power.COPRange[1])
		}
		dc, err = cluster.NewWithCOPs(fleet.Chips, fleet.PM, volt, cops)
	} else {
		dc, err = cluster.New(fleet.Chips, fleet.PM, volt, cfg.COP)
	}
	if err != nil {
		return nil, err
	}

	var initialJobs []workload.Job
	if cfg.Jobs != nil {
		initialJobs = cfg.Jobs.Jobs
	}

	s := &sim{
		dc:        dc,
		fleet:     fleet,
		know:      know,
		scheme:    scheme,
		cfg:       cfg,
		r:         rng.Named(cfg.Seed, "sim-"+scheme.Name),
		account:   metrics.NewAccount(0),
		faults:    fstate,
		bySerial:  make([]*cluster.Slice, 0, 2*len(fleet.Chips)),
		takenMark: make([]int64, len(fleet.Chips)),
	}
	// Pending events peak at the not-yet-arrived jobs plus one
	// completion per processor and a few ticks. The arrivals, pushed up
	// front in trace order, append to the engine's in-order run;
	// completions and ticks land between them, before the run's tail,
	// and take the heap. Naive and optimized runs share this engine.
	s.eng = simulator.NewWithCapacity(s.dispatch, len(initialJobs), len(fleet.Chips)+16)
	if cfg.naive {
		dc.DisablePowerCache()
	}
	if cfg.Battery != nil {
		b, err := battery.New(*cfg.Battery)
		if err != nil {
			return nil, err
		}
		s.account.Battery = b
	}
	if cfg.Invariants != nil {
		s.mon = invariants.New(*cfg.Invariants)
	}
	if cfg.Brownout != nil {
		s.brown, err = newBrownoutState(*cfg.Brownout, len(fleet.Chips))
		if err != nil {
			return nil, err
		}
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Enabled() {
		s.telem, err = newTelemState(cfg, fleet)
		if err != nil {
			return nil, err
		}
	}
	if scanner != nil {
		s.onlineActive = true
		s.online = cfg.Online.withDefaults()
		s.scanner = scanner
		s.db = onlineDB
		s.scanDur = scanDur
		s.scanState = make([]byte, len(fleet.Chips))
		s.scanLeft = len(fleet.Chips)
	}
	// Static efficiency order; the shuffled tiebreak spreads load across
	// chips the knowledge regime cannot distinguish (within a bin).
	s.effPref = effOrder(len(fleet.Chips), know, s.r.Perm(len(fleet.Chips)))

	if cfg.SampleInterval > 0 {
		s.sampler = metrics.NewSampler(cfg.SampleInterval)
	}

	// Arrivals. Every arrival — pre-scheduled here or injected mid-run
	// through InjectJob — carries sequence number jobIndex+1 inside the
	// reserved band below arrivalSeqBase, while the engine counter issues
	// everything else (ticks, completions) above the band. Same-timestamp
	// tie-breaking between an arrival and any other event is therefore a
	// pure function of the job index, independent of *when* the arrival
	// entered the queue: a job injected late merges into exactly the
	// position a batch run would have given it.
	s.open = streaming
	s.states = make([]jobState, len(initialJobs))
	s.stateIdx = make(map[*workload.Job]int, len(initialJobs))
	s.jobsLeft = len(initialJobs)
	s.eng.SkipTo(arrivalSeqBase)
	for i := range initialJobs {
		j := &initialJobs[i]
		// remaining is set at arrival once the placement width is known
		// (jobs wider than the fleet are clamped to one slice per CPU).
		s.states[i] = jobState{job: j}
		s.stateIdx[j] = i
		if err := s.injectArrival(i); err != nil {
			return nil, err
		}
	}

	// Wind budget / matching / profiling ticks.
	if cfg.Wind != nil {
		s.nominalWind = cfg.Wind.At(0)
		s.curWind = s.nominalWind
		s.tickInterval = cfg.MatchInterval
		if s.tickInterval <= 0 {
			s.tickInterval = cfg.Wind.Interval
		}
		_ = s.eng.ScheduleTag(0, engineTag{Kind: tagWindTick})
	} else if s.onlineActive || cfg.EnableRebalance {
		// Utility-only run with online profiling or rebalancing: give
		// them their own periodic opportunity check.
		s.tickInterval = cfg.MatchInterval
		if s.tickInterval <= 0 {
			s.tickInterval = units.Minutes(10)
		}
		_ = s.eng.ScheduleTag(0, engineTag{Kind: tagAuxTick})
	}

	// Sampler ticks.
	if s.sampler != nil {
		_ = s.eng.ScheduleTag(0, engineTag{Kind: tagSample})
	}

	// Sensor sampling ticks. The first read waits one interval: at t=0
	// nothing runs, so there is no power to estimate yet.
	if s.telem != nil {
		_ = s.eng.AfterTag(s.telem.spec.SampleInterval, engineTag{Kind: tagTelemetry})
	}

	// Fault plan events (no-op schedule when faults are disabled).
	if s.faults != nil {
		s.scheduleFaultEvents()
	}

	// Periodic checkpoint ticks. On resume the pending tick (captured
	// inside the snapshot) is restored instead; restore arms a fresh one
	// only when the snapshot holds none.
	if cfg.Resume == nil && cfg.Checkpoint != nil && cfg.Checkpoint.Every > 0 {
		_ = s.eng.AfterTag(cfg.Checkpoint.Every, engineTag{Kind: tagCheckpoint})
	}

	s.batchHalt = func() bool { return (!s.open && s.jobsLeft == 0) || s.invErr != nil }

	return s, nil
}

// trace returns the configured trace: the jobs whose definitions and
// pending arrivals a snapshot leaves to the configuration.
func (s *sim) trace() []workload.Job {
	if s.cfg.Jobs == nil {
		return nil
	}
	return s.cfg.Jobs.Jobs
}

// injectArrival queues job idx's arrival at its Submit time with
// sequence number idx+1, inside the reserved arrival band.
func (s *sim) injectArrival(idx int) error {
	return s.eng.InjectTag(s.states[idx].job.Submit, uint64(idx)+1, engineTag{Kind: tagArrival, A: int32(idx)})
}

// moreWork reports whether the run still has (or may still receive)
// work: known jobs in flight, or a streaming stream that has not been
// sealed. Periodic ticks re-arm on this condition.
func (s *sim) moreWork() bool { return s.jobsLeft > 0 || s.open }

// assembleResult settles the final integrals and builds the Result. It
// must run exactly once, at the instant the last job completes — the
// finalize passes advance accumulators and would double-count if
// repeated.
func (s *sim) assembleResult() (*Result, error) {
	s.sync(s.eng.Now())
	if s.faults != nil {
		s.finalizeFaults(s.eng.Now())
	}
	if s.brown != nil {
		s.finalizeBrownout(s.eng.Now())
	}
	if s.telem != nil {
		s.finalizeTelemetry(s.eng.Now())
	}
	s.finishInvariants(s.eng.Now())
	if s.invErr != nil {
		return nil, s.invErr
	}

	utils := s.dc.UtilTimes(s.eng.Now())
	res := &Result{
		Scheme:             s.scheme.Name,
		UtilityEnergy:      s.account.Utility,
		WindEnergy:         s.account.WindUsed,
		WindAvailable:      s.account.WindAvailable,
		TotalEnergy:        s.account.Total(),
		Cost:               s.account.Cost(s.cfg.Prices),
		UtilityCost:        s.account.UtilityCost(s.cfg.Prices),
		JobsCompleted:      len(s.states),
		DeadlineViolations: s.violations,
		Makespan:           s.eng.Now(),
		UtilTimes:          utils,
		UtilVariance:       metrics.Variance(utils) / (3600 * 3600),
		WindUtilization:    s.account.WindUtilization(),
		BatteryCharged:     s.account.BatteryCharged,
		BatteryDelivered:   s.account.BatteryDelivered,
		ProfiledChips:      s.profiled,
		ProfilingEnergy:    s.profEnergy,
		CompletedWork:      s.workDone,
		CompletedSlices:    s.slicesDone,
	}
	if s.faults != nil {
		res.Faults = s.faults.stats
	}
	if s.brown != nil {
		res.Brownout = s.brown.stats
	}
	if s.mon != nil {
		res.Invariants = s.mon.Report()
	}
	if s.telem != nil {
		res.Telemetry = s.telem.stats
	}
	res.MeanSlowdown, res.P95Slowdown, res.MeanWait = s.qualityMetrics()
	if s.account.Battery != nil {
		res.BatteryFinalSoC = s.account.Battery.SoC()
	}
	if s.sampler != nil {
		res.Trace = s.sampler.Points
	}
	return res, nil
}

// dispatch routes a fired tag event to its handler — the single live
// counterpart of the restore-path tag validation, so an event behaves
// identically whether it fires in the original run or after a resume.
// Completion and margin events resolve their slice through the serial
// index; a missing serial means the slice already completed and the
// event is a stale no-op.
func (s *sim) dispatch(tag engineTag, now units.Seconds) {
	switch tag.Kind {
	case tagArrival:
		s.onArrival(int(tag.A), now)
	case tagWindTick:
		s.onWindTick(now)
	case tagAuxTick:
		s.onAuxTick(now)
	case tagSample:
		s.onSample(now)
	case tagTelemetry:
		s.onTelemetry(now)
	case tagCheckpoint:
		s.onCheckpointTick(now)
	case tagCompletion:
		if sl := s.sliceFor(int(tag.A)); sl != nil {
			s.onComplete(sl, int(tag.B), now)
		}
	case tagFinishScan:
		s.finishScan(int(tag.A), now)
	case tagFaultEvent:
		s.onFaultEvent(int(tag.A), now)
	case tagRepaired:
		s.onRepaired(int(tag.A), now)
	case tagMargin:
		if sl := s.sliceFor(int(tag.A)); sl != nil {
			s.onMarginViolation(sl, int(tag.B), int(tag.C), now)
		}
	case tagReprofiled:
		s.onReprofiled(int(tag.A), now)
	default:
		panic(fmt.Sprintf("scheduler: dispatch of unknown tag kind %d", tag.Kind))
	}
}

// sliceFor resolves an event serial to its live slice; nil means the
// slice already completed and the event is stale.
func (s *sim) sliceFor(serial int) *cluster.Slice {
	if serial >= 0 && serial < len(s.bySerial) {
		return s.bySerial[serial]
	}
	return nil
}

// indexSlice registers a freshly placed slice in the serial index,
// growing it to cover the serial.
func (s *sim) indexSlice(sl *cluster.Slice) {
	for len(s.bySerial) <= sl.Serial {
		s.bySerial = append(s.bySerial, nil)
	}
	s.bySerial[sl.Serial] = sl
}

// rebuildSerialIndex reloads the serial index from a restored cluster
// state.
func (s *sim) rebuildSerialIndex(live map[int]*cluster.Slice) {
	s.bySerial = s.bySerial[:0]
	for serial, sl := range live {
		for len(s.bySerial) <= serial {
			s.bySerial = append(s.bySerial, nil)
		}
		s.bySerial[serial] = sl
	}
}

// sync integrates energy up to now at the current demand and wind.
func (s *sim) sync(now units.Seconds) {
	if s.faults != nil {
		s.faultAdvance(now)
	}
	s.account.Advance(now, s.dc.Demand(), s.curWind)
	s.checkInvariants(now, false)
}

// onWindTick is the periodic wind-budget/matching event; it re-arms
// itself while jobs remain.
func (s *sim) onWindTick(now units.Seconds) {
	s.onTick(now)
	if s.moreWork() {
		_ = s.eng.AfterTag(s.tickInterval, engineTag{Kind: tagWindTick})
	}
}

// onAuxTick is the utility-only periodic opportunity check for online
// profiling and rebalancing.
func (s *sim) onAuxTick(now units.Seconds) {
	s.counters.Ticks++
	s.sync(now)
	s.maybeProfile(now)
	if s.cfg.EnableRebalance {
		s.rebalance(now)
	}
	if s.moreWork() && (s.cfg.EnableRebalance || s.scanLeft > 0) {
		_ = s.eng.AfterTag(s.tickInterval, engineTag{Kind: tagAuxTick})
	}
}

// onSample records one power-trace point and re-arms.
func (s *sim) onSample(now units.Seconds) {
	s.sync(now)
	s.sampler.Record(now, s.curWind, s.dc.Demand())
	if s.moreWork() {
		_ = s.eng.AfterTag(s.sampler.Interval, engineTag{Kind: tagSample})
	}
}

// onCheckpointTick snapshots the run. The next tick is armed before
// the snapshot is taken, so it is captured inside the snapshot and a
// resumed run keeps checkpointing on the original cadence. The tick
// deliberately does not sync() the energy account: advancing the
// integrals here would split integration intervals differently from an
// unchecked run and push the floats off bit-identity.
func (s *sim) onCheckpointTick(now units.Seconds) {
	if s.moreWork() {
		_ = s.eng.AfterTag(s.cfg.Checkpoint.Every, engineTag{Kind: tagCheckpoint})
	}
	s.emitCheckpoint()
}

// onArrival admits job idx — unless the brownout ladder is holding new
// deferrable work, in which case the job waits for a release.
func (s *sim) onArrival(idx int, now units.Seconds) {
	s.sync(now)
	if s.brown != nil && s.brownoutDefer(idx, now) {
		return
	}
	s.place(idx, now)
}

// place puts job idx's slices on processors and starts idle ones.
func (s *sim) place(idx int, now units.Seconds) {
	j := s.states[idx].job
	placements := s.selectProcs(j, now)
	s.states[idx].remaining = len(placements)
	for _, p := range placements {
		var sl *cluster.Slice
		if s.cfg.naive {
			sl = cluster.NewSlice(j, p.id, p.level)
		} else {
			sl = s.arena.New(j, p.id, p.level)
		}
		sl.Serial = s.sliceSeq
		s.sliceSeq++
		s.indexSlice(sl)
		if started := s.dc.Enqueue(sl, now); started != nil {
			s.scheduleCompletion(started)
		}
	}
}

type placement struct {
	id    int
	level int
}

// selectProcs implements the placement policies. It walks the policy's
// preference order taking feasible processors (deadline met given the
// queue backlog), and falls back to the earliest-available processors
// when fewer than the requested number are feasible. The returned slice
// aliases a scratch buffer valid until the next call. The fallback pops
// the k earliest-available processors off a binary heap instead of
// fully sorting the remainder — the heap's (avail, id) order is a
// strict total order, so the popped prefix is exactly the prefix of the
// full sort the reference implementation does.
func (s *sim) selectProcs(j *workload.Job, now units.Seconds) []placement {
	if s.cfg.naive {
		return s.naiveSelectProcs(j, now)
	}
	n := j.Procs
	if n > s.dc.Len() {
		n = s.dc.Len()
	}
	abundant := s.scheme.Policy == FairPolicy && s.windAbundant()
	it := s.candidateIter(now, abundant)
	out := s.placeBuf[:0]
	s.takenEpoch++
	epoch := s.takenEpoch

	for len(out) < n {
		id, ok := it.next()
		if !ok {
			break
		}
		avail := s.dc.AvailableAt(id, now)
		maxTime := units.Seconds(0)
		if j.Deadline > 0 {
			maxTime = j.Deadline - avail
			if maxTime <= 0 {
				continue
			}
		}
		level, ok := s.chooseLevel(id, j, maxTime, abundant)
		if !ok {
			continue
		}
		out = append(out, placement{id: id, level: level})
		s.takenMark[id] = epoch
	}

	if len(out) < n {
		// Not enough feasible processors: place the remainder on the
		// earliest-available untaken ones at the top level (deadline
		// violations are recorded at completion).
		h := s.availBuf[:0]
		for id := range s.dc.Len() {
			if s.takenMark[id] != epoch {
				h = append(h, procAvail{id: id, avail: s.dc.AvailableAt(id, now)})
			}
		}
		s.availBuf = h
		heapifyAvail(h)
		top := s.fleet.PM.Table.Top()
		for len(out) < n && len(h) > 0 {
			var pa procAvail
			h, pa = popAvail(h)
			out = append(out, placement{id: pa.id, level: top})
		}
	}
	s.placeBuf = out
	return out
}

// availLess orders the fallback heap by earliest availability, ties by
// processor id — a strict total order.
func availLess(a, b procAvail) bool {
	if a.avail != b.avail {
		return a.avail < b.avail
	}
	return a.id < b.id
}

func heapifyAvail(h []procAvail) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownAvail(h, i)
	}
}

func siftDownAvail(h []procAvail, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && availLess(h[r], h[l]) {
			m = r
		}
		if !availLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func popAvail(h []procAvail) ([]procAvail, procAvail) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	siftDownAvail(h, 0)
	return h, top
}

// candidateOrder returns the policy's processor preference order. The
// Random policy's permutation lands in a reused buffer; PermInto
// consumes the stream exactly as Perm does, so the draw sequence is
// unchanged.
func (s *sim) candidateOrder(now units.Seconds, abundant bool) []int {
	switch s.scheme.Policy {
	case Efficiency:
		return s.efficiencyOrder()
	case FairPolicy:
		if abundant {
			// Only the naive path asks for the whole order; placement
			// streams it through candidateIter.
			return s.naiveLeastUsedOrder(now)
		}
		return s.efficiencyOrder()
	default:
		if s.cfg.naive {
			return s.r.Perm(s.dc.Len())
		}
		if s.permBuf == nil {
			s.permBuf = make([]int, s.dc.Len())
		}
		s.r.PermInto(s.permBuf)
		return s.permBuf
	}
}

// efficiencyOrder returns the efficiency preference order, re-sorting
// it when online profiling has refined the knowledge since the last
// use. The re-sort keys every processor by (EffRank, current position)
// in the reused effKeys buffer: the current order serves as its own
// tiebreak, the evolution effOrder implements, and because positions
// form a permutation the keys are all distinct, so the unstable sort
// equals effOrder's stable one.
func (s *sim) efficiencyOrder() []int {
	if !s.profilesDirty {
		return s.effPref
	}
	if s.cfg.naive {
		s.effPref = effOrder(s.dc.Len(), s.know, s.effPref)
	} else {
		if s.effKeys == nil {
			s.effKeys = make([]effKey, len(s.effPref))
		}
		for i, id := range s.effPref {
			s.effKeys[i] = effKey{rank: s.know.EffRank(id), pos: int32(i), id: int32(id)}
		}
		slices.SortFunc(s.effKeys, effCmp)
		for i, k := range s.effKeys {
			s.effPref[i] = int(k.id)
		}
	}
	s.profilesDirty = false
	s.effResorted = true
	return s.effPref
}

// effCmp orders (rank ascending, previous position, id), a strict
// order. efficiencyOrder keys positions that form a permutation, so the
// id decides only in effOrder, whose tiebreak positions may repeat.
func effCmp(a, b effKey) int {
	if a.rank != b.rank {
		if a.rank < b.rank {
			return -1
		}
		return 1
	}
	if a.pos != b.pos {
		return int(a.pos) - int(b.pos)
	}
	return int(a.id) - int(b.id)
}

// windAbundant implements ScanFair's mode switch: renewable power
// covers FairTheta x the current demand. With no demand yet, any
// positive wind counts as abundant. FairTheta = +Inf disables the
// fairness mode entirely (an ablation knob).
func (s *sim) windAbundant() bool {
	if s.cfg.Wind == nil || s.curWind <= 0 || math.IsInf(s.cfg.FairTheta, 1) {
		return false
	}
	return float64(s.curWind) >= s.cfg.FairTheta*float64(s.viewDemand())
}

// candIter streams a candidate order. The fair-abundant path pulls
// from a fair pass begun for this placement alone (fairState.next), so a
// placement over a mostly-idle million-processor fleet touches dozens of
// entries, not the fleet. All other policies wrap the eagerly built
// slice.
type candIter struct {
	s     *sim // non-nil: pull from the fair pass
	fixed []int
	pos   int
}

// candidateIter begins the placement's candidate order. Every emission
// of the fair pass follows the (utilization, id) strict total order the
// naive reference sorts, so both yield the same permutation bit for bit.
func (s *sim) candidateIter(now units.Seconds, abundant bool) candIter {
	if abundant && s.scheme.Policy == FairPolicy && !s.cfg.naive {
		s.fair.pass(s.dc, now)
		return candIter{s: s}
	}
	return candIter{fixed: s.candidateOrder(now, abundant)}
}

func (it *candIter) next() (int, bool) {
	if it.s != nil {
		return it.s.fair.next(it.s.dc)
	}
	if it.pos >= len(it.fixed) {
		return 0, false
	}
	id := it.fixed[it.pos]
	it.pos++
	return id, true
}

func utilAsc(a, b utilKey) int {
	if a.u != b.u {
		if a.u < b.u {
			return -1
		}
		return 1
	}
	return a.id - b.id
}

// chooseLevel picks the slice's starting DVFS level on processor id.
// Random policy runs at the requested (top) frequency; Effi and Fair
// pick the level minimizing believed energy under the deadline. In
// Fair's wind-abundant mode the slice runs at full speed instead —
// power consumption rises, but the marginal energy is cheap wind
// (Section IV.B: "Power consumption is increased in this case but the
// renewable energy is generally cheaper").
func (s *sim) chooseLevel(id int, j *workload.Job, maxTime units.Seconds, abundant bool) (int, bool) {
	pm := s.fleet.PM
	top := pm.Table.Top()
	if s.scheme.Policy == Random || abundant {
		if maxTime > 0 && pm.ExecTime(j.Runtime, j.Boundness, top) > maxTime {
			return top, false
		}
		return top, true
	}
	best := -1
	bestE := math.Inf(1)
	for l := 0; l < pm.Table.NumLevels(); l++ {
		t := pm.ExecTime(j.Runtime, j.Boundness, l)
		if maxTime > 0 && t > maxTime {
			continue
		}
		e := float64(s.estPower(id, l)) * float64(t)
		if e < bestE {
			bestE = e
			best = l
		}
	}
	if best < 0 {
		return top, false
	}
	return best, true
}

// scheduleCompletion arms the completion event for a running slice,
// guarded by the slice's generation so level changes invalidate it.
func (s *sim) scheduleCompletion(sl *cluster.Slice) {
	_ = s.eng.ScheduleTag(sl.Finish, engineTag{Kind: tagCompletion, A: int32(sl.Serial), B: int32(sl.Gen)})
	if s.faults != nil {
		s.armFalsePass(sl)
	}
}

// onComplete finishes a slice (unless stale), starts the processor's
// next queued slice, and closes out the job when its last slice ends.
func (s *sim) onComplete(sl *cluster.Slice, gen int, now units.Seconds) {
	if sl.Gen != gen || !sl.Running() {
		return // stale event from before a DVFS retiming
	}
	s.sync(now)
	next := s.dc.Complete(sl.ProcID, now)
	s.bySerial[sl.Serial] = nil
	s.finishSlice(sl.Job, now)
	if next != nil {
		s.scheduleCompletion(next)
	}
}

func (s *sim) finishSlice(j *workload.Job, now units.Seconds) {
	s.workDone += j.Runtime
	s.slicesDone++
	st := &s.states[s.stateIdx[j]]
	st.remaining--
	if st.remaining == 0 {
		st.finish = now
		s.jobsLeft--
		if j.Deadline > 0 && now > j.Deadline+1e-6 {
			s.violations++
		}
	}
}

// qualityMetrics computes the bounded-slowdown and wait statistics into
// a reused buffer. The full ascending sort is retained deliberately:
// the mean is summed over the *sorted* values, and float addition is
// not associative, so a partial selection for the p95 alone would
// change the mean's low bits and break bit-identity with the reference.
// The wait sum runs in job order for the same reason.
func (s *sim) qualityMetrics() (meanSlow, p95Slow float64, meanWait units.Seconds) {
	if s.cfg.naive {
		return s.naiveQualityMetrics()
	}
	m := len(s.states)
	if m == 0 {
		return 0, 0, 0
	}
	slows := s.slowsBuf[:0]
	var waitSum float64
	for i := range s.states {
		st := &s.states[i]
		span := float64(st.finish - st.job.Submit)
		runtime := math.Max(float64(st.job.Runtime), 10)
		slows = append(slows, math.Max(1, span/runtime))
		if w := span - float64(st.job.Runtime); w > 0 {
			waitSum += w
		}
	}
	s.slowsBuf = slows
	slices.Sort(slows)
	var sum float64
	for _, v := range slows {
		sum += v
	}
	meanSlow = sum / float64(m)
	p95Slow = slows[m*95/100]
	meanWait = units.Seconds(waitSum / float64(m))
	return meanSlow, p95Slow, meanWait
}

// onTick refreshes the wind budget, runs the power-matching loop, and
// gives the opportunistic scanner its chance.
func (s *sim) onTick(now units.Seconds) {
	s.counters.Ticks++
	s.sync(now)
	s.nominalWind = s.cfg.Wind.At(now)
	s.curWind = s.deratedWind(s.nominalWind)
	if !s.cfg.DisableMatching {
		changed := s.match(now)
		for _, sl := range changed {
			s.scheduleCompletion(sl)
		}
	}
	s.maybeProfile(now)
	if s.cfg.EnableRebalance {
		s.rebalance(now)
	}
	if s.brown != nil {
		s.brownoutEvaluate(now)
	}
	s.checkInvariants(now, true)
}

// maybeProfile implements the opportunistic scanning flow of Section
// III.C: when the datacenter is below the utilization threshold (and
// renewable power is flowing, if required), take idle unprofiled
// processors out of service, test them, and return them with their
// profile recorded.
func (s *sim) maybeProfile(now units.Seconds) {
	if !s.onlineActive || s.scanLeft == 0 {
		return
	}
	if s.online.RequireWind && s.cfg.Wind != nil && s.curWind <= 0 {
		return
	}
	n := s.dc.Len()
	busy := s.dc.BusyCount() + s.dc.OfflineCount()
	if float64(busy)/float64(n) >= s.online.UtilThreshold {
		return
	}
	limit := int(s.online.MaxConcurrentFrac*float64(n)) - s.dc.OfflineCount()
	if limit < 1 {
		return
	}
	for id := 0; id < n && limit > 0; id++ {
		if s.scanState[id] != 0 {
			continue
		}
		if s.dc.IsBusy(id) || s.dc.QueueLen(id) > 0 || s.dc.Offline(id) {
			continue
		}
		if err := s.dc.SetOffline(id, s.online.TestPower); err != nil {
			continue
		}
		s.scanState[id] = 1
		limit--
		_ = s.eng.AfterTag(s.scanDur, engineTag{Kind: tagFinishScan, A: int32(id)})
	}
}

// finishScan records a completed profiling session and returns the
// processor to service.
func (s *sim) finishScan(id int, now units.Seconds) {
	s.sync(now)
	rep := s.scanner.ScanChip(id, now-s.scanDur)
	s.profEnergy += rep.Energy
	// The scan rewrites this chip's profile record, which feeds its
	// voltage-regime draw; drop any memoized power for it.
	s.dc.InvalidatePower(id)
	s.scanState[id] = 2
	s.scanLeft--
	s.profiled++
	s.profilesDirty = true
	if started := s.dc.SetOnline(id, now); started != nil {
		s.scheduleCompletion(started)
	}
}

// match is the macro power-matching loop (Section V.C): when demand
// exceeds the wind budget, step running slices down one DVFS level at a
// time — largest deadline slack first — as long as deadlines hold; when
// wind recovers, restore levels (tightest slack first) while staying
// under the budget. Any residual deficit is bought from the grid by the
// account. Matching only tracks a positive wind budget: with no
// renewable supply the assigned (energy-optimal) levels already
// minimize cost.
func (s *sim) match(now units.Seconds) []*cluster.Slice {
	if s.cfg.naive {
		return s.naiveMatch(now)
	}
	target := s.curWind
	demand := s.viewDemand()
	changed := s.changedBuf[:0]

	switch {
	case demand > target && target > 0:
		running := s.sortRunningBySlack(now, true)
		for _, sl := range running {
			if s.viewDemand() <= target {
				break
			}
			// Slowing the running slice also delays everything queued
			// behind it; the proc's queue slack bounds the admissible
			// delay ("we stop lowering the frequency when some tasks
			// are facing violation of their deadlines", Section V.C).
			maxDelay := s.dc.QueueSlack(sl.ProcID, now)
			lowered := false
			for sl.Level > 0 && s.viewDemand() > target {
				nl := sl.Level - 1
				nf := s.dc.FinishAtLevel(sl, nl, now)
				if d := sl.Job.Deadline; d > 0 && nf > d {
					break
				}
				delay := nf - sl.Finish
				if delay > maxDelay {
					break
				}
				s.dc.SetLevel(sl, nl, now)
				maxDelay -= delay
				lowered = true
			}
			if lowered {
				changed = append(changed, sl)
			}
		}

	case demand < target:
		// Levels can only be raised back toward their assignment; if no
		// running slice sits below it, there is nothing to collect. This
		// is the steady state whenever wind has covered demand for a
		// while, and the cluster keeps the count, so the guard reads no
		// processor.
		if s.dc.BelowAssigned() == 0 {
			break
		}
		running := s.sortRunningBySlack(now, false)
		for _, sl := range running {
			raised := false
			for sl.Level < sl.AssignedLevel {
				delta := s.viewProcPower(sl.ProcID, sl.Level+1) - s.viewProcPower(sl.ProcID, sl.Level)
				if float64(s.viewDemand())+float64(delta) > float64(target) {
					break
				}
				s.dc.SetLevel(sl, sl.Level+1, now)
				raised = true
			}
			if raised {
				changed = append(changed, sl)
			}
		}
	}
	s.changedBuf = changed
	s.counters.MatchRetimed += int64(len(changed))
	return changed
}

// sortRunningBySlack collects the running slices match can act on and
// sorts them by deadline slack: for the deficit (desc), the slices
// above level 0, most slack first; for the surplus, the slices below
// their assigned level, tightest slack first.
//
// The filter is exact. The deficit walk changes no slice at level 0,
// and skipping one cannot move its loop-top demand check, since demand
// moves only when a slice is lowered; the surplus walk changes no slice
// at or above its assigned level. A slice's level changes only in its
// own iteration, and a sorted subsequence is the sort of the subset, so
// the walks act on the same slices in the same order as over all
// running slices. Keys are computed once per slice into pointer-free
// (slack, procID) entries, a strict total order with one running slice
// per processor, and the sorted entries write back through the
// per-processor running view.
func (s *sim) sortRunningBySlack(now units.Seconds, desc bool) []*cluster.Slice {
	view := s.dc.CurrentView()
	keys := s.slackBuf[:0]
	for id, cur := range view {
		if cur != nil && (desc && cur.Level > 0 || !desc && cur.Level < cur.AssignedLevel) {
			keys = append(keys, slackEntry{slack: slack(cur, now), procID: int32(id)})
		}
	}
	s.counters.MatchCollected += int64(len(keys))
	if desc {
		slices.SortFunc(keys, slackDesc)
	} else {
		slices.SortFunc(keys, slackAsc)
	}
	out := s.runSorted[:0]
	for _, k := range keys {
		out = append(out, view[k.procID])
	}
	s.slackBuf, s.runSorted = keys, out
	return out
}

func slackDesc(a, b slackEntry) int {
	if a.slack != b.slack {
		if a.slack > b.slack {
			return -1
		}
		return 1
	}
	return int(a.procID) - int(b.procID)
}

func slackAsc(a, b slackEntry) int {
	if a.slack != b.slack {
		if a.slack < b.slack {
			return -1
		}
		return 1
	}
	return int(a.procID) - int(b.procID)
}

// slack is the margin between a slice's deadline and its estimated
// finish; slices without deadlines have infinite slack.
func slack(sl *cluster.Slice, now units.Seconds) units.Seconds {
	if sl.Job.Deadline <= 0 {
		return units.Seconds(math.Inf(1))
	}
	return sl.Job.Deadline - sl.Finish
}
