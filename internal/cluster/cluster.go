// Package cluster models the datacenter: a fleet of processors (the
// schedulable "CPUs" of the paper), per-processor FIFO task queues,
// task-slice execution with DVFS-aware progress tracking, utilization
// accounting for the lifetime-balancing study, and incremental
// aggregate power bookkeeping.
//
// A job requesting N CPUs becomes N parallel slices, one per chosen
// processor; each slice carries the job's runtime (at the top DVFS
// level), CPU-boundness and deadline. A processor executes its slices
// FIFO. Power-matching may change a running slice's DVFS level mid-
// flight; progress is tracked as a remaining-work fraction so level
// changes re-time the completion correctly.
package cluster

import (
	"fmt"
	"math"

	"iscope/internal/power"
	"iscope/internal/units"
	"iscope/internal/variation"
	"iscope/internal/workload"
)

// VoltageFn returns the supply voltage a processor is operated at for a
// DVFS level. It encodes the knowledge regime: factory bin voltage for
// Bin schemes, scanned MinVdd plus guardband for Scan schemes.
type VoltageFn func(procID, level int) units.Volts

// Slice is one processor's share of a gang job.
type Slice struct {
	Job    *workload.Job
	ProcID int
	// Serial is a scheduler-assigned identity, unique per run, that
	// survives checkpointing. (ProcID, Gen) pairs cannot identify a
	// slice across a snapshot: generations reset on fresh slices, so a
	// restored completion event could falsely match a different slice.
	Serial int
	// AssignedLevel is the DVFS level the scheduler chose; power
	// matching may run the slice below it temporarily, never above.
	AssignedLevel int
	// Level is the current operating level while running.
	Level int

	remaining  float64 // fraction of work left, 1 -> 0
	lastUpdate units.Seconds
	running    bool
	done       bool

	// Finish is the estimated completion time while running.
	Finish units.Seconds
	// Gen invalidates stale completion events after a level change.
	Gen int

	// draw is the power the slice is booked at in the aggregate demand
	// while running. It is captured at start/level-change time so that
	// knowledge updates mid-run (online profiling) cannot unbalance the
	// incremental bookkeeping.
	draw units.Watts
}

// Running reports whether the slice is currently executing.
func (s *Slice) Running() bool { return s.running }

// Done reports whether the slice has completed.
func (s *Slice) Done() bool { return s.done }

// Remaining returns the fraction of work left.
func (s *Slice) Remaining() float64 { return s.remaining }

// Processor is one schedulable CPU. It is a thin view over the
// datacenter's structure-of-arrays state: the mutable fields (running
// slice, queue, utilization, offline flags) live in flat parallel
// slices on Datacenter, indexed by ID, so fleet-order walks and the
// fair pass stream contiguous memory instead of chasing
// per-processor pointers. The view keeps the familiar accessor API for
// tests, checkpoint codecs and cold paths.
type Processor struct {
	ID   int
	Chip *variation.Chip
	dc   *Datacenter
}

// Offline reports whether the processor is isolated from service.
func (p *Processor) Offline() bool { return p.dc.offline[p.ID] }

// Current returns the running slice, nil when idle.
func (p *Processor) Current() *Slice { return p.dc.current[p.ID] }

// QueueLen returns the number of waiting slices.
func (p *Processor) QueueLen() int { return p.dc.queues[p.ID].len() }

// UtilTime returns the accumulated busy time — the lifetime-wear proxy
// of the paper's Figure 9 — not counting any in-flight busy span (see
// Datacenter.UtilAt for that).
func (p *Processor) UtilTime() units.Seconds { return p.dc.utilTime[p.ID] }

// sliceQueue is a FIFO of waiting slices with amortized allocation-free
// push and pop. Popping advances a head index instead of re-slicing;
// the vacated front capacity is reclaimed by compaction on a later
// push. The append(queue[1:], ...) idiom this replaces lost the front
// capacity forever, so every processor queue kept re-allocating its
// backing array for the whole run — the single largest allocation
// source in the simulation hot path.
type sliceQueue struct {
	buf  []*Slice
	head int
}

func (q *sliceQueue) len() int { return len(q.buf) - q.head }

// items returns the live window for iteration. The returned slice is
// valid only until the next queue mutation.
func (q *sliceQueue) items() []*Slice { return q.buf[q.head:] }

func (q *sliceQueue) at(i int) *Slice { return q.buf[q.head+i] }

func (q *sliceQueue) push(s *Slice) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		live := len(q.buf) - q.head
		if cap(q.buf) >= 64 && live*4 <= cap(q.buf) {
			// The queue drained far below its high-water mark: move the
			// live window to a smaller backing array so one past burst
			// doesn't pin a fleet-scale allocation for the whole run.
			nb := make([]*Slice, live, max(2*live, 16))
			copy(nb, q.buf[q.head:])
			q.buf = nb
		} else {
			n := copy(q.buf, q.buf[q.head:])
			for i := n; i < len(q.buf); i++ {
				q.buf[i] = nil // release for GC
			}
			q.buf = q.buf[:n]
		}
		q.head = 0
	}
	q.buf = append(q.buf, s)
}

func (q *sliceQueue) popFront() *Slice {
	s := q.buf[q.head]
	q.buf[q.head] = nil // release for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return s
}

func (q *sliceQueue) pushFront(s *Slice) {
	if q.head > 0 {
		q.head--
		q.buf[q.head] = s
		return
	}
	q.buf = append(q.buf, nil)
	copy(q.buf[1:], q.buf)
	q.buf[0] = s
}

// removeAt deletes the i-th waiting slice, preserving queue order.
func (q *sliceQueue) removeAt(i int) {
	idx := q.head + i
	copy(q.buf[idx:], q.buf[idx+1:])
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
}

func (q *sliceQueue) reset() {
	for i := range q.buf {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// Datacenter is the simulated facility. Mutable per-processor state is
// held in flat parallel arrays indexed by processor ID (structure of
// arrays): the hot kernels — utilization fills, availability
// lookups, running-slice collection, queue estimates — walk these
// arrays linearly. Processor is a view over the same arrays.
type Datacenter struct {
	Procs []*Processor

	chips []*variation.Chip

	// Structure-of-arrays processor state, all indexed by processor ID.
	current     []*Slice        // running slice, nil when idle
	utilTime    []units.Seconds // accumulated busy time (wear proxy)
	busySince   []units.Seconds // start of the in-flight busy span
	backlog     []units.Seconds // summed durations of queued slices
	offline     []bool          // isolated from service (profiling)
	offlineDraw []units.Watts   // draw while isolated
	queues      []sliceQueue    // per-processor FIFO of waiting slices

	// fairFeed and queueFeed are the change feeds of the scheduler's
	// two incremental consumers, one DirtySet each (see FairFeed and
	// QueueFeed for their triggers). The fair feed's bound matches the
	// fair order's repair threshold: past ~n/8 changed processors a
	// full rebuild is about as cheap as a repair. The queue feed never
	// overflows between restores: recounting a listed processor costs
	// what a full recount spends on it, so listing can only save work.
	fairFeed  DirtySet
	queueFeed DirtySet

	pm   *power.Model
	volt VoltageFn
	cops []float64 // per-processor cooling coefficient

	demand units.Watts // aggregate draw including cooling

	// nBusy and nOffline are maintained incrementally at every state
	// transition so BusyCount/OfflineCount are O(1) — they gate
	// per-tick decisions (profiling admission) and an O(procs) scan
	// there is measurable at fleet scale. RestoreState recomputes them
	// from the overlay.
	nBusy    int
	nOffline int
	// nBelow counts the running slices operating below their assigned
	// level, the only slices match's surplus pass can raise. start runs
	// a slice at its assigned level, so only SetLevel, Complete and
	// Preempt move it; RestoreState recomputes it.
	nBelow int

	// Memoized ProcPower, indexed id*nLevels+level. ProcPower is a pure
	// function of (id, level) between voltage-regime changes — the volt
	// function reads profiling knowledge and fault overrides that only
	// move at discrete events — so callers must InvalidatePower whenever
	// the regime for a processor changes. The cache is pure memoization:
	// it never alters a computed value, so results stay bit-identical.
	nLevels   int
	pcache    []units.Watts
	pcacheOK  []bool
	pcacheOff bool
}

// New builds a datacenter of len(chips) processors with a uniform
// cooling coefficient.
func New(chips []*variation.Chip, pm *power.Model, volt VoltageFn, cop float64) (*Datacenter, error) {
	if cop <= 0 {
		return nil, fmt.Errorf("cluster: COP must be positive, got %v", cop)
	}
	cops := make([]float64, len(chips))
	for i := range cops {
		cops[i] = cop
	}
	return NewWithCOPs(chips, pm, volt, cops)
}

// NewWithCOPs builds a datacenter with per-processor cooling
// coefficients — cold-aisle and hot-aisle nodes cool at different
// efficiency, the COP spread Greenberg et al. measured across real
// facilities (Section IV.A: "COP follows normal distribution between
// [0.6, 3.5]").
func NewWithCOPs(chips []*variation.Chip, pm *power.Model, volt VoltageFn, cops []float64) (*Datacenter, error) {
	if len(chips) == 0 {
		return nil, fmt.Errorf("cluster: empty fleet")
	}
	if volt == nil {
		return nil, fmt.Errorf("cluster: nil voltage function")
	}
	if len(cops) != len(chips) {
		return nil, fmt.Errorf("cluster: %d COPs for %d chips", len(cops), len(chips))
	}
	for i, c := range cops {
		if c <= 0 {
			return nil, fmt.Errorf("cluster: processor %d has non-positive COP %v", i, c)
		}
	}
	nLevels := pm.Table.NumLevels()
	n := len(chips)
	dc := &Datacenter{
		Procs:       make([]*Processor, n),
		chips:       append([]*variation.Chip(nil), chips...),
		current:     make([]*Slice, n),
		utilTime:    make([]units.Seconds, n),
		busySince:   make([]units.Seconds, n),
		backlog:     make([]units.Seconds, n),
		offline:     make([]bool, n),
		offlineDraw: make([]units.Watts, n),
		queues:      make([]sliceQueue, n),
		fairFeed:    newDirtySet(n, n/8+64),
		queueFeed:   newDirtySet(n, n),
		pm:          pm,
		volt:        volt,
		cops:        append([]float64(nil), cops...),
		nLevels:     nLevels,
		pcache:      make([]units.Watts, n*nLevels),
		pcacheOK:    make([]bool, n*nLevels),
	}
	// The views live in one contiguous backing array; they are
	// immutable (ID, Chip, dc) so pointers stay valid for the
	// datacenter's lifetime.
	backing := make([]Processor, n)
	for i, ch := range chips {
		backing[i] = Processor{ID: i, Chip: ch, dc: dc}
		dc.Procs[i] = &backing[i]
	}
	return dc, nil
}

// FairFeed is the fair order's change feed. It lists the processors
// whose utilization key changed: busy state, UtilTime or busySince.
// Only start, Complete and Preempt move those.
func (dc *Datacenter) FairFeed() *DirtySet { return &dc.fairFeed }

// QueueFeed is the queue-estimate feed. It lists the processors whose
// QueueEstimates inputs changed: the running slice or its Finish, or
// the queued slices and their assigned levels. start, Complete,
// Preempt, SetLevel, Requeue, Unqueue (so Migrate) and Enqueue's queued
// branch move those. Going offline or online alone does not: an
// estimate reads the running slice, not the offline flag, and SetOnline
// changes the queue only through start.
func (dc *Datacenter) QueueFeed() *DirtySet { return &dc.queueFeed }

// BelowAssigned returns the number of running slices operating below
// their assigned DVFS level.
func (dc *Datacenter) BelowAssigned() int { return dc.nBelow }

// Demand returns the current aggregate power draw including cooling.
func (dc *Datacenter) Demand() units.Watts { return dc.demand }

// PowerModel returns the datacenter's power model.
func (dc *Datacenter) PowerModel() *power.Model { return dc.pm }

// ProcDraw returns the power processor id is currently booked at in
// the aggregate demand: its running slice's captured draw, its offline
// (profiling/repair) draw, or zero when idle. Summing ProcDraw over
// the fleet reproduces Demand exactly — it reads the same incremental
// bookkeeping — which is what lets a sensor layer aggregate true
// per-node power without a second accounting path.
func (dc *Datacenter) ProcDraw(id int) units.Watts {
	if dc.offline[id] {
		return dc.offlineDraw[id]
	}
	if cur := dc.current[id]; cur != nil {
		return cur.draw
	}
	return 0
}

// Volt returns the supply voltage processor id is operated at for the
// given level: the datacenter's VoltageFn, read at call time.
func (dc *Datacenter) Volt(id, level int) units.Volts {
	return dc.volt(id, level)
}

// ProcPower returns the total draw (with cooling) of processor id
// running at the given level under the datacenter's voltage regime.
// Results are memoized per (id, level); see InvalidatePower.
func (dc *Datacenter) ProcPower(id, level int) units.Watts {
	idx := id*dc.nLevels + level
	if dc.pcacheOK[idx] {
		return dc.pcache[idx]
	}
	ch := dc.chips[id]
	cpu := dc.pm.CPUPower(ch.Alpha, ch.Beta, level, dc.volt(id, level))
	w := power.WithCooling(cpu, dc.cops[id])
	if !dc.pcacheOff {
		dc.pcache[idx] = w
		dc.pcacheOK[idx] = true
	}
	return w
}

// DisablePowerCache makes every ProcPower call recompute from the
// voltage regime. The reference (naive) scheduler path runs with the
// cache off so equivalence tests compare memoized draws against
// always-fresh ones — a missing invalidation then shows up as a
// divergence rather than being masked on both sides.
func (dc *Datacenter) DisablePowerCache() {
	dc.pcacheOff = true
	dc.InvalidateAllPower()
}

// InvalidatePower drops the memoized draws for one processor. Call it
// whenever the voltage regime for that processor changes: a profiling
// database update, a fault voltage override, a guardband fallback.
func (dc *Datacenter) InvalidatePower(id int) {
	lo := id * dc.nLevels
	for i := lo; i < lo+dc.nLevels; i++ {
		dc.pcacheOK[i] = false
	}
}

// InvalidateAllPower drops every memoized draw — the safe hammer for
// fleet-wide regime changes (e.g. a supply-voltage derating event).
func (dc *Datacenter) InvalidateAllPower() {
	for i := range dc.pcacheOK {
		dc.pcacheOK[i] = false
	}
}

// SliceDuration returns the slice's full execution time at level l.
func (dc *Datacenter) SliceDuration(s *Slice, l int) units.Seconds {
	return dc.pm.ExecTime(s.Job.Runtime, s.Job.Boundness, l)
}

// AvailableAt estimates when processor id can start a new slice: now if
// idle, otherwise the running slice's estimated finish plus the queued
// backlog. Offline (profiling) processors report +Inf. The estimate
// assumes current DVFS levels persist; power matching can shift it,
// which is exactly the estimation error a real scheduler lives with.
func (dc *Datacenter) AvailableAt(id int, now units.Seconds) units.Seconds {
	if dc.offline[id] {
		return units.Seconds(math.Inf(1))
	}
	cur := dc.current[id]
	if cur == nil {
		return now
	}
	return cur.Finish + dc.backlog[id]
}

// SetOffline isolates an idle, queue-free processor from service for
// profiling, drawing the given test power meanwhile. It reports an
// error if the processor is busy, queued-up or already offline —
// opportunistic profiling must only take truly idle nodes (Section
// III.C).
func (dc *Datacenter) SetOffline(id int, draw units.Watts) error {
	if dc.current[id] != nil || dc.queues[id].len() > 0 {
		return fmt.Errorf("cluster: processor %d is not idle", id)
	}
	return dc.ForceOffline(id, draw)
}

// ForceOffline isolates a processor even when slices are queued on it —
// crash repair and suspect-chip re-profiling cannot wait for the queue
// to drain. Queued slices stay put and start when the processor returns
// via SetOnline. The processor must not be running a slice (Preempt
// first) and must not already be offline.
func (dc *Datacenter) ForceOffline(id int, draw units.Watts) error {
	if dc.offline[id] {
		return fmt.Errorf("cluster: processor %d already offline", id)
	}
	if dc.current[id] != nil {
		return fmt.Errorf("cluster: processor %d is running a slice", id)
	}
	if draw < 0 {
		return fmt.Errorf("cluster: negative offline draw")
	}
	dc.offline[id] = true
	dc.offlineDraw[id] = draw
	dc.demand += draw
	dc.nOffline++
	return nil
}

// Preempt interrupts processor id's running slice: progress is
// advanced to now, the slice leaves the demand books and the busy-time
// accounting closes. The interrupted slice is returned (nil when idle)
// with its remaining-work fraction preserved, so a Requeue resumes it
// from where it stopped; its generation is bumped so the stale
// completion event dies. The processor is left idle — the caller
// decides whether to restart the queue or take the node offline.
func (dc *Datacenter) Preempt(id int, now units.Seconds) *Slice {
	s := dc.current[id]
	if s == nil {
		return nil
	}
	dc.progress(s, now)
	dc.demand -= s.draw
	s.draw = 0
	s.running = false
	s.Gen++
	if s.Level < s.AssignedLevel {
		dc.nBelow--
	}
	dc.utilTime[id] += now - dc.busySince[id]
	dc.current[id] = nil
	dc.nBusy--
	dc.fairFeed.mark(id)
	dc.queueFeed.mark(id)
	return s
}

// Requeue puts a preempted slice at the front of its processor's queue
// so it resumes before later arrivals. Unlike Enqueue it never starts
// the slice, even on an idle processor — the caller sequences restarts
// (typically via SetOnline after a repair).
func (dc *Datacenter) Requeue(s *Slice) {
	if s.running || s.done {
		return
	}
	dc.queues[s.ProcID].pushFront(s)
	dc.backlog[s.ProcID] += dc.SliceDuration(s, s.AssignedLevel)
	dc.queueFeed.mark(s.ProcID)
}

// ResetWork discards a preempted slice's progress so it re-executes
// from scratch — the price of a margin violation on a falsely-passed
// chip. No-op on running or completed slices.
func (s *Slice) ResetWork() {
	if s.running || s.done {
		return
	}
	s.remaining = 1
}

// SetOnline returns a profiled processor to service and starts the
// first queued slice if any arrived meanwhile (the returned slice's
// completion must then be scheduled by the caller).
func (dc *Datacenter) SetOnline(id int, now units.Seconds) *Slice {
	if !dc.offline[id] {
		return nil
	}
	dc.offline[id] = false
	dc.demand -= dc.offlineDraw[id]
	dc.offlineDraw[id] = 0
	dc.nOffline--
	if dc.current[id] != nil || dc.queues[id].len() == 0 {
		return nil
	}
	next := dc.queues[id].popFront()
	dc.backlog[id] -= dc.SliceDuration(next, next.AssignedLevel)
	if dc.backlog[id] < 0 {
		dc.backlog[id] = 0
	}
	dc.start(id, next, now)
	return next
}

// Unqueue removes a not-yet-started slice from its processor's queue
// so it can be migrated elsewhere ("load migration between nodes" —
// one of the green-datacenter levers the paper's Section I lists). It
// reports whether the slice was found; running or completed slices
// cannot be unqueued.
func (dc *Datacenter) Unqueue(s *Slice) bool {
	if s.running || s.done {
		return false
	}
	id := s.ProcID
	for i, q := range dc.queues[id].items() {
		if q == s {
			dc.queues[id].removeAt(i)
			dc.backlog[id] -= dc.SliceDuration(s, s.AssignedLevel)
			if dc.backlog[id] < 0 {
				dc.backlog[id] = 0
			}
			dc.queueFeed.mark(id)
			return true
		}
	}
	return false
}

// Migrate moves a queued slice to another processor at a (possibly
// new) assigned DVFS level, starting it immediately if that processor
// is idle (the returned slice is then non-nil and its completion must
// be scheduled).
func (dc *Datacenter) Migrate(s *Slice, toProc, level int, now units.Seconds) (*Slice, error) {
	if !dc.Unqueue(s) {
		return nil, fmt.Errorf("cluster: slice of job %d is not queued", s.Job.ID)
	}
	s.ProcID = toProc
	s.AssignedLevel = level
	s.Level = level
	return dc.Enqueue(s, now), nil
}

// QueueEstimates calls fn for every queued slice with its estimated
// start time under the current DVFS levels. Slices queued behind a
// profiling session (offline processor) get a +Inf estimate.
func (dc *Datacenter) QueueEstimates(fn func(s *Slice, estStart units.Seconds)) {
	for id := range dc.queues {
		dc.ProcQueueEstimates(id, fn)
	}
}

// ProcQueueEstimates is QueueEstimates restricted to processor id's
// queue: the same float sums, read from that processor's state alone.
// It returns the number of slices it visited.
func (dc *Datacenter) ProcQueueEstimates(id int, fn func(s *Slice, estStart units.Seconds)) int {
	q := dc.queues[id].items()
	if len(q) == 0 {
		return 0
	}
	t := units.Seconds(math.Inf(1))
	if cur := dc.current[id]; cur != nil {
		t = cur.Finish
	}
	for _, sl := range q {
		fn(sl, t)
		t += dc.SliceDuration(sl, sl.AssignedLevel)
	}
	return len(q)
}

// OfflineCount returns the number of processors currently isolated.
func (dc *Datacenter) OfflineCount() int { return dc.nOffline }

// NewSlice creates an unstarted slice of job j on processor procID at
// the given assigned level.
func NewSlice(j *workload.Job, procID, level int) *Slice {
	return &Slice{
		Job:           j,
		ProcID:        procID,
		AssignedLevel: level,
		Level:         level,
		remaining:     1,
	}
}

// Enqueue appends the slice to its processor's queue. If the processor
// is idle the slice starts immediately and is returned (its completion
// must then be scheduled by the caller); otherwise nil is returned.
func (dc *Datacenter) Enqueue(s *Slice, now units.Seconds) *Slice {
	id := s.ProcID
	if dc.current[id] == nil && !dc.offline[id] {
		dc.start(id, s, now)
		return s
	}
	dc.queues[id].push(s)
	dc.backlog[id] += dc.SliceDuration(s, s.AssignedLevel)
	dc.queueFeed.mark(id)
	return nil
}

func (dc *Datacenter) start(id int, s *Slice, now units.Seconds) {
	dc.current[id] = s
	dc.nBusy++
	dc.busySince[id] = now
	s.running = true
	s.lastUpdate = now
	s.Level = s.AssignedLevel
	s.Finish = now + units.Seconds(s.remaining*float64(dc.SliceDuration(s, s.Level)))
	s.draw = dc.ProcPower(id, s.Level)
	dc.demand += s.draw
	dc.fairFeed.mark(id)
	dc.queueFeed.mark(id)
}

// Complete finishes processor id's running slice and starts the next
// queued one, if any. It returns the newly started slice (nil when the
// queue is empty). The caller is responsible for only invoking this at
// the slice's current Finish time with a matching generation.
func (dc *Datacenter) Complete(id int, now units.Seconds) *Slice {
	s := dc.current[id]
	if s == nil {
		return nil
	}
	dc.demand -= s.draw
	s.draw = 0
	s.running = false
	s.done = true
	s.remaining = 0
	if s.Level < s.AssignedLevel {
		dc.nBelow--
	}
	dc.utilTime[id] += now - dc.busySince[id]
	dc.current[id] = nil
	dc.nBusy--
	dc.fairFeed.mark(id)
	dc.queueFeed.mark(id)
	if dc.queues[id].len() == 0 {
		return nil
	}
	next := dc.queues[id].popFront()
	dc.backlog[id] -= dc.SliceDuration(next, next.AssignedLevel)
	if dc.backlog[id] < 0 {
		dc.backlog[id] = 0
	}
	dc.start(id, next, now)
	return next
}

// SetLevel changes a running slice's DVFS level at time now, updating
// remaining work, finish estimate, generation and aggregate demand. It
// is a no-op if the slice is not running or already at the level.
func (dc *Datacenter) SetLevel(s *Slice, level int, now units.Seconds) {
	if !s.running || level == s.Level {
		return
	}
	dc.demand -= s.draw
	dc.progress(s, now)
	if s.Level < s.AssignedLevel {
		dc.nBelow--
	}
	if level < s.AssignedLevel {
		dc.nBelow++
	}
	s.Level = level
	s.Gen++
	s.Finish = now + units.Seconds(s.remaining*float64(dc.SliceDuration(s, level)))
	s.draw = dc.ProcPower(s.ProcID, level)
	dc.demand += s.draw
	dc.queueFeed.mark(s.ProcID)
}

// FinishAtLevel predicts the slice's completion time if switched to the
// given level at time now (without applying the change).
func (dc *Datacenter) FinishAtLevel(s *Slice, level int, now units.Seconds) units.Seconds {
	rem := s.remaining
	if s.running {
		dur := float64(dc.SliceDuration(s, s.Level))
		if dur > 0 {
			rem -= float64(now-s.lastUpdate) / dur
		}
		if rem < 0 {
			rem = 0
		}
	}
	return now + units.Seconds(rem*float64(dc.SliceDuration(s, level)))
}

// progress advances the slice's remaining-work fraction to time now.
func (dc *Datacenter) progress(s *Slice, now units.Seconds) {
	dur := float64(dc.SliceDuration(s, s.Level))
	if dur > 0 {
		s.remaining -= float64(now-s.lastUpdate) / dur
	}
	if s.remaining < 0 {
		s.remaining = 0
	}
	s.lastUpdate = now
}

// QueueSlack returns the minimum deadline slack among processor id's
// queued (not yet started) slices, given the current estimated drain
// order: how much the running slice's completion may be delayed before
// some queued slice's estimated completion crosses its deadline.
// +Inf when the queue is empty or deadline-free.
func (dc *Datacenter) QueueSlack(id int, now units.Seconds) units.Seconds {
	slackMin := units.Seconds(math.Inf(1))
	cur := dc.current[id]
	if cur == nil {
		return slackMin
	}
	t := cur.Finish
	for _, q := range dc.queues[id].items() {
		t += dc.SliceDuration(q, q.AssignedLevel)
		if q.Job.Deadline > 0 {
			if s := q.Job.Deadline - t; s < slackMin {
				slackMin = s
			}
		}
	}
	return slackMin
}

// RunningSlices appends every currently executing slice to dst and
// returns it, avoiding per-tick allocation in the matching loop.
func (dc *Datacenter) RunningSlices(dst []*Slice) []*Slice {
	dst = dst[:0]
	for _, cur := range dc.current {
		if cur != nil {
			dst = append(dst, cur)
		}
	}
	return dst
}

// CurrentView returns the running-slice array indexed by processor ID
// (nil entries are idle processors). Read-only: callers must not
// modify it. It exists so fleet-order scans stream one flat array
// instead of dereferencing every Processor view.
func (dc *Datacenter) CurrentView() []*Slice { return dc.current }

// IsBusy reports whether processor id is running a slice.
func (dc *Datacenter) IsBusy(id int) bool { return dc.current[id] != nil }

// UtilTimeOf returns processor id's accumulated busy time, not
// counting any in-flight busy span.
func (dc *Datacenter) UtilTimeOf(id int) units.Seconds { return dc.utilTime[id] }

// UtilOffset returns processor id's utilTime − busySince. While the
// processor stays busy its UtilAt is utilTime + (now − busySince), so
// this offset orders busy processors' keys up to rounding, and it does
// not change until start, Complete or Preempt marks the processor
// fair-dirty.
func (dc *Datacenter) UtilOffset(id int) units.Seconds {
	return dc.utilTime[id] - dc.busySince[id]
}

// UtilAt returns processor id's busy time at now — exactly the value
// UtilTimesInto writes for that processor, computed with the identical
// float expression so orderings built from either agree bit-for-bit.
func (dc *Datacenter) UtilAt(id int, now units.Seconds) units.Seconds {
	u := dc.utilTime[id]
	if dc.current[id] != nil {
		u += now - dc.busySince[id]
	}
	return u
}

// UtilTimes returns each processor's accumulated busy time, adding the
// in-flight busy span for processors currently running.
func (dc *Datacenter) UtilTimes(now units.Seconds) []units.Seconds {
	return dc.UtilTimesInto(make([]units.Seconds, 0, len(dc.Procs)), now)
}

// UtilTimesInto is UtilTimes into a reused buffer, for per-sync callers
// that must not allocate.
func (dc *Datacenter) UtilTimesInto(dst []units.Seconds, now units.Seconds) []units.Seconds {
	dst = dst[:0]
	for id := range dc.utilTime {
		u := dc.utilTime[id]
		if dc.current[id] != nil {
			u += now - dc.busySince[id]
		}
		dst = append(dst, u)
	}
	return dst
}

// LiveSlices counts the fleet's in-flight work: slices currently
// running and slices waiting in queues. Together they must equal the
// scheduler's outstanding placements (the no-slice-leak invariant the
// online monitor checks every tick).
func (dc *Datacenter) LiveSlices() (running, queued int) {
	for id := range dc.current {
		if dc.current[id] != nil {
			running++
		}
		queued += dc.queues[id].len()
	}
	return running, queued
}

// BusyCount returns the number of processors currently running a slice.
func (dc *Datacenter) BusyCount() int { return dc.nBusy }

// SliceArena bulk-allocates slices in fixed chunks so the placement
// loop does not pay one heap allocation per slice. Slices are never
// recycled within a run — a pointer handed out stays valid and uniquely
// owned for the run's lifetime, exactly as an individually allocated
// slice would — so the arena trades bounded memory growth for zero
// aliasing risk. Chunks whose slices all become unreachable are
// collected normally.
type SliceArena struct {
	chunk []Slice
}

const arenaChunk = 256

// New returns a fresh unstarted slice, equivalent to NewSlice.
func (a *SliceArena) New(j *workload.Job, procID, level int) *Slice {
	s := a.next()
	*s = Slice{
		Job:           j,
		ProcID:        procID,
		AssignedLevel: level,
		Level:         level,
		remaining:     1,
	}
	return s
}

// next hands out the next zeroed slot of the current chunk.
func (a *SliceArena) next() *Slice {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]Slice, 0, arenaChunk)
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}
