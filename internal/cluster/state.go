package cluster

import (
	"fmt"
	"math"

	"iscope/internal/units"
	"iscope/internal/workload"
)

// SliceState is the serializable form of a live Slice. JobRef is an
// opaque job identifier supplied by the caller (the scheduler uses the
// job's index in its workload), so the cluster never assumes how jobs
// are stored.
type SliceState struct {
	JobRef        int
	Serial        int
	ProcID        int
	AssignedLevel int
	Level         int
	Remaining     float64
	LastUpdate    units.Seconds
	Running       bool
	Done          bool
	Finish        units.Seconds
	Gen           int
	Draw          units.Watts
}

// ProcState is the serializable form of one processor's mutable state.
// Current holds zero or one entries. BusySince is 0 for an idle
// processor: it is read only while a slice runs, and start rewrites it.
type ProcState struct {
	Current     []SliceState
	Queue       []SliceState
	UtilTime    units.Seconds
	BusySince   units.Seconds
	Backlog     units.Seconds
	Offline     bool
	OfflineDraw units.Watts
}

// State is a snapshot of every mutable field in the datacenter. The
// aggregate Demand is stored verbatim rather than recomputed on
// restore: it is accumulated incrementally during the run, and resummed
// floating-point terms would not be bit-identical.
type State struct {
	Procs  []ProcState
	Demand units.Watts
}

// CaptureState snapshots the datacenter. jobRef maps each slice's job
// to a stable identifier the caller can resolve again on restore.
func (dc *Datacenter) CaptureState(jobRef func(*workload.Job) int) State {
	st := State{Procs: make([]ProcState, dc.Len()), Demand: dc.demand}
	cap := func(s *Slice) SliceState {
		return SliceState{
			JobRef:        jobRef(s.Job),
			Serial:        s.Serial,
			ProcID:        s.ProcID,
			AssignedLevel: s.AssignedLevel,
			Level:         s.Level,
			Remaining:     s.remaining,
			LastUpdate:    s.lastUpdate,
			Running:       s.running,
			Done:          s.done,
			Finish:        s.Finish,
			Gen:           s.Gen,
			Draw:          s.draw,
		}
	}
	for i := range dc.Len() {
		ps := ProcState{
			UtilTime:    dc.utilTime[i],
			Backlog:     dc.backlog[i],
			Offline:     dc.offline[i],
			OfflineDraw: dc.offlineDraw[i],
		}
		if cur := dc.current[i]; cur != nil {
			ps.Current = []SliceState{cap(cur)}
			ps.BusySince = dc.busySince[i]
		}
		for _, q := range dc.queues[i].items() {
			ps.Queue = append(ps.Queue, cap(q))
		}
		st.Procs[i] = ps
	}
	return st
}

// A processor's backlog is a running sum: each enqueue adds a queued
// slice's duration at its assigned level and each dequeue subtracts it,
// clamping at zero. So it can differ from a fresh sum of its queue in
// the last bits, and RestoreState accepts a stored backlog within
// backlogSlack + backlogRelSlack·sum seconds of that sum. Over the
// scheduler, service, experiments and iscoped test suites and the
// 4,800- and 48,000-proc benchmark snapshots the largest difference
// was 1.2e-10 s, on a 4.5e5 s backlog; an empty queue's residue was at
// most 4.4e-11 s.
const (
	backlogSlack    = 1e-6
	backlogRelSlack = 1e-9
)

// RestoreState overlays a snapshot onto a freshly built datacenter of
// the same shape. Restored slices come from arena, the run's own, so
// they are allocated and freed in chunks like live ones. job resolves
// the identifiers produced by jobRef at capture time. It returns the
// rebuilt slices keyed by Serial so the caller can re-attach pending
// events to them. It refuses a slice that no run could leave behind:
// one that names a processor other than the one storing it, a current
// slice not running or a queued one running, or a level outside the
// DVFS table. It also refuses a processor whose stored Backlog is
// farther from its queue's durations than rounding can take it (see
// backlogSlack).
//
// A counting pass sizes the map once, and every queue's window is cut
// from one shared pointer block at its exact length, capped so that a
// queue that grows later reallocates instead of writing into its
// neighbour's window.
func (dc *Datacenter) RestoreState(st State, arena *SliceArena, job func(int) (*workload.Job, error)) (map[int]*Slice, error) {
	if len(st.Procs) != dc.Len() {
		return nil, fmt.Errorf("cluster: snapshot has %d processors, datacenter has %d", len(st.Procs), dc.Len())
	}
	nSlices, nQueued := 0, 0
	for i := range st.Procs {
		ps := &st.Procs[i]
		if len(ps.Current) > 1 {
			return nil, fmt.Errorf("cluster: processor %d snapshot has %d running slices", i, len(ps.Current))
		}
		nSlices += len(ps.Current) + len(ps.Queue)
		nQueued += len(ps.Queue)
	}
	queued := make([]*Slice, nQueued)
	slices := make(map[int]*Slice, nSlices)
	// restore rebuilds one slice stored under processor id, running if
	// it is the processor's current slice and queued otherwise.
	restore := func(ss *SliceState, id int, current bool) (*Slice, error) {
		if _, dup := slices[ss.Serial]; dup {
			return nil, fmt.Errorf("cluster: snapshot repeats slice serial %d", ss.Serial)
		}
		switch {
		case ss.ProcID != id:
			return nil, fmt.Errorf("cluster: slice serial %d is stored under processor %d but names processor %d", ss.Serial, id, ss.ProcID)
		case current && !ss.Running:
			return nil, fmt.Errorf("cluster: processor %d's current slice serial %d is not running", id, ss.Serial)
		case !current && ss.Running:
			return nil, fmt.Errorf("cluster: processor %d queues slice serial %d marked running", id, ss.Serial)
		case ss.Level < 0 || ss.Level >= dc.nLevels || ss.AssignedLevel < 0 || ss.AssignedLevel >= dc.nLevels:
			return nil, fmt.Errorf("cluster: slice serial %d has level %d and assigned level %d, outside the %d-level DVFS table", ss.Serial, ss.Level, ss.AssignedLevel, dc.nLevels)
		}
		j, err := job(ss.JobRef)
		if err != nil {
			return nil, fmt.Errorf("cluster: slice serial %d: %w", ss.Serial, err)
		}
		s := arena.next()
		*s = Slice{
			Job:           j,
			Serial:        ss.Serial,
			ProcID:        ss.ProcID,
			AssignedLevel: ss.AssignedLevel,
			Level:         ss.Level,
			remaining:     ss.Remaining,
			lastUpdate:    ss.LastUpdate,
			running:       ss.Running,
			done:          ss.Done,
			Finish:        ss.Finish,
			Gen:           ss.Gen,
			draw:          ss.Draw,
		}
		slices[ss.Serial] = s
		return s, nil
	}
	for i := range st.Procs {
		ps := &st.Procs[i]
		dc.utilTime[i] = ps.UtilTime
		dc.busySince[i] = ps.BusySince
		dc.backlog[i] = ps.Backlog
		dc.offline[i] = ps.Offline
		dc.offlineDraw[i] = ps.OfflineDraw
		dc.current[i] = nil
		if len(ps.Current) == 1 {
			s, err := restore(&ps.Current[0], i, true)
			if err != nil {
				return nil, err
			}
			dc.current[i] = s
		}
		q := &dc.queues[i]
		q.reset()
		if len(ps.Queue) > 0 {
			n := len(ps.Queue)
			q.buf, queued = queued[:0:n], queued[n:]
		}
		var backlog units.Seconds
		for k := range ps.Queue {
			s, err := restore(&ps.Queue[k], i, false)
			if err != nil {
				return nil, err
			}
			q.push(s)
			backlog += dc.SliceDuration(s, s.AssignedLevel)
		}
		if d := math.Abs(float64(ps.Backlog - backlog)); !(d <= backlogSlack+backlogRelSlack*float64(backlog)) {
			return nil, fmt.Errorf("cluster: processor %d stores a backlog of %v s, but its %d queued slices take %v s", i, float64(ps.Backlog), len(ps.Queue), float64(backlog))
		}
	}
	dc.demand = st.Demand
	// The overlay bypassed start/Complete/SetLevel/SetOffline, so the
	// O(1) counters are recomputed from the restored truth, and
	// anything a consumer built from the pre-restore state is invalid:
	// both change feeds overflow, forcing a full rebuild or recount.
	dc.nBusy, dc.nOffline, dc.nBelow = 0, 0, 0
	for i, cur := range dc.current {
		if cur != nil {
			dc.nBusy++
			if cur.Level < cur.AssignedLevel {
				dc.nBelow++
			}
		}
		if dc.offline[i] {
			dc.nOffline++
		}
	}
	dc.fairFeed.invalidate()
	dc.queueFeed.invalidate()
	// The caller typically restores voltage-regime state (profiling
	// knowledge, fault overrides) after this overlay, so any draw
	// memoized before or during the restore could be stale.
	dc.InvalidateAllPower()
	return slices, nil
}
