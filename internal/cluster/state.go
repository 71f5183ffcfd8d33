package cluster

import (
	"fmt"

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
	st := State{Procs: make([]ProcState, len(dc.Procs)), Demand: dc.demand}
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
	for i := range dc.Procs {
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

// RestoreState overlays a snapshot onto a freshly built datacenter of
// the same shape. Restored slices come from arena, the run's own, so
// they are allocated and freed in chunks like live ones. job resolves
// the identifiers produced by jobRef at capture time. It returns the
// rebuilt slices keyed by Serial so the caller can re-attach pending
// events to them.
//
// A counting pass sizes the map once, and every queue's window is cut
// from one shared pointer block at its exact length, capped so that a
// queue that grows later reallocates instead of writing into its
// neighbour's window.
func (dc *Datacenter) RestoreState(st State, arena *SliceArena, job func(int) (*workload.Job, error)) (map[int]*Slice, error) {
	if len(st.Procs) != len(dc.Procs) {
		return nil, fmt.Errorf("cluster: snapshot has %d processors, datacenter has %d", len(st.Procs), len(dc.Procs))
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
	restore := func(ss *SliceState) (*Slice, error) {
		if _, dup := slices[ss.Serial]; dup {
			return nil, fmt.Errorf("cluster: snapshot repeats slice serial %d", ss.Serial)
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
			s, err := restore(&ps.Current[0])
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
		for k := range ps.Queue {
			s, err := restore(&ps.Queue[k])
			if err != nil {
				return nil, err
			}
			q.push(s)
		}
	}
	dc.demand = st.Demand
	// The overlay bypassed start/Complete/SetOffline, so the O(1)
	// counters are recomputed from the restored truth, and any
	// incremental ordering derived from the pre-restore state is
	// invalid — signal a full rebuild through the dirty overflow.
	dc.nBusy, dc.nOffline = 0, 0
	for i := range dc.current {
		if dc.current[i] != nil {
			dc.nBusy++
		}
		if dc.offline[i] {
			dc.nOffline++
		}
	}
	dc.ResetFairDirty()
	dc.fairDirtyOverflow = true
	// The caller typically restores voltage-regime state (profiling
	// knowledge, fault overrides) after this overlay, so any draw
	// memoized before or during the restore could be stale.
	dc.InvalidateAllPower()
	return slices, nil
}
