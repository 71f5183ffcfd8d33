package scheduler

import (
	"slices"

	"iscope/internal/cluster"
	"iscope/internal/units"
)

// rebalCand is one queued slice endangered by its estimated start.
type rebalCand struct {
	sl       *cluster.Slice
	estStart units.Seconds
}

// endangerIndex is rebalance's view of the fleet's queues: per
// processor, the number of queued slices whose estimated completion
// misses their deadline, and the set of processors whose number is
// nonzero. A tick recounts only the processors the cluster's
// queue-estimate feed lists, and collects candidates from the nonzero
// set alone.
//
// It is exact. A queued slice's estimated start reads only its own
// processor's state: the running slice's Finish (+Inf without one) and
// the durations, at their assigned levels, of the slices queued ahead
// of it. It never reads now, and a slice's deadline and durations never
// change. The cluster marks the feed at every transition that moves
// those inputs, so a processor the feed does not list still holds the
// count its last recount found, and its queue yields the candidates a
// full QueueEstimates walk would. collect walks the nonzero set in
// processor order, so it yields them in the full walk's order too,
// which rebalCandCmp's ties need (see there).
type endangerIndex struct {
	count []int32 // endangered queued slices per processor
	// hot lists the processors with a nonzero count, once each. A
	// recount appends a processor whose count leaves zero and leaves
	// one whose count drops to zero in place; collect drops those, so
	// after every tick hot is exactly the nonzero set.
	hot []int32
}

// rebalance migrates queued slices that would miss their deadlines to
// processors where they still fit: candidates sorted most-endangered
// first under rebalCandCmp, each moved to the first
// processor in the policy's preference order that can still meet its
// deadline.
func (s *sim) rebalance(now units.Seconds) {
	if s.cfg.naive {
		s.naiveRebalance(now)
		return
	}
	s.recountEndangered()
	cands := s.collectEndangered()
	if s.onRebalCands != nil {
		s.onRebalCands(cands)
	}
	if len(cands) == 0 {
		return
	}
	order := s.candidateOrder(now, false)
	for _, c := range cands {
		sl := c.sl
		for _, id := range order {
			if id == sl.ProcID {
				continue
			}
			maxTime := sl.Job.Deadline - s.dc.AvailableAt(id, now)
			if maxTime <= 0 {
				continue
			}
			level, ok := s.chooseLevel(id, sl.Job, maxTime, false)
			if !ok {
				continue
			}
			// A failed migration raced with a start; leave it be.
			started, err := s.dc.Migrate(sl, id, level, now)
			if err == nil {
				s.counters.Migrations++
				if started != nil {
					s.scheduleCompletion(started)
				}
			}
			break
		}
	}
}

// endangered reports whether queued slice sl, estimated to start at
// estStart, would finish past its deadline.
func (s *sim) endangered(sl *cluster.Slice, estStart units.Seconds) bool {
	d := sl.Job.Deadline
	return d > 0 && estStart+s.dc.SliceDuration(sl, sl.AssignedLevel) > d
}

// recountEndangered drains the cluster's queue-estimate feed into the
// index: it recounts the processors the feed lists, or every processor
// when the feed overflowed, as it does on a run's first tick and after
// a restore.
func (s *sim) recountEndangered() {
	x := &s.endanger
	if x.count == nil {
		x.count = make([]int32, s.dc.Len())
	}
	feed := s.dc.QueueFeed()
	if dirty, overflow := feed.Dirty(); overflow {
		for id := range x.count {
			s.recountProc(id)
		}
	} else {
		for _, id := range dirty {
			s.recountProc(int(id))
		}
	}
	feed.Reset()
}

// recountProc recomputes processor id's endangered count.
func (s *sim) recountProc(id int) {
	var n int32
	walked := s.dc.ProcQueueEstimates(id, func(sl *cluster.Slice, estStart units.Seconds) {
		if s.endangered(sl, estStart) {
			n++
		}
	})
	s.counters.ProcsRecounted++
	s.counters.QueuedWalked += int64(walked)
	x := &s.endanger
	if x.count[id] == 0 && n > 0 {
		x.hot = append(x.hot, int32(id))
	}
	x.count[id] = n
}

// collectEndangered gathers the endangered slices of the processors
// with a nonzero count, in processor and then queue order, and sorts
// them most-endangered first. The returned slice aliases a scratch
// buffer valid until the next call.
func (s *sim) collectEndangered() []rebalCand {
	x := &s.endanger
	hot := x.hot[:0]
	for _, id := range x.hot {
		if x.count[id] > 0 {
			hot = append(hot, id)
		}
	}
	slices.Sort(hot)
	x.hot = hot
	cands := s.candBuf[:0]
	for _, id := range hot {
		walked := s.dc.ProcQueueEstimates(int(id), func(sl *cluster.Slice, estStart units.Seconds) {
			if s.endangered(sl, estStart) {
				cands = append(cands, rebalCand{sl, estStart})
			}
		})
		s.counters.QueuedWalked += int64(walked)
	}
	slices.SortFunc(cands, rebalCandCmp)
	s.candBuf = cands
	s.counters.RebalanceCandidates += int64(len(cands))
	return cands
}

// rebalCandCmp orders rebalance candidates most-endangered first —
// latest estimated start — then by (job, proc). The order is not
// strict: a migration or a requeue can leave two slices of one job on
// one processor, and behind an offline processor both estimate +Inf.
// The unstable sort then orders such a pair by where it met them, so
// every path must hand it the candidates in the full QueueEstimates
// walk's order, processor by processor and front to back.
func rebalCandCmp(a, b rebalCand) int {
	if a.estStart != b.estStart {
		if a.estStart > b.estStart {
			return -1
		}
		return 1
	}
	if a.sl.Job.ID != b.sl.Job.ID {
		return a.sl.Job.ID - b.sl.Job.ID
	}
	return a.sl.ProcID - b.sl.ProcID
}
