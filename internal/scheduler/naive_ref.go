package scheduler

// This file retains the pre-optimization reference implementations of
// the scheduler's hot paths, verbatim from the seed revision. They are
// reached only when RunConfig.naive is set (test-only; see RunConfig),
// and exist so the determinism equivalence suite can prove the
// optimized paths byte-identical to the originals. Keep them boring:
// any "improvement" here erodes their value as ground truth.

import (
	"math"
	"sort"

	"iscope/internal/cluster"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// naiveSelectProcs is the seed placement walk: a fresh output slice and
// taken-map per call, and a full sort of the fallback candidates.
func (s *sim) naiveSelectProcs(j *workload.Job, now units.Seconds) []placement {
	n := j.Procs
	if n > s.dc.Len() {
		n = s.dc.Len()
	}
	abundant := s.scheme.Policy == FairPolicy && s.windAbundant()
	order := s.candidateOrder(now, abundant)
	out := make([]placement, 0, n)
	taken := make(map[int]bool, n)

	for _, id := range order {
		if len(out) == n {
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
		taken[id] = true
	}

	if len(out) < n {
		// Not enough feasible processors: place the remainder on the
		// earliest-available ones at the top level (deadline violations
		// are recorded at completion).
		s.availBuf = s.availBuf[:0]
		for id := range s.dc.Len() {
			if !taken[id] {
				s.availBuf = append(s.availBuf, procAvail{id: id, avail: s.dc.AvailableAt(id, now)})
			}
		}
		sort.Slice(s.availBuf, func(a, b int) bool {
			if s.availBuf[a].avail != s.availBuf[b].avail {
				return s.availBuf[a].avail < s.availBuf[b].avail
			}
			return s.availBuf[a].id < s.availBuf[b].id
		})
		top := s.fleet.PM.Table.Top()
		for _, pa := range s.availBuf {
			if len(out) == n {
				break
			}
			out = append(out, placement{id: pa.id, level: top})
		}
	}
	return out
}

// naiveLeastUsedOrder is the seed fair order: a fresh utilization slice
// and order per call and a comparator that indexes them.
func (s *sim) naiveLeastUsedOrder(now units.Seconds) []int {
	utils := s.dc.UtilTimes(now)
	order := make([]int, len(utils))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := utils[order[a]], utils[order[b]]
		if ua != ub {
			return ua < ub
		}
		return order[a] < order[b]
	})
	return order
}

// naiveQualityMetrics is the seed statistics pass: a fresh slowdown
// slice per call, fully sorted.
func (s *sim) naiveQualityMetrics() (meanSlow, p95Slow float64, meanWait units.Seconds) {
	slows := make([]float64, 0, len(s.states))
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
	if len(slows) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(slows)
	var sum float64
	for _, v := range slows {
		sum += v
	}
	meanSlow = sum / float64(len(slows))
	p95Slow = slows[len(slows)*95/100]
	meanWait = units.Seconds(waitSum / float64(len(slows)))
	return meanSlow, p95Slow, meanWait
}

// naiveRebalance is the seed deadline-rescue pass: a fresh candidate
// slice per tick and a comparator over the candidate structs.
func (s *sim) naiveRebalance(now units.Seconds) {
	type cand struct {
		sl       *cluster.Slice
		estStart units.Seconds
	}
	var cands []cand
	s.dc.QueueEstimates(func(sl *cluster.Slice, estStart units.Seconds) {
		d := sl.Job.Deadline
		if d <= 0 {
			return
		}
		if estStart+s.dc.SliceDuration(sl, sl.AssignedLevel) > d {
			cands = append(cands, cand{sl, estStart})
		}
	})
	if len(cands) == 0 {
		return
	}
	// Most-endangered first (latest estimated start), deterministic ties.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].estStart != cands[b].estStart {
			return cands[a].estStart > cands[b].estStart
		}
		if cands[a].sl.Job.ID != cands[b].sl.Job.ID {
			return cands[a].sl.Job.ID < cands[b].sl.Job.ID
		}
		return cands[a].sl.ProcID < cands[b].sl.ProcID
	})
	order := s.candidateOrder(now, false)
	for _, c := range cands {
		sl := c.sl
		for _, id := range order {
			if id == sl.ProcID {
				continue
			}
			avail := s.dc.AvailableAt(id, now)
			maxTime := sl.Job.Deadline - avail
			if maxTime <= 0 {
				continue
			}
			level, ok := s.chooseLevel(id, sl.Job, maxTime, false)
			if !ok {
				continue
			}
			started, err := s.dc.Migrate(sl, id, level, now)
			if err != nil {
				break // raced with a start; leave it be
			}
			if started != nil {
				s.scheduleCompletion(started)
			}
			break
		}
	}
}

// naiveMatch is the seed power-matching loop: slack recomputed inside
// the comparators and a fresh changed slice per tick.
func (s *sim) naiveMatch(now units.Seconds) []*cluster.Slice {
	target := s.curWind
	demand := s.viewDemand()
	var changed []*cluster.Slice

	switch {
	case demand > target && target > 0:
		running := s.dc.RunningSlices(s.runBuf)
		s.runBuf = running
		sort.Slice(running, func(a, b int) bool {
			sa := slack(running[a], now)
			sb := slack(running[b], now)
			if sa != sb {
				return sa > sb
			}
			return running[a].ProcID < running[b].ProcID
		})
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
		running := s.dc.RunningSlices(s.runBuf)
		s.runBuf = running
		sort.Slice(running, func(a, b int) bool {
			sa := slack(running[a], now)
			sb := slack(running[b], now)
			if sa != sb {
				return sa < sb
			}
			return running[a].ProcID < running[b].ProcID
		})
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
	return changed
}
