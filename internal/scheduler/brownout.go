package scheduler

import (
	"math"

	"iscope/internal/brownout"
	"iscope/internal/metrics"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// deferredJob is one admission held at the defer stage.
type deferredJob struct {
	idx int // index into sim.states
	at  units.Seconds
}

// brownoutState is the sim-local runtime of the degradation ladder:
// the pure controller plus the bookkeeping its actions need (who is
// deferred, which processors are parked, how often each slice has been
// shed).
type brownoutState struct {
	cfg    brownout.Config
	ladder *brownout.Ladder
	stats  metrics.BrownoutStats

	deferred []deferredJob
	// parkedAt[id] is when shedding parked processor id, -1 while it is
	// in service.
	parkedAt []units.Seconds
	// restarts counts sheds per slice serial; at MaxRestarts the slice
	// becomes immune, so shed work always finishes.
	restarts map[int]int

	// lastAdvance/lastUtility are the per-stage ledger's integration
	// frontier.
	lastAdvance units.Seconds
	lastUtility units.Joules
}

func newBrownoutState(cfg brownout.Config, procs int) (*brownoutState, error) {
	l, err := brownout.New(cfg)
	if err != nil {
		return nil, err
	}
	b := &brownoutState{
		cfg:      l.Config(),
		ladder:   l,
		parkedAt: make([]units.Seconds, procs),
		restarts: make(map[int]int),
	}
	for i := range b.parkedAt {
		b.parkedAt[i] = -1
	}
	return b, nil
}

// brownoutAdvance attributes elapsed time and grid energy to the stage
// that was in force since the last advance; call it before the ladder
// moves.
func (s *sim) brownoutAdvance(now units.Seconds) {
	b := s.brown
	if now <= b.lastAdvance {
		return
	}
	st := b.ladder.Stage()
	b.stats.StageDwell[st] += now - b.lastAdvance
	b.stats.StageUtility[st] += s.account.Utility - b.lastUtility
	b.lastAdvance = now
	b.lastUtility = s.account.Utility
}

// brownoutEvaluate is the ladder's periodic evaluation: feed it the
// current supply/demand balance and battery charge, then apply (or
// undo) the resulting stage's actions. Runs at every tick and after
// every supply-derating fault event.
func (s *sim) brownoutEvaluate(now units.Seconds) {
	b := s.brown
	s.brownoutAdvance(now)
	demand := float64(s.viewDemand())
	shortfall := 0.0
	if demand > 0 {
		shortfall = (demand - float64(s.curWind)) / demand
	}
	soc := 0.0
	if s.account.Battery != nil {
		soc = s.account.Battery.SoCFraction()
	}
	stage, changed := b.ladder.Observe(now, shortfall, soc)
	if changed {
		b.stats.Transitions++
		if int(stage) > b.stats.MaxStage {
			b.stats.MaxStage = int(stage)
		}
		s.applyReserveFloor(stage)
	}
	if stage >= brownout.StageDownlevel {
		s.brownoutDownlevel(now)
	}
	if stage >= brownout.StageShed {
		s.brownoutShed(now)
	}
	s.brownoutReleaseParked(now, stage)
	s.brownoutReleaseDeferred(now, stage)
}

// applyReserveFloor toggles the battery's state-of-charge floor with
// the reserve stage.
func (s *sim) applyReserveFloor(stage brownout.Stage) {
	bat := s.account.Battery
	if bat == nil {
		return
	}
	if stage >= brownout.StageReserve {
		if bat.ReserveFrac() == 0 && s.brown.cfg.ReserveFrac > 0 {
			s.brown.stats.ReserveHolds++
		}
		bat.SetReserveFrac(s.brown.cfg.ReserveFrac)
	} else {
		bat.SetReserveFrac(0)
	}
}

// brownoutDownlevel forces DVFS down-steps on the least-efficient busy
// processors until demand fits the renewable budget, one level per
// processor per evaluation and at most DownlevelFrac of the fleet.
// Unlike the matching loop this ignores deadline guards — at this
// stage supply compliance outranks service quality. This is where the
// Scan schemes' knowledge pays under duress: their efficiency order is
// the true one, so the cores they slow first really are the fleet's
// most wasteful.
func (s *sim) brownoutDownlevel(now units.Seconds) {
	if s.viewDemand() <= s.curWind {
		return
	}
	order := s.efficiencyOrder()
	budget := int(math.Ceil(s.brown.cfg.DownlevelFrac * float64(len(order))))
	for i := len(order) - 1; i >= 0 && budget > 0; i-- {
		if s.viewDemand() <= s.curWind {
			return
		}
		sl := s.dc.Current(order[i])
		if sl == nil || sl.Level == 0 {
			continue
		}
		s.dc.SetLevel(sl, sl.Level-1, now)
		s.scheduleCompletion(sl)
		s.brown.stats.DownlevelSteps++
		budget--
	}
}

// brownoutShed parks busy processors until demand fits the renewable
// budget: low-urgency slices first, least-efficient processors first
// within each class. A shed slice loses its progress and re-queues at
// the front of its (now parked) processor, to resume when the park is
// released; slices already shed MaxRestarts times are immune.
func (s *sim) brownoutShed(now units.Seconds) {
	b := s.brown
	order := s.efficiencyOrder()
	for _, urg := range []workload.Urgency{workload.LowUrgency, workload.HighUrgency} {
		for i := len(order) - 1; i >= 0; i-- {
			if s.viewDemand() <= s.curWind {
				return
			}
			id := order[i]
			sl := s.dc.Current(id)
			if sl == nil || sl.Job.Urgency != urg {
				continue
			}
			if b.restarts[sl.Serial] >= b.cfg.MaxRestarts {
				continue
			}
			pre := s.dc.Preempt(id, now)
			b.stats.SlicesShed++
			b.stats.ShedWork += units.Seconds((1 - pre.Remaining()) * float64(pre.Job.Runtime))
			pre.ResetWork()
			b.restarts[pre.Serial]++
			s.dc.Requeue(pre)
			if err := s.dc.ForceOffline(id, 0); err == nil {
				b.parkedAt[id] = now
				b.stats.ProcsParked++
			}
		}
	}
}

// brownoutReleaseParked returns parked processors to service once the
// ladder has stepped below the shed stage, or unconditionally after
// the MaxHold backstop.
func (s *sim) brownoutReleaseParked(now units.Seconds, stage brownout.Stage) {
	b := s.brown
	for id, at := range b.parkedAt {
		if at < 0 {
			continue
		}
		forced := now-at >= b.cfg.MaxHold
		if stage >= brownout.StageShed && !forced {
			continue
		}
		if started := s.dc.SetOnline(id, now); started != nil {
			s.scheduleCompletion(started)
		}
		b.parkedAt[id] = -1
		b.stats.ParkReleases++
		if forced && stage >= brownout.StageShed {
			b.stats.ForcedReleases++
		}
	}
}

// brownoutDefer reports whether job idx's admission should be held:
// only at the defer stage and above, only for low-urgency jobs, and
// never when the hold would already threaten the deadline.
func (s *sim) brownoutDefer(idx int, now units.Seconds) bool {
	b := s.brown
	if b.ladder.Stage() < brownout.StageDefer {
		return false
	}
	j := s.states[idx].job
	if j.Urgency == workload.HighUrgency {
		return false
	}
	if j.Deadline > 0 && now+units.Seconds(b.cfg.DeferSlack*float64(j.Runtime)) >= j.Deadline {
		return false
	}
	b.deferred = append(b.deferred, deferredJob{idx: idx, at: now})
	b.stats.JobsDeferred++
	return true
}

// brownoutReleaseDeferred admits held jobs once the ladder steps below
// the defer stage — and earlier for any individual job whose deadline
// slack has run out or whose hold hits the MaxHold backstop.
func (s *sim) brownoutReleaseDeferred(now units.Seconds, stage brownout.Stage) {
	b := s.brown
	if len(b.deferred) == 0 {
		return
	}
	keep := b.deferred[:0]
	for _, d := range b.deferred {
		j := s.states[d.idx].job
		pressed := j.Deadline > 0 && now+units.Seconds(b.cfg.DeferSlack*float64(j.Runtime)) >= j.Deadline
		if stage < brownout.StageDefer || pressed || now-d.at >= b.cfg.MaxHold {
			s.place(d.idx, now)
			b.stats.DeferredReleases++
		} else {
			keep = append(keep, d)
		}
	}
	b.deferred = keep
}

// finalizeBrownout closes the per-stage ledger when the last job
// completes and releases any processor still parked — rebalancing can
// drain a parked processor's queue, leaving its park with no remaining
// release trigger.
func (s *sim) finalizeBrownout(end units.Seconds) {
	b := s.brown
	s.brownoutAdvance(end)
	for id, at := range b.parkedAt {
		if at < 0 {
			continue
		}
		s.dc.SetOnline(id, end)
		b.parkedAt[id] = -1
		b.stats.ParkReleases++
	}
	b.stats.FinalStage = int(b.ladder.Stage())
}
