package scheduler

import (
	"iscope/internal/cluster"
	"iscope/internal/faults"
	"iscope/internal/metrics"
	"iscope/internal/units"
)

// reprofileDraw is the power a suspect chip draws while its emergency
// re-scan runs — the same 115 W the profiling tester uses.
const reprofileDraw units.Watts = 115

type victimKey struct{ chip, level int }

// faultState is the sim-local runtime of a compiled fault plan. All
// voltage corrections live in the override array, never in the shared
// Fleet (whose scan DB is reused across schemes and runs).
type faultState struct {
	plan  *faults.Plan
	spec  faults.Spec
	stats metrics.FaultStats

	levels int
	guard  units.Volts // in-cloud guardband for corrected profiles

	// victims holds the not-yet-tripped false passes keyed by
	// (chip, bad level).
	victims map[victimKey]faults.FalsePass
	// reprofiling holds the tripped false pass of each chip whose
	// emergency re-profile is in flight; the tagReprofiled event
	// carries only the chip. One slot per chip is enough:
	// onMarginViolation takes the chip offline before arming the
	// re-profile, onCrash, maybeProfile and brownout parking all skip
	// chips that are offline or idle, and only onReprofiled brings it
	// back, so no second margin violation can trip on it in between.
	// The map is only ever indexed, never ranged over, so its order
	// reaches no byte.
	reprofiling map[int]faults.FalsePass
	// override[chip*levels+level], when positive, replaces the
	// knowledge regime's operating voltage (worst-case fallback while a
	// suspect chip awaits re-profile, then its corrected MinVdd+guard).
	override []units.Volts

	// supplyFactor is the current renewable derating multiplier.
	supplyFactor float64
	// last is the fault ledger's integration frontier (derated energy).
	last units.Seconds

	// fallbackSince/repairSince track open degradation spans per chip,
	// -1 when closed.
	fallbackSince []units.Seconds
	repairSince   []units.Seconds
}

// newFaultState compiles the spec into a plan and allocates runtime
// bookkeeping. The horizon defaults to twice the workload span plus
// three days, so faults keep arriving through any plausible makespan.
func newFaultState(cfg RunConfig, fleet *Fleet, guard units.Volts) (*faultState, error) {
	spec := cfg.Faults.WithDefaults()
	if spec.Horizon == 0 {
		// Streaming runs may start with an empty (or partial) trace; set
		// Spec.Horizon explicitly there — the default horizon derived from
		// the seed trace would stop faults short of late-injected jobs.
		var lastSubmit units.Seconds
		if cfg.Jobs != nil && len(cfg.Jobs.Jobs) > 0 {
			lastSubmit = cfg.Jobs.Jobs[len(cfg.Jobs.Jobs)-1].Submit
		}
		spec.Horizon = 2*lastSubmit + units.Days(3)
	}
	levels := fleet.PM.Table.NumLevels()
	plan, err := faults.Compile(spec, len(fleet.Chips), levels, cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &faultState{
		plan:          plan,
		spec:          spec,
		levels:        levels,
		guard:         guard,
		victims:       make(map[victimKey]faults.FalsePass, len(plan.FalsePasses)),
		reprofiling:   make(map[int]faults.FalsePass),
		override:      make([]units.Volts, len(fleet.Chips)*levels),
		supplyFactor:  1,
		fallbackSince: make([]units.Seconds, len(fleet.Chips)),
		repairSince:   make([]units.Seconds, len(fleet.Chips)),
	}
	for i := range f.fallbackSince {
		f.fallbackSince[i] = -1
		f.repairSince[i] = -1
	}
	for _, fp := range plan.FalsePasses {
		f.victims[victimKey{fp.Chip, fp.Level}] = fp
	}
	return f, nil
}

// trueMinVdd is the ground-truth minimum voltage of a falsely-passed
// chip at its bad level: DriftFrac of the way from the believed
// operating point up to the factory worst-case binning voltage.
func (s *sim) trueMinVdd(fp faults.FalsePass) units.Volts {
	base := s.know.Vdd(fp.Chip, fp.Level)
	safe := s.fleet.Binning.Vdd(fp.Chip, fp.Level)
	if safe < base {
		safe = base
	}
	return base + units.Volts(fp.DriftFrac*float64(safe-base))
}

// scheduleFaultEvents arms the compiled plan on the event loop. Supply
// events are dropped in utility-only runs and fade events without a
// battery — they would be no-ops with no one to observe them.
func (s *sim) scheduleFaultEvents() {
	for i, ev := range s.faults.plan.Events {
		if !s.faultEventObserved(i) {
			continue
		}
		_ = s.eng.ScheduleTag(ev.At, engineTag{Kind: tagFaultEvent, A: int32(i)})
	}
}

// faultEventObserved reports whether plan event i has an observer under
// this configuration. Because the plan is recompiled deterministically
// from (spec, seed) on resume, the index is a stable serializable
// handle for the pending event.
func (s *sim) faultEventObserved(i int) bool {
	if i < 0 || i >= len(s.faults.plan.Events) {
		return false
	}
	switch s.faults.plan.Events[i].Kind {
	case faults.Crash:
		return true
	case faults.DerateStart, faults.DerateEnd:
		return s.cfg.Wind != nil
	case faults.BatteryFade:
		return s.account.Battery != nil
	}
	return false
}

// onFaultEvent fires plan event i from the tag dispatcher.
func (s *sim) onFaultEvent(i int, now units.Seconds) {
	ev := s.faults.plan.Events[i]
	switch ev.Kind {
	case faults.Crash:
		s.onCrash(ev.Proc, ev.Dur, now)
	case faults.DerateStart, faults.DerateEnd:
		s.onSupplyFactor(ev.Factor, now)
	case faults.BatteryFade:
		s.onBatteryFade(ev.Factor, now)
	}
}

// onCrash fails processor id: the running slice (if any) is preempted
// and requeued with its remaining work, and the node goes offline for
// the repair interval. A crash landing on a node that is already
// offline (under repair, re-profile or opportunistic scan) is absorbed
// by the ongoing outage.
func (s *sim) onCrash(id int, repair, now units.Seconds) {
	if s.dc.Offline(id) {
		return
	}
	s.sync(now)
	f := s.faults
	f.stats.Crashes++
	if pre := s.dc.Preempt(id, now); pre != nil {
		f.stats.Requeues++
		s.dc.Requeue(pre)
	}
	if err := s.dc.ForceOffline(id, 0); err != nil {
		return
	}
	f.repairSince[id] = now
	_ = s.eng.AfterTag(repair, engineTag{Kind: tagRepaired, A: int32(id)})
}

// onRepaired returns a crashed processor to service and restarts its
// queue head.
func (s *sim) onRepaired(id int, now units.Seconds) {
	s.sync(now)
	f := s.faults
	if since := f.repairSince[id]; since >= 0 {
		f.stats.RepairHours += float64(now-since) / 3600
		f.repairSince[id] = -1
	}
	if started := s.dc.SetOnline(id, now); started != nil {
		s.scheduleCompletion(started)
	}
}

// onSupplyFactor applies a renewable derating (or forecast-surplus)
// multiplier from now on.
func (s *sim) onSupplyFactor(factor float64, now units.Seconds) {
	s.sync(now)
	s.faults.supplyFactor = factor
	s.curWind = s.deratedWind(s.nominalWind)
	// A supply step is exactly what the brownout ladder watches; give it
	// an evaluation immediately instead of waiting for the next tick.
	if s.brown != nil {
		s.brownoutEvaluate(now)
	}
}

// deratedWind maps the nominal renewable supply to the faulted one.
func (s *sim) deratedWind(w units.Watts) units.Watts {
	if s.faults == nil || s.faults.supplyFactor == 1 {
		return w
	}
	return units.Watts(float64(w) * s.faults.supplyFactor)
}

// onBatteryFade shrinks storage capacity by the step fraction.
func (s *sim) onBatteryFade(frac float64, now units.Seconds) {
	s.sync(now)
	f := s.faults
	f.stats.BatteryFadeSteps++
	f.stats.BatteryCapacityLost += s.account.Battery.Fade(frac)
}

// armFalsePass checks a freshly (re)started slice against the victim
// table: running a falsely-passed chip at its bad level below the true
// minimum voltage trips a margin violation after the detection latency
// (capped at half the slice's span so short slices still trip before
// completing).
func (s *sim) armFalsePass(sl *cluster.Slice) {
	f := s.faults
	fp, ok := f.victims[victimKey{sl.ProcID, sl.Level}]
	if !ok {
		return
	}
	if s.dc.Volt(sl.ProcID, sl.Level)+1e-9 >= s.trueMinVdd(fp) {
		return // current operating point covers the drift
	}
	now := s.eng.Now()
	latency := f.spec.DetectLatency
	if half := (sl.Finish - now) / 2; half < latency {
		latency = half
	}
	if latency < 0 {
		latency = 0
	}
	_ = s.eng.AfterTag(latency, engineTag{Kind: tagMargin, A: int32(sl.Serial), B: int32(sl.Gen), C: int32(sl.Level)})
}

// onMarginViolation fires when a falsely-passed chip corrupts its
// slice: the slice's progress is discarded and it re-executes from
// scratch, the chip falls back to its worst-case binning voltage at
// every level, and an emergency re-profile takes the node offline.
func (s *sim) onMarginViolation(sl *cluster.Slice, gen, level int, now units.Seconds) {
	if sl.Gen != gen || !sl.Running() || sl.Level != level {
		return // retimed, migrated or preempted since armed
	}
	f := s.faults
	id := sl.ProcID
	fp, ok := f.victims[victimKey{id, level}]
	if !ok {
		return
	}
	s.sync(now)
	f.stats.FalsePassTrips++
	f.stats.ReExecutions++
	f.stats.Requeues++
	pre := s.dc.Preempt(id, now)
	f.stats.LostWork += units.Seconds((1 - pre.Remaining()) * float64(pre.Job.Runtime))
	pre.ResetWork()
	s.dc.Requeue(pre)

	for l := 0; l < f.levels; l++ {
		f.override[id*f.levels+l] = s.fleet.Binning.Vdd(id, l)
	}
	// The worst-case fallback changes this chip's operating voltages.
	s.dc.InvalidatePower(id)
	f.fallbackSince[id] = now
	delete(f.victims, victimKey{id, level})

	if err := s.dc.ForceOffline(id, reprofileDraw); err != nil {
		return
	}
	f.reprofiling[id] = fp
	_ = s.eng.AfterTag(f.spec.ReprofileTime, engineTag{Kind: tagReprofiled, A: int32(id)})
}

// onReprofiled completes a suspect chip's emergency re-scan: the
// worst-case fallback is lifted everywhere except the bad level, which
// now operates at the corrected true minimum plus the in-cloud guard.
func (s *sim) onReprofiled(id int, now units.Seconds) {
	s.sync(now)
	f := s.faults
	fp := f.reprofiling[id]
	delete(f.reprofiling, id)
	f.stats.Reprofiles++
	if since := f.fallbackSince[id]; since >= 0 {
		f.stats.FallbackVoltHours += float64(now-since) / 3600
		f.fallbackSince[id] = -1
	}
	for l := 0; l < f.levels; l++ {
		f.override[id*f.levels+l] = 0
	}
	corrected := s.trueMinVdd(fp) + f.guard
	if safe := s.fleet.Binning.Vdd(id, fp.Level); corrected > safe {
		corrected = safe
	}
	f.override[id*f.levels+fp.Level] = corrected
	// Lifting the fallback (and pinning the corrected level) is another
	// voltage-regime change for this chip.
	s.dc.InvalidatePower(id)
	if started := s.dc.SetOnline(id, now); started != nil {
		s.scheduleCompletion(started)
	}
}

// faultAdvance integrates the fault ledger (derated supply energy) up
// to now; called from sync before the energy account advances.
func (s *sim) faultAdvance(now units.Seconds) {
	f := s.faults
	if now <= f.last {
		return
	}
	if s.curWind < s.nominalWind {
		f.stats.DeratedEnergy += (s.nominalWind - s.curWind).Over(now - f.last)
	}
	f.last = now
}

// finalizeFaults closes degradation spans still open when the last job
// completes.
func (s *sim) finalizeFaults(end units.Seconds) {
	f := s.faults
	for id := range f.repairSince {
		if since := f.repairSince[id]; since >= 0 {
			f.stats.RepairHours += float64(end-since) / 3600
			f.repairSince[id] = -1
		}
		if since := f.fallbackSince[id]; since >= 0 {
			f.stats.FallbackVoltHours += float64(end-since) / 3600
			f.fallbackSince[id] = -1
		}
	}
}
