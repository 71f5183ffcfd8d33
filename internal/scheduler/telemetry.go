package scheduler

import (
	"math"

	"iscope/internal/metrics"
	"iscope/internal/telemetry"
	"iscope/internal/units"
)

// ratioFloor is the true-power floor (in watts) below which a sensor
// calibration ratio is not trusted: with the fleet near idle the
// quantization step alone dwarfs the signal, and an est/true ratio
// computed there would swing the power view wildly on noise.
const ratioFloor = 1.0

// telemState is the sim-local runtime of a compiled sensor fleet: the
// telemetry model itself, the estimated power view the scheduler flies
// on (a calibration factor over its own ground-truth self-model,
// refreshed at every sample tick), the misestimation guard, and the
// degradation ledger. The metrics account and the invariant monitor
// never see any of this — they keep integrating true watts.
type telemState struct {
	model *telemetry.Model
	spec  telemetry.Spec // defaulted, horizon resolved

	// cons is the conservative factory-bin regime the guard degrades
	// level selection to while estimates are untrustworthy.
	cons Knowledge

	// demandFactor scales the scheduler's self-model of aggregate
	// demand (estimated/true at the last sample tick — dead reckoning
	// between samples); nodeRatio is the per-node analogue for
	// per-processor power estimates.
	demandFactor float64
	nodeRatio    []float64

	// guarded marks the conservative fallback engaged; guardSince is
	// when the open guard span started.
	guarded    bool
	guardSince units.Seconds

	stats  metrics.TelemetryStats
	errSum float64 // summed relative error over counted samples
	errN   int     // samples with positive true demand

	// Scratch reused every sample tick.
	trueAgg []float64
	estAgg  []float64
}

// newTelemState compiles the telemetry spec into a sensor model over
// the fleet. The horizon defaults exactly like the fault plan's: twice
// the workload span plus three days, so error injection outlives any
// plausible makespan. Streaming runs should set Spec.Horizon
// explicitly — the default derived from the seed trace would
// recalibrate the sensors short of late-injected jobs.
func newTelemState(cfg RunConfig, fleet *Fleet) (*telemState, error) {
	spec := cfg.Telemetry.WithDefaults()
	if spec.Horizon == 0 {
		var lastSubmit units.Seconds
		if cfg.Jobs != nil && len(cfg.Jobs.Jobs) > 0 {
			lastSubmit = cfg.Jobs.Jobs[len(cfg.Jobs.Jobs)-1].Submit
		}
		spec.Horizon = 2*lastSubmit + units.Days(3)
	}
	model, err := telemetry.Compile(spec, len(fleet.Chips), cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &telemState{
		model:        model,
		spec:         model.Spec(),
		cons:         NewBinKnowledge(fleet.Chips, fleet.PM, fleet.Binning),
		demandFactor: 1,
		nodeRatio:    make([]float64, model.Nodes()),
		trueAgg:      make([]float64, model.Nodes()),
		estAgg:       make([]float64, model.Nodes()),
	}
	for i := range t.nodeRatio {
		t.nodeRatio[i] = 1
	}
	t.stats.Sensors = model.Nodes()
	return t, nil
}

// onTelemetry is the periodic sensor sampling tick: aggregate true
// per-node power from the cluster's bookkeeping, read it through the
// error model, recalibrate the estimated power view, and run the
// misestimation guard against ground truth.
func (s *sim) onTelemetry(now units.Seconds) {
	s.sync(now)
	t := s.telem
	for i := range t.trueAgg {
		t.trueAgg[i] = 0
	}
	for id := range s.dc.Len() {
		t.trueAgg[t.model.NodeOf(id)] += float64(s.dc.ProcDraw(id))
	}
	dropped := t.model.Sample(now, t.trueAgg, t.estAgg)

	var trueSum, estSum float64
	for i := range t.trueAgg {
		trueSum += t.trueAgg[i]
		estSum += t.estAgg[i]
		if t.trueAgg[i] > ratioFloor {
			t.nodeRatio[i] = t.estAgg[i] / t.trueAgg[i]
		} else {
			t.nodeRatio[i] = 1
		}
	}
	if trueSum > ratioFloor {
		t.demandFactor = estSum / trueSum
	} else {
		t.demandFactor = 1
	}

	t.stats.Samples++
	t.stats.DropoutSeconds += units.Seconds(float64(dropped) * float64(t.spec.SampleInterval))
	relErr := 0.0
	if trueSum > ratioFloor {
		relErr = math.Abs(estSum-trueSum) / trueSum
		t.errSum += relErr
		t.errN++
		if relErr > t.stats.MaxAbsErr {
			t.stats.MaxAbsErr = relErr
		}
	}

	// Misestimation guard: comparing the estimate budget against the
	// ground-truth accounting is the one thing a real facility can do
	// too (the utility meter is trustworthy even when rack sensors are
	// not). Entering is an advisory, never a violation — the system is
	// degrading exactly as designed. Hysteresis at half the margin
	// keeps the fallback from flapping on a borderline error.
	switch {
	case !t.guarded && relErr > t.spec.GuardMargin:
		t.guarded = true
		t.guardSince = now
		t.stats.GuardTrips++
		if s.mon != nil {
			s.mon.Warnf("telemetry-guard", now,
				"estimated demand diverges %.1f%% from ground truth (margin %.1f%%); degrading to factory-bin power assumptions",
				100*relErr, 100*t.spec.GuardMargin)
		}
	case t.guarded && relErr < t.spec.GuardMargin/2:
		t.guarded = false
		t.stats.GuardSeconds += now - t.guardSince
	}

	if s.moreWork() {
		_ = s.eng.AfterTag(t.spec.SampleInterval, engineTag{Kind: tagTelemetry})
	}
}

// viewDemand is the aggregate demand the scheduler acts on: ground
// truth when telemetry is disabled, the sensor-calibrated estimate
// otherwise. Guarded runs clamp the factor at one — conservative
// scheduling must never believe demand is lower than it might be.
func (s *sim) viewDemand() units.Watts {
	if s.telem == nil {
		return s.dc.Demand()
	}
	f := s.telem.demandFactor
	if s.telem.guarded && f < 1 {
		f = 1
	}
	return units.Watts(float64(s.dc.Demand()) * f)
}

// viewProcPower is the per-processor draw the scheduler believes,
// scaled by the covering node sensor's calibration ratio.
func (s *sim) viewProcPower(id, level int) units.Watts {
	if s.telem == nil {
		return s.dc.ProcPower(id, level)
	}
	r := s.telem.nodeRatio[s.telem.model.NodeOf(id)]
	if s.telem.guarded && r < 1 {
		r = 1
	}
	return units.Watts(float64(s.dc.ProcPower(id, level)) * r)
}

// estPower is the believed CPU power behind level selection. A guarded
// run falls back to the factory-bin datasheet — the conservative
// worst-member numbers every scheme can trust with no telemetry at all.
func (s *sim) estPower(id, l int) units.Watts {
	if s.telem != nil && s.telem.guarded {
		return s.telem.cons.EstPower(id, l)
	}
	return s.know.EstPower(id, l)
}

// finalizeTelemetry settles the ledger when the last job completes:
// close an open guard span and fold the error sum into its mean.
func (s *sim) finalizeTelemetry(end units.Seconds) {
	t := s.telem
	if t.guarded {
		t.stats.GuardSeconds += end - t.guardSince
		t.stats.GuardActive = true
	}
	if t.errN > 0 {
		t.stats.MeanAbsErr = t.errSum / float64(t.errN)
	}
}
