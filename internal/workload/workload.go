// Package workload provides the job substrate: a parser/writer for the
// Standard Workload Format (SWF) used by the Parallel Workloads Archive
// (the paper evaluates the LLNL Thunder trace), a synthetic
// Thunder-like trace generator, deadline/urgency assignment, and the
// arrival-rate scaling knob used in Figures 5, 6.
package workload

import (
	"fmt"
	"math"
	"sort"

	"iscope/internal/rng"
	"iscope/internal/units"
)

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Urgency classifies a job's deadline tightness (Section V.D).
type Urgency int

const (
	// LowUrgency jobs get deadlines ~N(12, sqrt 2) x runtime.
	LowUrgency Urgency = iota
	// HighUrgency jobs get deadlines ~N(4, sqrt 2) x runtime and must be
	// treated with higher priority.
	HighUrgency
)

func (u Urgency) String() string {
	if u == HighUrgency {
		return "HU"
	}
	return "LU"
}

// Job is one task in the simulator's sense: it arrives dynamically with
// a requested number of CPUs, a CPU-boundness, an estimated execution
// time at a reference frequency, and a completion deadline (Section
// IV.A).
type Job struct {
	ID        int
	Submit    units.Seconds // arrival time
	Procs     int           // requested number of CPUs
	Runtime   units.Seconds // execution time at the top DVFS level
	Boundness float64       // gamma in Eq-3, 1 = fully CPU-bound
	Urgency   Urgency
	Deadline  units.Seconds // absolute completion deadline; 0 = unset
}

// Trace is an ordered job stream.
type Trace struct {
	Jobs []Job
}

// Validate checks one job's own fields: finite times, a positive
// processor count and runtime, boundness in [0,1], and a deadline, when
// set, no earlier than Submit + Runtime. The finiteness checks are
// explicit because NaN slips through every ordered comparison (NaN <= 0
// is false) and would otherwise poison the event queue downstream.
func (j *Job) Validate() error {
	switch {
	case !finite(float64(j.Submit)) || !finite(float64(j.Runtime)) ||
		!finite(float64(j.Deadline)) || !finite(j.Boundness):
		return fmt.Errorf("workload: job %d has non-finite fields", j.ID)
	case j.Procs <= 0:
		return fmt.Errorf("workload: job %d requests %d procs", j.ID, j.Procs)
	case j.Runtime <= 0:
		return fmt.Errorf("workload: job %d has runtime %v", j.ID, j.Runtime)
	case j.Boundness < 0 || j.Boundness > 1:
		return fmt.Errorf("workload: job %d boundness %v outside [0,1]", j.ID, j.Boundness)
	case j.Deadline != 0 && j.Deadline < j.Submit+j.Runtime:
		return fmt.Errorf("workload: job %d deadline before earliest completion", j.ID)
	}
	return nil
}

// Validate checks every job (Job.Validate) and that jobs are sorted by
// submit time.
func (t *Trace) Validate() error {
	for i := range t.Jobs {
		if err := t.Jobs[i].Validate(); err != nil {
			return err
		}
		if i > 0 && t.Jobs[i].Submit < t.Jobs[i-1].Submit {
			return fmt.Errorf("workload: jobs not sorted by submit time at index %d", i)
		}
	}
	return nil
}

// SortBySubmit orders jobs by arrival (stable on ID for ties).
func (t *Trace) SortBySubmit() {
	sort.SliceStable(t.Jobs, func(a, b int) bool {
		if t.Jobs[a].Submit != t.Jobs[b].Submit {
			return t.Jobs[a].Submit < t.Jobs[b].Submit
		}
		return t.Jobs[a].ID < t.Jobs[b].ID
	})
}

// ScaleArrival compresses submit times by the given rate factor: "an
// arrival rate of 5X indicates the adjusted task submit time is 20% of
// the origin setting" (Section V.D). Deadlines keep their relative
// slack: the deadline-to-submit gap is preserved, only arrival moves.
func (t *Trace) ScaleArrival(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	for i := range t.Jobs {
		j := &t.Jobs[i]
		slack := j.Deadline - j.Submit
		j.Submit = units.Seconds(float64(j.Submit) / rate)
		if j.Deadline != 0 {
			j.Deadline = j.Submit + slack
		}
	}
	return nil
}

// DeadlineConfig parametrizes urgency-class deadline assignment
// (Section V.D, following Garg et al.).
type DeadlineConfig struct {
	Seed uint64
	// HUFraction is the fraction of jobs assigned to the high-urgency
	// class — the x-axis of Figures 5(A) and 6(A)(C).
	HUFraction float64
	// HUMean/LUMean are the deadline multipliers' means (4 and 12 in the
	// paper); both distributions have variance 2.
	HUMean, LUMean float64
	// MinFactor floors the multiplier so every deadline remains
	// achievable at the top frequency with a little scheduling slack.
	MinFactor float64
}

// DefaultDeadlines returns the paper's deadline parameters.
func DefaultDeadlines(seed uint64, huFraction float64) DeadlineConfig {
	return DeadlineConfig{
		Seed:       seed,
		HUFraction: huFraction,
		HUMean:     4,
		LUMean:     12,
		MinFactor:  1.3,
	}
}

// AssignDeadlines classifies every job HU/LU and sets its deadline to
// submit + factor*runtime, factor ~ N(mean, sqrt 2) truncated below at
// MinFactor.
func (t *Trace) AssignDeadlines(cfg DeadlineConfig) error {
	if cfg.HUFraction < 0 || cfg.HUFraction > 1 {
		return fmt.Errorf("workload: HU fraction %v outside [0,1]", cfg.HUFraction)
	}
	if cfg.HUMean <= cfg.MinFactor || cfg.LUMean <= cfg.MinFactor {
		return fmt.Errorf("workload: deadline means must exceed MinFactor")
	}
	r := rng.Named(cfg.Seed, "deadlines")
	const sigma = 1.4142135623730951 // sqrt(2): the paper's variance of 2
	for i := range t.Jobs {
		j := &t.Jobs[i]
		mean := cfg.LUMean
		j.Urgency = LowUrgency
		if r.Float64() < cfg.HUFraction {
			mean = cfg.HUMean
			j.Urgency = HighUrgency
		}
		factor := r.TruncNormal(mean, sigma, cfg.MinFactor, mean+6*sigma)
		j.Deadline = j.Submit + units.Seconds(factor*float64(j.Runtime))
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	Jobs        int
	TotalProcs  int // sum of requested CPUs
	MaxProcs    int
	Span        units.Seconds // last submit - first submit
	TotalWork   units.Seconds // sum of procs*runtime (CPU-seconds at Fmax)
	HUFraction  float64
	MeanRuntime units.Seconds
}

// ComputeStats summarizes the trace.
func (t *Trace) ComputeStats() Stats {
	var s Stats
	s.Jobs = len(t.Jobs)
	if s.Jobs == 0 {
		return s
	}
	hu := 0
	var runtimeSum units.Seconds
	for _, j := range t.Jobs {
		s.TotalProcs += j.Procs
		if j.Procs > s.MaxProcs {
			s.MaxProcs = j.Procs
		}
		s.TotalWork += units.Seconds(float64(j.Runtime) * float64(j.Procs))
		runtimeSum += j.Runtime
		if j.Urgency == HighUrgency {
			hu++
		}
	}
	s.Span = t.Jobs[len(t.Jobs)-1].Submit - t.Jobs[0].Submit
	s.HUFraction = float64(hu) / float64(s.Jobs)
	s.MeanRuntime = runtimeSum / units.Seconds(float64(s.Jobs))
	return s
}

// Clone deep-copies the trace so parameter sweeps can mutate
// independently.
func (t *Trace) Clone() *Trace {
	return &Trace{Jobs: append([]Job(nil), t.Jobs...)}
}
