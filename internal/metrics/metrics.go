// Package metrics implements the evaluation's measurement machinery:
// the wind/utility energy split and cost accounting (Figures 5, 6, 8),
// the 350-second power-trace sampler (Figure 7), the processor
// utilization-time variance (Figure 9), and the required-node time
// profile (Figure 10).
package metrics

import (
	"fmt"
	"math"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/units"
)

// Prices is the energy tariff pair of Section VI.C.
type Prices struct {
	Utility units.USD // $/kWh; the paper's California rate is 0.13
	Wind    units.USD // $/kWh; the paper uses 0.05
}

// DefaultPrices returns the paper's tariffs.
func DefaultPrices() Prices { return Prices{Utility: 0.13, Wind: 0.05} }

// Account integrates the datacenter's energy consumption, splitting it
// between wind, battery and utility sources. Between calls to Advance
// both the demand and the wind supply are constant (the simulator
// advances the account before every power or supply change).
//
// With a Battery attached, surplus wind charges it and deficits draw
// from it before the grid; WindUsed then includes the wind energy
// absorbed into storage, and Demand (not WindUsed+Utility) is the true
// consumption integral.
type Account struct {
	last units.Seconds

	// Demand is the integral of the datacenter's power draw.
	Demand units.Joules
	// WindUsed is renewable energy actually consumed — served directly
	// to the load plus (when a battery is attached) absorbed into it.
	WindUsed units.Joules
	// Utility is grid energy consumed (demand beyond wind and storage).
	Utility units.Joules
	// WindAvailable is the total renewable energy offered, used or not.
	WindAvailable units.Joules

	// Battery optionally buffers surplus wind. BatteryCharged is the
	// wind-side energy absorbed; BatteryDelivered is the load-side
	// energy served from storage (the difference, plus any final state
	// of charge, is round-trip loss and stranded energy).
	Battery          *battery.Battery
	BatteryCharged   units.Joules
	BatteryDelivered units.Joules
}

// NewAccount starts accounting at time start.
func NewAccount(start units.Seconds) *Account { return &Account{last: start} }

// Advance integrates the interval [a.last, now] during which the
// datacenter drew demand and the wind farm offered wind. Calls with
// now <= last are no-ops, so callers may advance defensively. Tiny
// negative inputs (float drift from incremental demand bookkeeping)
// are clamped to zero.
func (a *Account) Advance(now units.Seconds, demand, wind units.Watts) {
	if now <= a.last {
		return
	}
	if demand < 0 {
		demand = 0
	}
	if wind < 0 {
		wind = 0
	}
	dt := now - a.last
	a.last = now
	a.Demand += demand.Over(dt)
	a.WindAvailable += wind.Over(dt)
	direct := demand
	if direct > wind {
		direct = wind
	}
	a.WindUsed += direct.Over(dt)
	switch {
	case demand > wind:
		deficit := (demand - wind).Over(dt)
		if a.Battery != nil {
			served := a.Battery.Discharge(demand-wind, dt)
			a.BatteryDelivered += served
			deficit -= served
		}
		a.Utility += deficit
	case wind > demand && a.Battery != nil:
		absorbed := a.Battery.Charge(wind-demand, dt)
		a.BatteryCharged += absorbed
		a.WindUsed += absorbed
	}
}

// AccountState is an Account snapshot for checkpointing. The integrals
// are stored verbatim — re-integrating from t=0 would split intervals
// differently and drift the floats off bit-identity.
type AccountState struct {
	Last             units.Seconds
	Demand           units.Joules
	WindUsed         units.Joules
	Utility          units.Joules
	WindAvailable    units.Joules
	BatteryCharged   units.Joules
	BatteryDelivered units.Joules
}

// CaptureState snapshots the account (the attached Battery snapshots
// separately via battery.Battery.CaptureState).
func (a *Account) CaptureState() AccountState {
	return AccountState{
		Last:             a.last,
		Demand:           a.Demand,
		WindUsed:         a.WindUsed,
		Utility:          a.Utility,
		WindAvailable:    a.WindAvailable,
		BatteryCharged:   a.BatteryCharged,
		BatteryDelivered: a.BatteryDelivered,
	}
}

// RestoreState overlays a snapshot onto the account.
func (a *Account) RestoreState(st AccountState) {
	a.last = st.Last
	a.Demand = st.Demand
	a.WindUsed = st.WindUsed
	a.Utility = st.Utility
	a.WindAvailable = st.WindAvailable
	a.BatteryCharged = st.BatteryCharged
	a.BatteryDelivered = st.BatteryDelivered
}

// Total returns the total energy consumed by the datacenter.
func (a *Account) Total() units.Joules { return a.Demand }

// Cost prices the consumption at the given tariffs.
func (a *Account) Cost(p Prices) units.USD {
	return a.WindUsed.Cost(p.Wind) + a.Utility.Cost(p.Utility)
}

// UtilityCost prices only the grid share.
func (a *Account) UtilityCost(p Prices) units.USD { return a.Utility.Cost(p.Utility) }

// WindUtilization is the fraction of offered wind energy consumed.
func (a *Account) WindUtilization() float64 {
	if a.WindAvailable <= 0 {
		return 0
	}
	return float64(a.WindUsed) / float64(a.WindAvailable)
}

// FaultStats aggregates the outcomes of one run's fault injection —
// the degradation ledger that proves a faulted run stayed conservative
// (work lost to re-execution is counted, never silently dropped).
type FaultStats struct {
	// Crashes counts processor failures taken (crashes arriving while a
	// node is already offline are absorbed by the ongoing outage).
	Crashes int
	// Requeues counts slices pushed back onto a queue after an
	// interruption: every crash of a busy processor and every margin
	// violation contributes one.
	Requeues int
	// FalsePassTrips counts runtime margin violations on chips the
	// scanner falsely passed; ReExecutions counts slices restarted from
	// scratch because of them.
	FalsePassTrips int
	ReExecutions   int
	// Reprofiles counts suspect chips whose emergency re-scan completed.
	Reprofiles int
	// BatteryFadeSteps counts applied capacity-fade events.
	BatteryFadeSteps int

	// LostWork is the discarded progress of re-executed slices, in
	// CPU-seconds at the top DVFS level.
	LostWork units.Seconds
	// DeratedEnergy is renewable energy the nominal forecast promised
	// but dropout windows withheld.
	DeratedEnergy units.Joules
	// FallbackVoltHours accumulates chip-hours spent at the worst-case
	// binning voltage while awaiting re-profile; RepairHours accumulates
	// node-hours offline for crash repair.
	FallbackVoltHours float64
	RepairHours       float64
	// BatteryCapacityLost is the total capacity removed by fade steps.
	BatteryCapacityLost units.Joules
}

// BrownoutStats is the brownout ladder's degradation ledger: how long
// the run spent at each rung, what each action cost, and proof that
// every degradation was eventually undone (deferrals released, parked
// processors returned).
type BrownoutStats struct {
	// Transitions counts stage changes in either direction; MaxStage is
	// the highest rung reached and FinalStage the rung at run end (0 in
	// any run whose supply recovered).
	Transitions int
	MaxStage    int
	FinalStage  int

	// StageDwell is the time spent at each rung; StageUtility is the
	// grid energy bought while there.
	StageDwell   [brownout.NumStages]units.Seconds
	StageUtility [brownout.NumStages]units.Joules

	// DownlevelSteps counts forced DVFS down-steps at the down-level
	// stage and above.
	DownlevelSteps int
	// JobsDeferred counts admissions held at the defer stage;
	// DeferredReleases counts holds later admitted. At run end they are
	// equal — every deferral is eventually placed.
	JobsDeferred     int
	DeferredReleases int
	// ReserveHolds counts activations of the battery reserve floor.
	ReserveHolds int
	// SlicesShed counts slices preempted at the shed stage; ShedWork is
	// the progress they discarded, in CPU-seconds at the top DVFS level.
	SlicesShed int
	ShedWork   units.Seconds
	// ProcsParked counts processors taken offline by shedding;
	// ParkReleases counts returns to service (ForcedReleases of them by
	// the MaxHold backstop rather than by pressure recovery). At run end
	// ProcsParked == ParkReleases — no processor stays parked.
	ProcsParked    int
	ParkReleases   int
	ForcedReleases int
}

// TelemetryStats is the sensor layer's degradation ledger: how wrong
// the scheduler's power view was, how long sensors were dark, and how
// often the misestimation guard degraded scheduling to conservative
// factory-bin assumptions.
type TelemetryStats struct {
	// Samples counts sensor sampling ticks; Sensors is the aggregate
	// sensor (node) count.
	Samples int
	Sensors int
	// MeanAbsErr/MaxAbsErr summarize the relative estimation error
	// |est - true| / true of fleet demand at sample ticks (ticks with
	// zero true demand are excluded from the mean).
	MeanAbsErr float64
	MaxAbsErr  float64
	// DropoutSeconds integrates sensor-seconds spent serving stale
	// last-known values (one sensor dark for one interval contributes
	// one interval).
	DropoutSeconds units.Seconds
	// GuardTrips counts transitions into the conservative fallback;
	// GuardSeconds is the total time spent there, and GuardActive
	// reports whether the run ended degraded.
	GuardTrips   int
	GuardSeconds units.Seconds
	GuardActive  bool
}

// TracePoint is one sample of the Figure 7 power trace.
type TracePoint struct {
	Time    units.Seconds
	Wind    units.Watts // offered wind power
	Demand  units.Watts // datacenter draw
	Utility units.Watts // grid share of the draw
}

// Sampler collects a regularly spaced power trace. The paper samples
// "through the working process every 350 seconds".
type Sampler struct {
	Interval units.Seconds
	Points   []TracePoint
}

// DefaultSampleInterval is the paper's Figure 7 sampling period.
const DefaultSampleInterval units.Seconds = 350

// NewSampler creates a sampler; interval <= 0 uses the default.
func NewSampler(interval units.Seconds) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{Interval: interval}
}

// Record appends a sample.
func (s *Sampler) Record(t units.Seconds, wind, demand units.Watts) {
	util := demand - wind
	if util < 0 {
		util = 0
	}
	s.Points = append(s.Points, TracePoint{Time: t, Wind: wind, Demand: demand, Utility: util})
}

// Variance returns the population variance of the samples (in the
// square of the sample unit). Used on processor utilization times for
// Figure 9.
func Variance(xs []units.Seconds) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	mean := sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		d := float64(x) - mean
		v += d * d
	}
	return v / float64(len(xs))
}

// Mean returns the arithmetic mean of the samples.
func Mean(xs []units.Seconds) units.Seconds {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return units.Seconds(sum / float64(len(xs)))
}

// NodeProfile is the Figure 10 required-node time series: the fraction
// of the fleet demanded by the workload at each sample.
type NodeProfile struct {
	Interval units.Seconds
	Required []float64 // fraction of total processors, in [0, +)
}

// NewNodeProfile allocates a profile covering duration at the given
// sampling interval.
func NewNodeProfile(duration, interval units.Seconds) (*NodeProfile, error) {
	if duration <= 0 || interval <= 0 {
		return nil, fmt.Errorf("metrics: duration and interval must be positive")
	}
	n := int(math.Ceil(float64(duration) / float64(interval)))
	return &NodeProfile{Interval: interval, Required: make([]float64, n)}, nil
}

// AddJob marks a job occupying frac of the fleet during [start, end).
func (np *NodeProfile) AddJob(start, end units.Seconds, frac float64) {
	if end <= start || frac <= 0 {
		return
	}
	i0 := int(float64(start) / float64(np.Interval))
	i1 := int(math.Ceil(float64(end) / float64(np.Interval)))
	if i0 < 0 {
		i0 = 0
	}
	for i := i0; i < i1 && i < len(np.Required); i++ {
		np.Required[i] += frac
	}
}

// FractionBelow returns the fraction of samples whose required-node
// share is under the threshold — the paper's "required processor less
// than 30% accounts for 27.2% time in one day".
func (np *NodeProfile) FractionBelow(threshold float64) float64 {
	if len(np.Required) == 0 {
		return 0
	}
	n := 0
	for _, r := range np.Required {
		if r < threshold {
			n++
		}
	}
	return float64(n) / float64(len(np.Required))
}
