// Package telemetry models the power-sensing layer a real datacenter
// schedules on: per-node aggregate sensors with a seed-driven error
// model (gaussian noise, calibration drift, quantization) and
// injectable sensor fault classes (dropout with last-known-value
// staleness, stuck-at readings, spike transients), plus a
// WattScope-style disaggregator that attributes a node aggregate back
// to per-proc estimates in proportion to the scheduler's own power
// model. The simulator's ground truth (internal/power via the cluster)
// stays untouched — the metrics account and the invariant monitor keep
// integrating real watts — while the scheduler flies on what the
// sensors say. Like internal/faults, everything is compiled ahead of
// time from a Spec using dedicated rng split-streams: the same
// (Spec, procs, seed) always yields the identical sensor behaviour,
// and a zero Spec means perfect sensors, which the scheduler elides
// entirely so results stay bit-identical to the oracle path.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"iscope/internal/rng"
	"iscope/internal/units"
)

// Spec parametrizes the sensor error model and fault classes. The zero
// value is a perfect sensor layer and disables telemetry entirely; each
// error source activates independently when its field is positive.
type Spec struct {
	// SampleInterval is the sensor sampling period; the scheduler reads
	// every node aggregate once per interval and recalibrates its
	// estimated power view. 0 -> 60 s when the spec is enabled.
	SampleInterval units.Seconds

	// NoiseFrac is the gaussian read-noise sigma as a fraction of the
	// true reading (0.02 = 2% of the instantaneous node power).
	NoiseFrac float64

	// DriftFracPerDay is the calibration drift bound: each sensor's
	// gain error grows linearly at a per-sensor rate drawn from
	// Uniform(-DriftFracPerDay, +DriftFracPerDay) per day.
	DriftFracPerDay float64

	// QuantStep is the sensor ADC resolution in watts; readings are
	// rounded to the nearest step. 0 disables quantization.
	QuantStep float64

	// ProcsPerNode is how many processors share one aggregate sensor
	// (node i covers procs [i*n, (i+1)*n)). 0 -> 4.
	ProcsPerNode int

	// DropoutsPerDay is the per-sensor rate of dropout windows during
	// which the sensor returns its last known value (staleness) — or
	// zero if it has never read. Window durations are exponential with
	// mean DropoutMeanDur (0 -> 10 minutes).
	DropoutsPerDay float64
	DropoutMeanDur units.Seconds

	// StuckFrac is the fraction of sensors that freeze: past a random
	// onset each victim repeats its first post-onset reading forever
	// (until the horizon). A positive fraction sticks at least one.
	StuckFrac float64

	// SpikesPerDay is the per-sensor rate of one-sample transients that
	// multiply the reading by 1 +/- SpikeFrac (sign drawn per spike;
	// SpikeFrac 0 -> 0.5 when spikes are active).
	SpikesPerDay float64
	SpikeFrac    float64

	// GuardMargin is the misestimation guard threshold: when the
	// estimated demand diverges from ground-truth accounting by more
	// than this relative margin at a sample tick, the scheduler
	// degrades to conservative factory-bin power assumptions until the
	// divergence falls below half the margin. 0 -> 0.15.
	GuardMargin float64

	// Horizon bounds error injection; past it sensors read true (the
	// sensor fleet is recalibrated/replaced). The scheduler derives a
	// default from the workload span when 0, matching internal/faults.
	Horizon units.Seconds
}

// DefaultSpec returns a production-plausible sensor environment: 60 s
// sampling, 2% read noise, up to 1%/day calibration drift, 5 W
// quantization, 4 procs per node sensor, one 10-minute dropout per
// sensor-day, a rare half-magnitude spike, and a 15% guard margin.
func DefaultSpec() Spec {
	return Spec{
		SampleInterval:  60,
		NoiseFrac:       0.02,
		DriftFracPerDay: 0.01,
		QuantStep:       5,
		ProcsPerNode:    4,
		DropoutsPerDay:  1,
		DropoutMeanDur:  units.Minutes(10),
		SpikesPerDay:    0.5,
		SpikeFrac:       0.5,
		GuardMargin:     0.15,
	}
}

// Validate reports malformed fields.
func (s Spec) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"sample interval", float64(s.SampleInterval)},
		{"noise fraction", s.NoiseFrac},
		{"drift per day", s.DriftFracPerDay},
		{"quantization step", s.QuantStep},
		{"dropout rate", s.DropoutsPerDay},
		{"dropout duration", float64(s.DropoutMeanDur)},
		{"stuck fraction", s.StuckFrac},
		{"spike rate", s.SpikesPerDay},
		{"spike magnitude", s.SpikeFrac},
		{"guard margin", s.GuardMargin},
		{"horizon", float64(s.Horizon)},
	} {
		// NaN slips through ordered comparisons and an infinite horizon
		// or rate would make Compile's window loops spin forever, so
		// finiteness is checked up front, exactly like internal/faults.
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("telemetry: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case s.SampleInterval < 0:
		return fmt.Errorf("telemetry: negative sample interval")
	case s.NoiseFrac < 0 || s.NoiseFrac > 1:
		return fmt.Errorf("telemetry: noise fraction %v outside [0,1]", s.NoiseFrac)
	case s.DriftFracPerDay < 0 || s.DriftFracPerDay > 1:
		return fmt.Errorf("telemetry: drift %v/day outside [0,1]", s.DriftFracPerDay)
	case s.QuantStep < 0:
		return fmt.Errorf("telemetry: negative quantization step")
	case s.ProcsPerNode < 0:
		return fmt.Errorf("telemetry: negative procs per node")
	case s.DropoutsPerDay < 0 || s.DropoutMeanDur < 0:
		return fmt.Errorf("telemetry: dropout rate and duration must be non-negative")
	case s.StuckFrac < 0 || s.StuckFrac > 1:
		return fmt.Errorf("telemetry: stuck fraction %v outside [0,1]", s.StuckFrac)
	case s.SpikesPerDay < 0:
		return fmt.Errorf("telemetry: negative spike rate")
	case s.SpikeFrac < 0 || s.SpikeFrac > 1:
		return fmt.Errorf("telemetry: spike magnitude %v outside [0,1]", s.SpikeFrac)
	case s.GuardMargin < 0 || s.GuardMargin > 1:
		return fmt.Errorf("telemetry: guard margin %v outside [0,1]", s.GuardMargin)
	case s.Horizon < 0:
		return fmt.Errorf("telemetry: negative horizon")
	}
	return nil
}

// Enabled reports whether any error source is active. A disabled Spec
// is a perfect sensor layer: the scheduler skips telemetry wiring
// entirely, because sensors that read true watts with no delay, noise
// or faults carry exactly the information the oracle path already has,
// so eliding them keeps results bit-identical by construction.
func (s Spec) Enabled() bool {
	return s.NoiseFrac > 0 || s.DriftFracPerDay > 0 || s.QuantStep > 0 ||
		s.DropoutsPerDay > 0 || s.StuckFrac > 0 || s.SpikesPerDay > 0
}

// WithDefaults fills the secondary parameters of each active source.
func (s Spec) WithDefaults() Spec {
	out := s
	if !out.Enabled() {
		return out
	}
	if out.SampleInterval == 0 {
		out.SampleInterval = 60
	}
	if out.ProcsPerNode == 0 {
		out.ProcsPerNode = 4
	}
	if out.GuardMargin == 0 {
		out.GuardMargin = 0.15
	}
	if out.DropoutsPerDay > 0 && out.DropoutMeanDur == 0 {
		out.DropoutMeanDur = units.Minutes(10)
	}
	if out.SpikesPerDay > 0 && out.SpikeFrac == 0 {
		out.SpikeFrac = 0.5
	}
	return out
}

// ParseSpec builds a Spec from a compact comma-separated key=value
// string, the cmd/iscope -telemetry-spec syntax. Unset keys keep
// DefaultSpec's values. Keys:
//
//	interval  sensor sampling period (duration, e.g. 30s, or plain seconds)
//	noise     gaussian read-noise sigma as a fraction of the reading
//	drift     calibration drift bound (fraction per day)
//	quant     quantization step in watts
//	node      processors per aggregate sensor (integer)
//	dropouts  dropout windows per sensor-day
//	dropmean  mean dropout duration (duration or seconds)
//	stuck     fraction of sensors that freeze after a random onset
//	spikes    spike transients per sensor-day
//	spikemag  spike magnitude (reading multiplied by 1 +/- spikemag)
//	margin    misestimation guard threshold (relative)
//	horizon   error-injection horizon (duration or seconds; 0 = run span)
//
// Example: "noise=0.1,drift=0.05,dropouts=6,stuck=0.1,margin=0.2".
func ParseSpec(spec string) (Spec, error) {
	out := DefaultSpec()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return out, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("telemetry: spec entry %q is not key=value", kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		var err error
		switch k {
		case "interval":
			out.SampleInterval, err = parseDuration(v)
		case "noise":
			out.NoiseFrac, err = strconv.ParseFloat(v, 64)
		case "drift":
			out.DriftFracPerDay, err = strconv.ParseFloat(v, 64)
		case "quant":
			out.QuantStep, err = strconv.ParseFloat(v, 64)
		case "node":
			out.ProcsPerNode, err = strconv.Atoi(v)
		case "dropouts":
			out.DropoutsPerDay, err = strconv.ParseFloat(v, 64)
		case "dropmean":
			out.DropoutMeanDur, err = parseDuration(v)
		case "stuck":
			out.StuckFrac, err = strconv.ParseFloat(v, 64)
		case "spikes":
			out.SpikesPerDay, err = strconv.ParseFloat(v, 64)
		case "spikemag":
			out.SpikeFrac, err = strconv.ParseFloat(v, 64)
		case "margin":
			out.GuardMargin, err = strconv.ParseFloat(v, 64)
		case "horizon":
			out.Horizon, err = parseDuration(v)
		default:
			return Spec{}, fmt.Errorf("telemetry: unknown spec key %q", k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("telemetry: spec key %q: %w", k, err)
		}
	}
	if err := out.Validate(); err != nil {
		return Spec{}, err
	}
	return out, nil
}

// parseDuration accepts Go duration syntax ("45m", "2h") or a plain
// number of seconds.
func parseDuration(v string) (units.Seconds, error) {
	if d, err := time.ParseDuration(v); err == nil {
		return units.Seconds(d.Seconds()), nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is neither a duration nor seconds", v)
	}
	return units.Seconds(f), nil
}

// window is one compiled dropout interval [Start, End).
type window struct {
	Start, End units.Seconds
}

// spike is one compiled single-sample transient.
type spike struct {
	At     units.Seconds
	Factor float64
}

// minGap spaces dropout windows like internal/faults spaces its fault
// windows: windows and the gaps between them never shrink below a
// minute, keeping compiled plans physically plausible and bounded.
const minGap units.Seconds = 60

// Model is a compiled sensor fleet: the static per-sensor error plan
// (drift rates, dropout windows, stuck onsets, spike times — all
// recomputable from (Spec, procs, seed)) plus the dynamic read state
// the checkpoint layer persists (noise stream position, last readings,
// stuck latches, window cursors).
type Model struct {
	spec  Spec
	procs int
	nodes int

	// Static plan, deterministic in (spec, procs, seed).
	driftRate []float64       // per-day gain error rate, per node
	stuckAt   []units.Seconds // freeze onset, -1 = never
	drops     [][]window      // sorted dropout windows, per node
	spikes    [][]spike       // sorted transients, per node

	// Dynamic read state (see State).
	noise    *rng.Rand
	last     []float64
	hasLast  []bool
	stuckVal []float64
	stuckSet []bool
	dropIdx  []int
	spikeIdx []int
}

// Compile expands a Spec into a sensor Model over procs processors.
// All randomness comes from split-streams of rng.Named(seed,
// "telemetry"), so sensor behaviour is independent of every other
// consumer of the master seed.
func Compile(spec Spec, procs int, seed uint64) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if procs <= 0 {
		return nil, fmt.Errorf("telemetry: procs must be positive")
	}
	spec = spec.WithDefaults()
	if spec.Enabled() && spec.Horizon <= 0 {
		return nil, fmt.Errorf("telemetry: active spec needs a positive horizon")
	}
	nodes := 1
	if spec.ProcsPerNode > 0 {
		nodes = (procs + spec.ProcsPerNode - 1) / spec.ProcsPerNode
	}
	m := &Model{
		spec:      spec,
		procs:     procs,
		nodes:     nodes,
		driftRate: make([]float64, nodes),
		stuckAt:   make([]units.Seconds, nodes),
		drops:     make([][]window, nodes),
		spikes:    make([][]spike, nodes),
		last:      make([]float64, nodes),
		hasLast:   make([]bool, nodes),
		stuckVal:  make([]float64, nodes),
		stuckSet:  make([]bool, nodes),
		dropIdx:   make([]int, nodes),
		spikeIdx:  make([]int, nodes),
	}
	root := rng.Named(seed, "telemetry")
	driftR := root.Split("drift")
	dropR := root.Split("dropout")
	stuckR := root.Split("stuck")
	spikeR := root.Split("spike")
	m.noise = root.Split("noise")

	if spec.DriftFracPerDay > 0 {
		for i := range m.driftRate {
			m.driftRate[i] = driftR.Uniform(-spec.DriftFracPerDay, spec.DriftFracPerDay)
		}
	}

	if spec.DropoutsPerDay > 0 {
		rate := spec.DropoutsPerDay / 86400
		for i := range m.drops {
			nr := dropR.Split(fmt.Sprintf("node-%d", i))
			t := units.Seconds(0)
			for {
				gap := units.Seconds(nr.Exponential(rate))
				if gap < minGap {
					gap = minGap
				}
				t += gap
				if t >= spec.Horizon {
					break
				}
				dur := units.Seconds(nr.Exponential(1 / float64(spec.DropoutMeanDur)))
				if dur < minGap {
					dur = minGap
				}
				end := t + dur
				if end > spec.Horizon {
					end = spec.Horizon
				}
				m.drops[i] = append(m.drops[i], window{Start: t, End: end})
				t = end
			}
		}
	}

	for i := range m.stuckAt {
		m.stuckAt[i] = -1
	}
	if spec.StuckFrac > 0 {
		k := int(math.Round(spec.StuckFrac * float64(nodes)))
		if k == 0 {
			k = 1 // a positive fraction always freezes at least one sensor
		}
		if k > nodes {
			k = nodes
		}
		victims := stuckR.SampleInts(nodes, k)
		sort.Ints(victims)
		for _, n := range victims {
			m.stuckAt[n] = units.Seconds(stuckR.Uniform(0, float64(spec.Horizon)))
		}
	}

	if spec.SpikesPerDay > 0 {
		rate := spec.SpikesPerDay / 86400
		for i := range m.spikes {
			nr := spikeR.Split(fmt.Sprintf("node-%d", i))
			t := units.Seconds(0)
			for {
				t += units.Seconds(nr.Exponential(rate))
				if t >= spec.Horizon {
					break
				}
				f := 1 + spec.SpikeFrac
				if nr.Float64() < 0.5 {
					f = 1 - spec.SpikeFrac
				}
				m.spikes[i] = append(m.spikes[i], spike{At: t, Factor: f})
			}
		}
	}
	return m, nil
}

// Spec returns the compiled spec with defaults applied.
func (m *Model) Spec() Spec { return m.spec }

// Nodes is the number of aggregate sensors.
func (m *Model) Nodes() int { return m.nodes }

// NodeOf maps a processor to the sensor that covers it.
func (m *Model) NodeOf(proc int) int {
	if m.spec.ProcsPerNode <= 0 {
		return 0
	}
	n := proc / m.spec.ProcsPerNode
	if n >= m.nodes {
		n = m.nodes - 1
	}
	return n
}

// DropoutWindows is the total number of compiled dropout windows.
func (m *Model) DropoutWindows() int {
	n := 0
	for _, w := range m.drops {
		n += len(w)
	}
	return n
}

// StuckSensors is the number of sensors with a freeze onset.
func (m *Model) StuckSensors() int {
	n := 0
	for _, at := range m.stuckAt {
		if at >= 0 {
			n++
		}
	}
	return n
}

// Sample reads every sensor at time now (monotonically non-decreasing
// across calls) given the true per-node aggregates, writing the noisy
// readings into out and reporting how many sensors were in dropout. A
// dropped sensor holds its last known value — or reads zero if it has
// never produced a reading, the harshest honest answer.
func (m *Model) Sample(now units.Seconds, trueAgg, out []float64) (dropped int) {
	if len(trueAgg) != m.nodes || len(out) != m.nodes {
		panic(fmt.Sprintf("telemetry: Sample wants %d nodes, got true=%d out=%d",
			m.nodes, len(trueAgg), len(out)))
	}
	for i := 0; i < m.nodes; i++ {
		// Consume every spike at or before now, whether or not it lands
		// on a fresh reading; the last one in the window applies.
		spikeF := 1.0
		sp := m.spikes[i]
		for m.spikeIdx[i] < len(sp) && sp[m.spikeIdx[i]].At <= now {
			spikeF = sp[m.spikeIdx[i]].Factor
			m.spikeIdx[i]++
		}
		dw := m.drops[i]
		for m.dropIdx[i] < len(dw) && dw[m.dropIdx[i]].End <= now {
			m.dropIdx[i]++
		}

		// A latched stuck sensor repeats its frozen value until the
		// horizon recalibrates the fleet.
		stuck := m.stuckAt[i] >= 0 && now >= m.stuckAt[i] && now < m.spec.Horizon
		if stuck && m.stuckSet[i] {
			out[i] = m.stuckVal[i]
			m.last[i], m.hasLast[i] = m.stuckVal[i], true
			continue
		}
		if !stuck && m.dropIdx[i] < len(dw) && dw[m.dropIdx[i]].Start <= now {
			dropped++
			if m.hasLast[i] {
				out[i] = m.last[i]
			} else {
				out[i] = 0
			}
			continue
		}
		r := m.reading(i, now, trueAgg[i], spikeF)
		if stuck {
			m.stuckVal[i], m.stuckSet[i] = r, true
		}
		out[i] = r
		m.last[i], m.hasLast[i] = r, true
	}
	return dropped
}

// reading applies the error model to one fresh sensor read.
func (m *Model) reading(i int, now units.Seconds, truth, spikeF float64) float64 {
	if now >= m.spec.Horizon {
		return math.Max(truth, 0)
	}
	r := truth * (1 + m.driftRate[i]*float64(now)/86400)
	if m.spec.NoiseFrac > 0 {
		if sigma := m.spec.NoiseFrac * math.Abs(r); sigma > 0 {
			r += m.noise.Normal(0, sigma)
		}
	}
	r *= spikeF
	if m.spec.QuantStep > 0 {
		r = math.Round(r/m.spec.QuantStep) * m.spec.QuantStep
	}
	return math.Max(r, 0)
}

// State is the dynamic read state of a compiled Model — everything a
// checkpoint must persist beyond the (Spec, procs, seed) triple the
// static plan recompiles from.
type State struct {
	Noise    []byte // noise stream position (rng.Rand binary marshal)
	Last     []float64
	HasLast  []bool
	StuckVal []float64
	StuckSet []bool
	DropIdx  []int
	SpikeIdx []int
}

// CaptureState snapshots the dynamic read state.
func (m *Model) CaptureState() (State, error) {
	nb, err := m.noise.MarshalBinary()
	if err != nil {
		return State{}, fmt.Errorf("telemetry: marshal noise stream: %w", err)
	}
	st := State{
		Noise:    nb,
		Last:     append([]float64(nil), m.last...),
		HasLast:  append([]bool(nil), m.hasLast...),
		StuckVal: append([]float64(nil), m.stuckVal...),
		StuckSet: append([]bool(nil), m.stuckSet...),
		DropIdx:  append([]int(nil), m.dropIdx...),
		SpikeIdx: append([]int(nil), m.spikeIdx...),
	}
	return st, nil
}

// RestoreState rewinds a freshly compiled Model to a captured position.
func (m *Model) RestoreState(st State) error {
	for _, n := range [...]int{
		len(st.Last), len(st.HasLast), len(st.StuckVal),
		len(st.StuckSet), len(st.DropIdx), len(st.SpikeIdx),
	} {
		if n != m.nodes {
			return fmt.Errorf("telemetry: state has %d sensors, model has %d", n, m.nodes)
		}
	}
	if err := m.noise.UnmarshalBinary(st.Noise); err != nil {
		return fmt.Errorf("telemetry: restore noise stream: %w", err)
	}
	copy(m.last, st.Last)
	copy(m.hasLast, st.HasLast)
	copy(m.stuckVal, st.StuckVal)
	copy(m.stuckSet, st.StuckSet)
	copy(m.dropIdx, st.DropIdx)
	copy(m.spikeIdx, st.SpikeIdx)
	return nil
}
