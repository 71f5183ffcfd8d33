// Package wind provides the renewable-power substrate: a synthetic
// wind-farm power generator standing in for the NREL Western Wind
// Integration Dataset the paper uses, plus trace I/O so the genuine
// dataset can be substituted.
//
// The synthesis pipeline mirrors how wind power actually behaves at the
// 10-minute sampling interval of the NREL data:
//
//  1. wind speed is a stationary process with a Weibull marginal
//     distribution and strong temporal autocorrelation — modeled as a
//     Gaussian AR(1) process mapped through the Weibull quantile
//     function (a Gaussian copula);
//  2. a diurnal modulation adds the day/night cycle typical of the
//     western-US sites in the dataset;
//  3. each turbine converts speed to power through a standard
//     commercial power curve (cut-in / rated / cut-out);
//  4. the farm aggregates several partially correlated turbines, and
//     the result is scaled down (the paper uses 3.5%) to match the
//     4800-CPU datacenter.
package wind

import (
	"fmt"
	"math"

	"iscope/internal/rng"
	"iscope/internal/units"
)

// TurbineCurve is a commercial wind-turbine power curve.
type TurbineCurve struct {
	CutIn  float64     // m/s below which output is zero
	Rated  float64     // m/s at which output reaches RatedPower
	CutOut float64     // m/s above which the turbine furls (zero output)
	Power  units.Watts // rated electrical output
}

// DefaultTurbine returns a 3 MW class turbine typical of the
// "commercially prevalent wind turbines" sampled by the NREL dataset.
func DefaultTurbine() TurbineCurve {
	return TurbineCurve{CutIn: 3, Rated: 12, CutOut: 25, Power: 3e6}
}

// At evaluates the curve at wind speed v (m/s), using the standard
// cubic interpolation between cut-in and rated speeds.
func (c TurbineCurve) At(v float64) units.Watts {
	switch {
	case v < c.CutIn || v >= c.CutOut:
		return 0
	case v >= c.Rated:
		return c.Power
	default:
		num := v*v*v - c.CutIn*c.CutIn*c.CutIn
		den := c.Rated*c.Rated*c.Rated - c.CutIn*c.CutIn*c.CutIn
		return units.Watts(float64(c.Power) * num / den)
	}
}

// Config controls synthetic trace generation.
type Config struct {
	Seed     uint64
	Duration units.Seconds // total trace length
	Interval units.Seconds // sampling interval (NREL: 10 minutes)

	// Wind-speed process.
	WeibullK      float64 // shape (2 is typical of good sites)
	WeibullLambda float64 // scale, m/s
	AR1Rho        float64 // lag-1 autocorrelation per sample
	DiurnalAmp    float64 // fractional day/night speed modulation

	Turbine     TurbineCurve
	NumTurbines int
	// TurbineCorr in [0,1] blends a farm-wide speed process with
	// per-turbine independent processes: 1 = all turbines see identical
	// wind, 0 = fully independent (strong spatial smoothing).
	TurbineCorr float64

	// ScaleFrac scales the farm output down to datacenter size; the
	// paper uses 3.5% of the original trace.
	ScaleFrac float64
}

// DefaultConfig matches the paper's setup: 10-minute samples, a
// multi-turbine farm scaled to 3.5%.
func DefaultConfig(seed uint64, duration units.Seconds) Config {
	return Config{
		Seed:          seed,
		Duration:      duration,
		Interval:      units.Minutes(10),
		WeibullK:      2.0,
		WeibullLambda: 8.0,
		AR1Rho:        0.96,
		DiurnalAmp:    0.18,
		Turbine:       DefaultTurbine(),
		NumTurbines:   10,
		TurbineCorr:   0.8,
		ScaleFrac:     0.035,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("wind: Duration must be positive")
	case c.Interval <= 0:
		return fmt.Errorf("wind: Interval must be positive")
	case c.WeibullK <= 0 || c.WeibullLambda <= 0:
		return fmt.Errorf("wind: Weibull parameters must be positive")
	case c.AR1Rho < 0 || c.AR1Rho >= 1:
		return fmt.Errorf("wind: AR1Rho must be in [0,1)")
	case c.NumTurbines <= 0:
		return fmt.Errorf("wind: NumTurbines must be positive")
	case c.TurbineCorr < 0 || c.TurbineCorr > 1:
		return fmt.Errorf("wind: TurbineCorr must be in [0,1]")
	case c.ScaleFrac <= 0:
		return fmt.Errorf("wind: ScaleFrac must be positive")
	}
	return nil
}

// Trace is a regularly sampled power time series. Between samples the
// power is held constant (zero-order hold), matching how the simulator
// treats the 10-minute NREL data.
type Trace struct {
	Interval units.Seconds
	Samples  []units.Watts
}

// Generate synthesizes a wind power trace.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(math.Ceil(float64(cfg.Duration) / float64(cfg.Interval)))
	if n < 1 {
		n = 1
	}
	farm := rng.Named(cfg.Seed, "wind-farm")
	turbines := make([]*rng.Rand, cfg.NumTurbines)
	for i := range turbines {
		turbines[i] = rng.Named(cfg.Seed, fmt.Sprintf("wind-turbine-%d", i))
	}

	// AR(1) states, stationary initialization.
	zFarm := farm.Normal(0, 1)
	zTurb := make([]float64, cfg.NumTurbines)
	for i := range zTurb {
		zTurb[i] = turbines[i].Normal(0, 1)
	}
	rho := cfg.AR1Rho
	innov := math.Sqrt(1 - rho*rho)
	wFarm := math.Sqrt(cfg.TurbineCorr)
	wOwn := math.Sqrt(1 - cfg.TurbineCorr)

	tr := &Trace{Interval: cfg.Interval, Samples: make([]units.Watts, n)}
	for s := 0; s < n; s++ {
		tSec := float64(s) * float64(cfg.Interval)
		// Diurnal factor peaking in the afternoon (hour 15).
		hour := math.Mod(tSec/3600, 24)
		diurnal := 1 + cfg.DiurnalAmp*math.Cos(2*math.Pi*(hour-15)/24)

		zFarm = rho*zFarm + innov*farm.Normal(0, 1)
		var total units.Watts
		for i := range zTurb {
			zTurb[i] = rho*zTurb[i] + innov*turbines[i].Normal(0, 1)
			z := wFarm*zFarm + wOwn*zTurb[i]
			u := gaussCDF(z)
			speed := weibullQuantile(u, cfg.WeibullK, cfg.WeibullLambda) * diurnal
			total += cfg.Turbine.At(speed)
		}
		tr.Samples[s] = units.Watts(float64(total) * cfg.ScaleFrac)
	}
	return tr, nil
}

// gaussCDF is the standard normal CDF.
func gaussCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// weibullQuantile inverts the Weibull CDF, with u clamped away from 1 to
// keep the result finite.
func weibullQuantile(u, k, lambda float64) float64 {
	if u <= 0 {
		return 0
	}
	if u > 1-1e-12 {
		u = 1 - 1e-12
	}
	return lambda * math.Pow(-math.Log(1-u), 1/k)
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Duration returns the trace's covered time span.
func (t *Trace) Duration() units.Seconds {
	return units.Seconds(float64(t.Interval) * float64(len(t.Samples)))
}

// At returns the power at simulated time ts. Before the trace it
// returns the first sample; past the end the trace repeats (so long
// simulations can run on a one-week trace).
func (t *Trace) At(ts units.Seconds) units.Watts {
	if len(t.Samples) == 0 {
		return 0
	}
	i := int(float64(ts) / float64(t.Interval))
	if i < 0 {
		i = 0
	}
	return t.Samples[i%len(t.Samples)]
}

// Scale returns a copy of the trace with every sample multiplied by f —
// the paper's SWP amplification sweep (Figure 9).
func (t *Trace) Scale(f float64) *Trace {
	out := &Trace{Interval: t.Interval, Samples: make([]units.Watts, len(t.Samples))}
	for i, s := range t.Samples {
		out.Samples[i] = units.Watts(float64(s) * f)
	}
	return out
}

// Mean returns the average power over the trace.
func (t *Trace) Mean() units.Watts {
	if len(t.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range t.Samples {
		sum += float64(s)
	}
	return units.Watts(sum / float64(len(t.Samples)))
}

// Peak returns the maximum sample.
func (t *Trace) Peak() units.Watts {
	var p units.Watts
	for _, s := range t.Samples {
		if s > p {
			p = s
		}
	}
	return p
}

// Energy integrates the trace (zero-order hold).
func (t *Trace) Energy() units.Joules {
	var sum units.Joules
	for _, s := range t.Samples {
		sum += s.Over(t.Interval)
	}
	return sum
}
