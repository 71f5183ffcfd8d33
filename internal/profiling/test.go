// Package profiling implements the iScope scanner (paper Section III):
// software-based functional failing tests, the master/slave scanning
// protocol with descending-voltage sweeps per frequency bin, the
// profile database the scheduler consumes, opportunistic scan planning,
// and the overhead accounting of Section VI.E.
package profiling

import (
	"iscope/internal/rng"
	"iscope/internal/units"
	"iscope/internal/variation"
)

// TestKind selects the stability test routine.
type TestKind int

const (
	// Functional is the software-based functional failing test of
	// Sanchez et al. — an assembly program whose result goes wrong below
	// the safe operating point. 29 seconds per configuration point.
	Functional TestKind = iota
	// Stress is an Mprime-style stress test: more robust, 10 minutes per
	// configuration point. The paper uses it for its hardware profiling.
	Stress
)

// Duration returns the run time of one test at one V/F configuration.
func (k TestKind) Duration() units.Seconds {
	switch k {
	case Stress:
		return units.Minutes(10)
	default:
		return 29
	}
}

func (k TestKind) String() string {
	switch k {
	case Stress:
		return "stress"
	default:
		return "functional"
	}
}

// Tester runs simulated stability tests against ground-truth chips. The
// ground truth (variation.Chip margins) is hidden from the scheduler;
// only a Tester may consult it, mirroring how real silicon only reveals
// its margins through testing.
type Tester struct {
	chips []*variation.Chip
	tbl   VoltageTable
	// noise is the 1-sigma measurement noise in volts: near the true
	// threshold, outcomes become probabilistic, as on real hardware
	// where marginal points pass or fail run to run.
	noise float64
	// rs holds one noise stream per chip, so scans of distinct chips
	// may run concurrently and each chip's draws do not depend on the
	// order chips are scanned in. nil when noise is 0: ideal
	// measurements draw nothing.
	rs []rng.Rand
}

// VoltageTable abstracts the DVFS table: nominal voltage per level.
type VoltageTable interface {
	NumLevels() int
	VnomAt(level int) units.Volts
}

// NewTester builds a tester over a fleet. noiseSigma of 0 gives ideal
// measurements and leaves r untouched; a positive noiseSigma splits one
// stream per chip off r, in chip order.
func NewTester(chips []*variation.Chip, tbl VoltageTable, noiseSigma float64, r *rng.Rand) *Tester {
	t := &Tester{chips: chips, tbl: tbl, noise: noiseSigma}
	if noiseSigma > 0 {
		t.rs = r.SplitN("chip", len(chips))
	}
	return t
}

// trueMin is chip id's ground-truth minimum safe voltage at DVFS level
// l. gpuOn selects the feature configuration under test (Section
// III.C's on-demand profiling). A sweep of one level computes it once
// for all its points.
func (t *Tester) trueMin(id, l int, gpuOn bool) float64 {
	return t.chips[id].MinVdd(l, float64(t.tbl.VnomAt(l)), gpuOn)
}

// pass runs one stability test on chip id at supply voltage v against
// the level's ground-truth minimum, returning true if the chip passed
// (all cores produced correct results). A noisy tester draws one
// measurement error per call from the chip's stream. Tests of distinct
// chips may run concurrently.
func (t *Tester) pass(id int, v units.Volts, trueMin float64) bool {
	threshold := trueMin
	if t.noise > 0 {
		threshold += t.rs[id].Normal(0, t.noise)
	}
	return float64(v) >= threshold
}
