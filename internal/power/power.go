// Package power implements the paper's analytical models:
//
//	Eq-1  p = alpha*f^3 + beta                    (CPU power)
//	Eq-2  E_total = (1 + 1/COP) * E_CPU           (cooling overhead)
//	Eq-3  T(f) = T(Fmax) * (gamma*(fmax/f-1) + 1) (execution time)
//
// extended with supply-voltage scaling so that hardware profiling has
// something to exploit: at supply voltage V and a DVFS level whose
// nominal (worst-case guardbanded) voltage is Vnom,
//
//	p(f, V) = alpha*f^3*(V/Vnom(f))^2 + beta*(V/Vnom(fmax))^LeakExp
//
// With V = Vnom everywhere this reduces exactly to Eq-1 at the top
// level; undervolting below the guardband shrinks both terms, which is
// the micro-level headroom the iScope scanner exposes.
package power

import (
	"fmt"
	"math"

	"iscope/internal/units"
)

// Level is one DVFS operating point.
type Level struct {
	Freq units.GHz   // core frequency
	Vnom units.Volts // nominal (guardbanded worst-case) supply voltage
}

// Table is an ordered set of DVFS levels, lowest frequency first.
type Table struct {
	Levels []Level
}

// DefaultTable returns the paper's 5-level DVFS range, 750 MHz to 2 GHz
// (Section V.B), with a linear V-f nominal voltage rule from 0.9 V at
// the bottom to 1.3 V at the top level.
func DefaultTable() *Table {
	const n = 5
	lv := make([]Level, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		lv[i] = Level{
			Freq: units.GHz(0.75 + frac*(2.0-0.75)),
			Vnom: units.Volts(0.9 + frac*(1.3-0.9)),
		}
	}
	return &Table{Levels: lv}
}

// NumLevels returns the number of DVFS levels.
func (t *Table) NumLevels() int { return len(t.Levels) }

// Top returns the index of the highest-frequency level.
func (t *Table) Top() int { return len(t.Levels) - 1 }

// Fmax returns the top-level frequency.
func (t *Table) Fmax() units.GHz { return t.Levels[t.Top()].Freq }

// Validate reports structural errors in the table.
func (t *Table) Validate() error {
	if len(t.Levels) == 0 {
		return fmt.Errorf("power: table has no levels")
	}
	for i, l := range t.Levels {
		if l.Freq <= 0 || l.Vnom <= 0 {
			return fmt.Errorf("power: level %d has non-positive freq/voltage", i)
		}
		if i > 0 && t.Levels[i-1].Freq >= l.Freq {
			return fmt.Errorf("power: levels not strictly increasing at %d", i)
		}
	}
	return nil
}

// LeakExp is the exponent coupling leakage power to supply voltage.
// Leakage falls superlinearly with V; a cubic law is a standard compact
// approximation of the V·exp(V) dependence over small ranges.
const LeakExp = 3.0

// Model evaluates chip power. Alpha and Beta are the chip's Eq-1
// coefficients (from the variation substrate).
type Model struct {
	Table *Table
}

// NewModel builds a power model over a DVFS table.
func NewModel(t *Table) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Model{Table: t}, nil
}

// CPUPower returns chip power at DVFS level l and supply voltage v.
func (m *Model) CPUPower(alpha, beta float64, l int, v units.Volts) units.Watts {
	lev := m.Table.Levels[l]
	f := float64(lev.Freq)
	vr := float64(v) / float64(lev.Vnom)
	vtop := float64(v) / float64(m.Table.Levels[m.Table.Top()].Vnom)
	dyn := alpha * f * f * f * vr * vr
	leak := beta * math.Pow(vtop, LeakExp)
	return units.Watts(dyn + leak)
}

// NominalCPUPower is CPUPower evaluated at the level's nominal voltage —
// Eq-1 with the leakage's voltage dependence retained.
func (m *Model) NominalCPUPower(alpha, beta float64, l int) units.Watts {
	return m.CPUPower(alpha, beta, l, m.Table.Levels[l].Vnom)
}

// WithCooling applies Eq-2: total power including the cooling system at
// coefficient-of-performance cop.
func WithCooling(cpu units.Watts, cop float64) units.Watts {
	return units.Watts(float64(cpu) * (1 + 1/cop))
}

// DefaultCOP is the paper's datacenter cooling coefficient (Section V.C,
// following Garg et al.).
const DefaultCOP = 2.5

// COPRange is the support of the COP distribution reported by Greenberg
// et al. (Section IV.A).
var COPRange = [2]float64{0.6, 3.5}

// ExecTime applies Eq-3: execution time at level l for a task whose
// runtime at the top level is tAtFmax and whose CPU-boundness is gamma
// in [0,1] (1 = fully CPU-bound).
func (m *Model) ExecTime(tAtFmax units.Seconds, gamma float64, l int) units.Seconds {
	fmax := float64(m.Table.Fmax())
	f := float64(m.Table.Levels[l].Freq)
	return units.Seconds(float64(tAtFmax) * (gamma*(fmax/f-1) + 1))
}

// CPUPowerPerCore evaluates chip power when every core has its own
// voltage domain (Section III.B: per-core voltage domains via on-chip
// LDO regulators): the chip's dynamic and leakage budgets are split
// evenly across cores, each term evaluated at that core's supply.
// With all cores at the same voltage this equals CPUPower exactly.
func (m *Model) CPUPowerPerCore(alpha, beta float64, l int, volts []units.Volts) units.Watts {
	if len(volts) == 0 {
		return 0
	}
	lev := m.Table.Levels[l]
	f := float64(lev.Freq)
	vtopNom := float64(m.Table.Levels[m.Table.Top()].Vnom)
	var sum float64
	for _, v := range volts {
		vr := float64(v) / float64(lev.Vnom)
		vt := float64(v) / vtopNom
		sum += alpha*f*f*f*vr*vr + beta*math.Pow(vt, LeakExp)
	}
	return units.Watts(sum / float64(len(volts)))
}
