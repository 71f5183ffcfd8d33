package power

import (
	"math"
	"testing"
	"testing/quick"

	"iscope/internal/units"
)

func mustModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(DefaultTable())
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestDefaultTableShape(t *testing.T) {
	tb := DefaultTable()
	if tb.NumLevels() != 5 {
		t.Fatalf("levels = %d, want 5", tb.NumLevels())
	}
	if tb.Levels[0].Freq != 0.75 || tb.Fmax() != 2.0 {
		t.Fatalf("frequency range = [%v, %v], want [0.75, 2]", tb.Levels[0].Freq, tb.Fmax())
	}
	if err := tb.Validate(); err != nil {
		t.Fatalf("default table invalid: %v", err)
	}
}

func TestTableValidation(t *testing.T) {
	bad := []*Table{
		{},
		{Levels: []Level{{Freq: 0, Vnom: 1}}},
		{Levels: []Level{{Freq: 1, Vnom: 0}}},
		{Levels: []Level{{Freq: 2, Vnom: 1}, {Freq: 1, Vnom: 1.1}}},
	}
	for i, tb := range bad {
		if err := tb.Validate(); err == nil {
			t.Errorf("table %d: expected validation error", i)
		}
		if _, err := NewModel(tb); err == nil {
			t.Errorf("table %d: NewModel accepted invalid table", i)
		}
	}
}

func TestEq1AtNominalTopLevel(t *testing.T) {
	// At the top level and nominal voltage the model must reduce to
	// p = alpha*f^3 + beta exactly.
	m := mustModel(t)
	got := float64(m.NominalCPUPower(7.5, 65, m.Table.Top()))
	want := 7.5*8 + 65
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("top-level nominal power = %v, want %v", got, want)
	}
}

func TestUndervoltingSavesPower(t *testing.T) {
	m := mustModel(t)
	for l := 0; l < m.Table.NumLevels(); l++ {
		vnom := m.Table.Levels[l].Vnom
		pn := m.CPUPower(7.5, 65, l, vnom)
		pu := m.CPUPower(7.5, 65, l, units.Volts(float64(vnom)*0.94))
		if pu >= pn {
			t.Fatalf("level %d: undervolted power %v >= nominal %v", l, pu, pn)
		}
		// 6% voltage cut: dynamic x0.8836; total saving must be >= 8%.
		if float64(pu) > 0.92*float64(pn) {
			t.Errorf("level %d: 6%% undervolt saved only %.1f%%", l, 100*(1-float64(pu)/float64(pn)))
		}
	}
}

func TestPowerMonotonicInLevel(t *testing.T) {
	m := mustModel(t)
	prev := units.Watts(0)
	for l := 0; l < m.Table.NumLevels(); l++ {
		p := m.NominalCPUPower(7.5, 65, l)
		if p <= prev {
			t.Fatalf("nominal power not increasing at level %d: %v <= %v", l, p, prev)
		}
		prev = p
	}
}

func TestCoolingEq2(t *testing.T) {
	// COP 2.5 -> multiplier 1.4.
	got := WithCooling(100, DefaultCOP)
	if math.Abs(float64(got)-140) > 1e-12 {
		t.Fatalf("cooling total = %v, want 140 W", got)
	}
}

func TestExecTimeEq3(t *testing.T) {
	m := mustModel(t)
	// Fully CPU-bound time scales as fmax/f: at 750 MHz with fmax 2 GHz
	// a 100 s task takes 100 * 2/0.75 = 266.67 s.
	got := m.ExecTime(100, 1.0, 0)
	if math.Abs(float64(got)-100*2.0/0.75) > 1e-9 {
		t.Fatalf("CPU-bound at 750 MHz: T = %v, want %v", got, 100*2.0/0.75)
	}
	// Zero boundness: frequency does not matter.
	if got := m.ExecTime(100, 0, 0); math.Abs(float64(got)-100) > 1e-9 {
		t.Fatalf("memory-bound T = %v, want 100", got)
	}
}

func TestExecTimeAtFmaxIsIdentity(t *testing.T) {
	m := mustModel(t)
	f := func(tRaw, gRaw uint16) bool {
		tf := units.Seconds(float64(tRaw) + 1)
		g := float64(gRaw) / 65535
		return math.Abs(float64(m.ExecTime(tf, g, m.Table.Top())-tf)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExecTimeMonotonicInFrequency(t *testing.T) {
	m := mustModel(t)
	for _, gamma := range []float64{0.1, 0.5, 0.9, 1.0} {
		prev := math.Inf(1)
		for l := 0; l < m.Table.NumLevels(); l++ {
			tt := float64(m.ExecTime(100, gamma, l))
			if tt > prev {
				t.Fatalf("gamma %v: exec time increased with frequency at level %d", gamma, l)
			}
			prev = tt
		}
	}
}

func TestPowerPositiveProperty(t *testing.T) {
	m := mustModel(t)
	f := func(aRaw, bRaw uint8, lRaw uint8, vRaw uint8) bool {
		alpha := 1 + float64(aRaw)/16
		beta := 1 + float64(bRaw)
		l := int(lRaw) % m.Table.NumLevels()
		v := units.Volts(0.7 + float64(vRaw)/400)
		return m.CPUPower(alpha, beta, l, v) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCOPRangeSane(t *testing.T) {
	if COPRange[0] >= COPRange[1] || DefaultCOP < COPRange[0] || DefaultCOP > COPRange[1] {
		t.Fatalf("COP constants inconsistent: default %v range %v", DefaultCOP, COPRange)
	}
}

func TestCPUPowerPerCoreReducesToShared(t *testing.T) {
	m := mustModel(t)
	for l := 0; l < m.Table.NumLevels(); l++ {
		v := units.Volts(float64(m.Table.Levels[l].Vnom) * 0.95)
		same := m.CPUPowerPerCore(7.5, 65, l, []units.Volts{v, v, v, v})
		want := m.CPUPower(7.5, 65, l, v)
		if math.Abs(float64(same-want)) > 1e-9 {
			t.Fatalf("level %d: uniform per-core power %v != shared %v", l, same, want)
		}
	}
}

func TestCPUPowerPerCoreBelowWorstSharedRail(t *testing.T) {
	// Mixed voltages: the per-core split must cost less than powering
	// every core at the worst (highest) of them.
	m := mustModel(t)
	volts := []units.Volts{1.20, 1.24, 1.26, 1.30}
	per := m.CPUPowerPerCore(7.5, 65, m.Table.Top(), volts)
	shared := m.CPUPower(7.5, 65, m.Table.Top(), 1.30)
	if per >= shared {
		t.Fatalf("per-core %v not below worst-rail %v", per, shared)
	}
	if m.CPUPowerPerCore(7.5, 65, 0, nil) != 0 {
		t.Fatal("empty core list should give zero power")
	}
}
