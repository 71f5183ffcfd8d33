package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"iscope/internal/battery"
	"iscope/internal/units"
)

func TestAccountSplitsWindAndUtility(t *testing.T) {
	a := NewAccount(0)
	// 1 hour at demand 1000 W with 600 W wind: 0.6 kWh wind, 0.4 kWh grid.
	a.Advance(units.Hours(1), 1000, 600)
	if got := a.WindUsed.KWh(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("wind used = %v kWh, want 0.6", got)
	}
	if got := a.Utility.KWh(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("utility = %v kWh, want 0.4", got)
	}
	if got := a.WindAvailable.KWh(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("wind available = %v kWh, want 0.6", got)
	}
}

func TestAccountSurplusWindWasted(t *testing.T) {
	a := NewAccount(0)
	a.Advance(units.Hours(2), 500, 2000)
	if got := a.WindUsed.KWh(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("wind used = %v kWh, want 1.0 (demand-limited)", got)
	}
	if a.Utility != 0 {
		t.Errorf("utility = %v, want 0", a.Utility)
	}
	if got := a.WindAvailable.KWh(); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("wind available = %v kWh, want 4.0", got)
	}
	if got := a.WindUtilization(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("wind utilization = %v, want 0.25", got)
	}
}

func TestAccountConservationProperty(t *testing.T) {
	// Total energy must equal the integral of demand, however the
	// wind/utility split falls.
	f := func(steps []uint16) bool {
		a := NewAccount(0)
		now := units.Seconds(0)
		var wantTotal float64
		for i, s := range steps {
			demand := units.Watts(s % 4096)
			wind := units.Watts((uint32(s) * 7) % 3000)
			dt := units.Seconds(1 + i%100)
			a.Advance(now+dt, demand, wind)
			wantTotal += float64(demand) * float64(dt)
			now += dt
		}
		return math.Abs(float64(a.Total())-wantTotal) < 1e-6*(wantTotal+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccountIgnoresBackwardsAdvance(t *testing.T) {
	a := NewAccount(100)
	a.Advance(50, 1000, 0)
	if a.Total() != 0 {
		t.Fatal("backwards advance accrued energy")
	}
	a.Advance(100, 1000, 0)
	if a.Total() != 0 {
		t.Fatal("zero-length advance accrued energy")
	}
}

func TestAccountCosts(t *testing.T) {
	a := NewAccount(0)
	// 100 kWh from wind and 50 kWh from the grid.
	a.Advance(units.Hours(100), 1500, 1000)
	p := DefaultPrices()
	wantCost := 100*0.05 + 50*0.13
	if got := float64(a.Cost(p)); math.Abs(got-wantCost) > 1e-6 {
		t.Errorf("cost = %v, want %v", got, wantCost)
	}
	if got := float64(a.UtilityCost(p)); math.Abs(got-50*0.13) > 1e-6 {
		t.Errorf("utility cost = %v, want %v", got, 50*0.13)
	}
}

func TestDefaultPricesMatchPaper(t *testing.T) {
	p := DefaultPrices()
	if p.Utility != 0.13 || p.Wind != 0.05 {
		t.Fatalf("prices = %+v, want 0.13/0.05 $/kWh", p)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(0)
	if s.Interval != 350 {
		t.Fatalf("default interval = %v, want 350 s", s.Interval)
	}
	s.Record(0, 500, 800)
	s.Record(350, 900, 800)
	if len(s.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(s.Points))
	}
	if s.Points[0].Utility != 300 {
		t.Errorf("deficit sample utility = %v, want 300", s.Points[0].Utility)
	}
	if s.Points[1].Utility != 0 {
		t.Errorf("surplus sample utility = %v, want 0", s.Points[1].Utility)
	}
}

func TestVarianceAndMean(t *testing.T) {
	xs := []units.Seconds{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Errorf("variance = %v, want 4", got)
	}
	if Variance(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty series should give zero moments")
	}
}

func TestVarianceZeroForUniform(t *testing.T) {
	xs := []units.Seconds{7, 7, 7, 7}
	if got := Variance(xs); got != 0 {
		t.Errorf("variance of constant = %v, want 0", got)
	}
}

func TestNodeProfile(t *testing.T) {
	np, err := NewNodeProfile(units.Minutes(10), units.Minutes(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(np.Required) != 10 {
		t.Fatalf("samples = %d, want 10", len(np.Required))
	}
	// A job using 50% of the fleet from minute 2 to minute 5.
	np.AddJob(units.Minutes(2), units.Minutes(5), 0.5)
	// Another using 10% the whole time.
	np.AddJob(0, units.Minutes(10), 0.1)
	for i, r := range np.Required {
		want := 0.1
		if i >= 2 && i < 5 {
			want = 0.6
		}
		if math.Abs(r-want) > 1e-12 {
			t.Fatalf("sample %d = %v, want %v", i, r, want)
		}
	}
	// 7 of 10 samples below 30%.
	if got := np.FractionBelow(0.3); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("FractionBelow = %v, want 0.7", got)
	}
}

func TestNodeProfileEdgeCases(t *testing.T) {
	if _, err := NewNodeProfile(0, 60); err == nil {
		t.Error("expected error for zero duration")
	}
	if _, err := NewNodeProfile(600, 0); err == nil {
		t.Error("expected error for zero interval")
	}
	np, _ := NewNodeProfile(600, 60)
	np.AddJob(500, 400, 0.5) // end before start: ignored
	np.AddJob(-100, 120, 0.2)
	np.AddJob(540, 10000, 0.3) // clipped at the profile end
	if np.Required[0] != 0.2 || np.Required[1] != 0.2 {
		t.Error("negative start should clamp to 0")
	}
	if np.Required[9] != 0.3 {
		t.Error("overrun job should still mark the final sample")
	}
	empty := &NodeProfile{}
	if empty.FractionBelow(0.5) != 0 {
		t.Error("empty profile FractionBelow should be 0")
	}
}

func TestAdvanceClampsNegativeDrift(t *testing.T) {
	// Incremental demand bookkeeping can drift to tiny negative values;
	// the account must not book negative wind or utility energy.
	a := NewAccount(0)
	a.Advance(100, -1e-9, 0)
	if a.WindUsed != 0 || a.Utility != 0 {
		t.Fatalf("negative drift booked energy: wind %v utility %v", a.WindUsed, a.Utility)
	}
	a.Advance(200, 100, -1e-9)
	if a.WindUsed != 0 {
		t.Fatalf("negative wind booked wind energy: %v", a.WindUsed)
	}
}

func TestWindUtilizationNoWind(t *testing.T) {
	a := NewAccount(0)
	a.Advance(units.Hours(1), 500, 0)
	if a.WindUtilization() != 0 {
		t.Fatalf("utilization without wind = %v, want 0", a.WindUtilization())
	}
}

func TestAccountWithBatteryFlows(t *testing.T) {
	a := NewAccount(0)
	b, err := battery.New(battery.DefaultSpec(units.FromKWh(10)))
	if err != nil {
		t.Fatal(err)
	}
	a.Battery = b
	// Surplus hour: 2 kW wind over 1 kW demand -> 1 kW surplus charges.
	a.Advance(units.Hours(1), 1000, 2000)
	if a.BatteryCharged.KWh() <= 0 {
		t.Fatal("surplus did not charge the battery")
	}
	charged := a.BatteryCharged
	// Deficit hour: 3 kW demand over 1 kW wind -> battery serves first.
	a.Advance(units.Hours(2), 3000, 1000)
	if a.BatteryDelivered <= 0 {
		t.Fatal("deficit did not discharge the battery")
	}
	// Conservation: demand = direct wind + delivered + utility.
	direct := a.WindUsed - charged
	total := float64(direct) + float64(a.BatteryDelivered) + float64(a.Utility)
	if math.Abs(total-float64(a.Demand)) > 1 {
		t.Fatalf("battery books unbalanced: served %v vs demand %v", total, a.Demand)
	}
}
