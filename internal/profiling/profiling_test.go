package profiling

import (
	"math"
	"reflect"
	"testing"

	"iscope/internal/power"
	"iscope/internal/rng"
	"iscope/internal/units"
	"iscope/internal/variation"
)

// tableAdapter adapts power.Table to the VoltageTable interface.
type tableAdapter struct{ *power.Table }

func (t tableAdapter) VnomAt(l int) units.Volts { return t.Levels[l].Vnom }

func setup(t *testing.T, n int, noise float64) ([]*variation.Chip, *Tester, VoltageTable) {
	t.Helper()
	m, err := variation.NewModel(variation.DefaultConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	chips := m.GenerateFleet(n)
	tbl := tableAdapter{power.DefaultTable()}
	tester := NewTester(chips, tbl, noise, rng.Named(1, "profiling-test"))
	return chips, tester, tbl
}

func newScanner(t *testing.T, cfg Config, tester *Tester, tbl VoltageTable, n int) *Scanner {
	t.Helper()
	s, err := NewScanner(cfg, tester, tbl, NewDB(n, tbl.NumLevels()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTestKindDurations(t *testing.T) {
	if Stress.Duration() != 600 {
		t.Errorf("stress duration = %v, want 600 s", Stress.Duration())
	}
	if Functional.Duration() != 29 {
		t.Errorf("functional duration = %v, want 29 s", Functional.Duration())
	}
	if Stress.String() != "stress" || Functional.String() != "functional" {
		t.Error("TestKind String() mismatch")
	}
}

func TestTesterGroundTruth(t *testing.T) {
	chips, tester, tbl := setup(t, 10, 0)
	for id, ch := range chips {
		for l := 0; l < tbl.NumLevels(); l++ {
			min := ch.MinVdd(l, float64(tbl.VnomAt(l)), false)
			if !tester.pass(id, units.Volts(min+0.001), tester.trueMin(id, l, false)) {
				t.Fatalf("chip %d level %d: pass expected just above MinVdd", id, l)
			}
			if tester.pass(id, units.Volts(min-0.001), tester.trueMin(id, l, false)) {
				t.Fatalf("chip %d level %d: fail expected just below MinVdd", id, l)
			}
		}
	}
}

func TestScanFindsMinVddWithinStep(t *testing.T) {
	chips, tester, tbl := setup(t, 20, 0)
	cfg := DefaultConfig()
	s := newScanner(t, cfg, tester, tbl, len(chips))
	for id, ch := range chips {
		rep := s.ScanChip(id, 0)
		for l := 0; l < tbl.NumLevels(); l++ {
			trueMin := ch.MinVdd(l, float64(tbl.VnomAt(l)), false)
			got := float64(rep.MinVdd[l])
			if got == 0 {
				// The sweep only descends VoltagePoints*step below
				// nominal; margins beyond that leave the level at the
				// lowest tested point, never unmeasured for our config.
				t.Fatalf("chip %d level %d unmeasured", id, l)
			}
			if got < trueMin-1e-12 {
				t.Fatalf("measured MinVdd %.4f below true minimum %.4f", got, trueMin)
			}
			if got > trueMin+cfg.VoltageStep+1e-12 {
				t.Fatalf("measured MinVdd %.4f more than one step above true %.4f", got, trueMin)
			}
		}
	}
}

func TestScanEarlyStopVsExhaustivePoints(t *testing.T) {
	chips, tester, tbl := setup(t, 5, 0)
	lazy := newScanner(t, DefaultConfig(), tester, tbl, len(chips))
	exCfg := DefaultConfig()
	exCfg.Exhaustive = true
	ex := newScanner(t, exCfg, tester, tbl, len(chips))
	for id := range chips {
		lr := lazy.ScanChip(id, 0)
		er := ex.ScanChip(id, 0)
		if er.Points != tbl.NumLevels()*exCfg.VoltagePoints {
			t.Fatalf("exhaustive scan tested %d points, want %d", er.Points, tbl.NumLevels()*exCfg.VoltagePoints)
		}
		if lr.Points > er.Points {
			t.Fatalf("early-stop scan tested more points (%d) than exhaustive (%d)", lr.Points, er.Points)
		}
		for l := range lr.MinVdd {
			if math.Abs(float64(lr.MinVdd[l]-er.MinVdd[l])) > 1e-12 {
				t.Fatalf("early-stop and exhaustive disagree on MinVdd at level %d", l)
			}
		}
	}
}

func TestScanUpdatesDB(t *testing.T) {
	chips, tester, tbl := setup(t, 8, 0)
	s := newScanner(t, DefaultConfig(), tester, tbl, len(chips))
	rep := s.ScanChip(3, units.Hours(1))
	for l := 0; l < tbl.NumLevels(); l++ {
		v, ok := s.DB().Lookup(3, l)
		if !ok {
			t.Fatalf("level %d not marked measured", l)
		}
		if v != rep.MinVdd[l] {
			t.Fatalf("DB MinVdd %v != report %v", v, rep.MinVdd[l])
		}
	}
	if !s.DB().FullyProfiled(3) {
		t.Fatal("chip 3 should be fully profiled")
	}
	if s.DB().FullyProfiled(4) {
		t.Fatal("chip 4 should not be profiled")
	}
	snap := s.DB().Snapshot(3)
	if snap.Scans != 1 || snap.LastScan <= units.Hours(1) {
		t.Fatalf("snapshot scans=%d last=%v", snap.Scans, snap.LastScan)
	}
}

func TestScanFleetParallelMatchesSerial(t *testing.T) {
	chips, tester, tbl := setup(t, 300, 0)
	ids := make([]int, len(chips))
	for i := range ids {
		ids[i] = i
	}
	// A test power and duration whose products are not integers, so
	// the report's sums depend on the order they are taken in.
	cfg := DefaultConfig()
	cfg.Kind = Functional
	cfg.TestPower = 114.37
	cfg.Workers = 4
	par := newScanner(t, cfg, tester, tbl, len(chips))
	rep := par.ScanFleet(ids, 0)
	ser := newScanner(t, cfg, tester, tbl, len(chips))
	var want FleetReport
	for _, id := range ids {
		cr := ser.ScanChip(id, 0)
		want.Chips++
		want.Points += cr.Points
		want.Energy += cr.Energy
		want.Duration += cr.Duration
	}
	if rep != want {
		t.Fatalf("parallel fleet report %+v, serial %+v", rep, want)
	}
	if e := float64(want.Energy); e == math.Trunc(e) {
		t.Fatalf("energy %v is a whole number: the order check above is vacuous", e)
	}
	if !reflect.DeepEqual(par.DB().Records(), ser.DB().Records()) {
		t.Fatal("parallel and serial scans wrote different records")
	}
}

// TestNoisyScanFleetSameAtAnyWorkers: a noisy tester gives every chip
// its own noise stream, so a fleet scan writes the same DB records
// whether one worker or four fan the chips out (and, under -race, the
// workers share no stream).
func TestNoisyScanFleetSameAtAnyWorkers(t *testing.T) {
	const n = 64
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	scan := func(workers int) []Record {
		_, tester, tbl := setup(t, n, 0.01)
		cfg := DefaultConfig()
		cfg.Workers = workers
		s := newScanner(t, cfg, tester, tbl, n)
		s.ScanFleet(ids, 0)
		return s.DB().Records()
	}
	want, got := scan(1), scan(4)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("noisy fleet scan wrote different records at Workers 1 and 4")
	}
	// The noise must reach the records, or the check above is vacuous.
	_, ideal, tbl := setup(t, n, 0)
	s := newScanner(t, DefaultConfig(), ideal, tbl, n)
	s.ScanFleet(ids, 0)
	if reflect.DeepEqual(want, s.DB().Records()) {
		t.Fatal("noisy scan recorded exactly the noise-free margins")
	}
}

func TestOverheadReproducesSectionVIE(t *testing.T) {
	// 4800 processors, 5 levels x 10 voltages, 115 W:
	// stress (10 min): $230 renewable / $598 utility
	// functional (29 s): $11.2 renewable / $28.9 utility
	_, tester, tbl := setup(t, 1, 0)
	stress := newScanner(t, DefaultConfig(), tester, tbl, 1)
	rep := stress.OverheadEstimate(4800)
	if got := float64(rep.Cost(0.05)); math.Abs(got-230) > 1 {
		t.Errorf("stress renewable cost = $%.1f, want ~$230", got)
	}
	if got := float64(rep.Cost(0.13)); math.Abs(got-598) > 2 {
		t.Errorf("stress utility cost = $%.1f, want ~$598", got)
	}

	fcfg := DefaultConfig()
	fcfg.Kind = Functional
	fast := newScanner(t, fcfg, tester, tbl, 1)
	frep := fast.OverheadEstimate(4800)
	if got := float64(frep.Cost(0.05)); math.Abs(got-11.2) > 0.2 {
		t.Errorf("functional renewable cost = $%.1f, want ~$11.2", got)
	}
	if got := float64(frep.Cost(0.13)); math.Abs(got-28.9) > 0.3 {
		t.Errorf("functional utility cost = $%.1f, want ~$28.9", got)
	}
}

func TestGPUOnScanMeasuresHigherMinVdd(t *testing.T) {
	chips, tester, tbl := setup(t, 30, 0)
	off := newScanner(t, DefaultConfig(), tester, tbl, len(chips))
	onCfg := DefaultConfig()
	onCfg.GPUOn = true
	on := newScanner(t, onCfg, tester, tbl, len(chips))
	higher := 0
	for id := range chips {
		o := off.ScanChip(id, 0)
		g := on.ScanChip(id, 0)
		for l := range o.MinVdd {
			if g.MinVdd[l] < o.MinVdd[l] {
				t.Fatalf("GPU-on MinVdd below GPU-off at chip %d level %d", id, l)
			}
			if g.MinVdd[l] > o.MinVdd[l] {
				higher++
			}
		}
	}
	if higher == 0 {
		t.Error("GPU-on never raised any measured MinVdd; penalty not exercised")
	}
}

func TestNoisyMeasurementsStaySafeWithGuardband(t *testing.T) {
	// With measurement noise the scan may be optimistic; verify the
	// error is bounded by a few sigma so a guardband can absorb it.
	chips, tester, tbl := setup(t, 50, 0.002)
	s := newScanner(t, DefaultConfig(), tester, tbl, len(chips))
	worstOptimism := 0.0
	for id, ch := range chips {
		rep := s.ScanChip(id, 0)
		for l := range rep.MinVdd {
			trueMin := ch.MinVdd(l, float64(tableAdapter{power.DefaultTable()}.VnomAt(l)), false)
			if opt := trueMin - float64(rep.MinVdd[l]); opt > worstOptimism {
				worstOptimism = opt
			}
		}
	}
	if worstOptimism > 0.002*5 {
		t.Errorf("noisy scan optimistic by %.4f V, beyond 5 sigma", worstOptimism)
	}
}

func TestConfigValidation(t *testing.T) {
	_, tester, tbl := setup(t, 1, 0)
	bad := []Config{
		{Kind: Stress, VoltagePoints: 0, VoltageStep: 0.01, TestPower: 115},
		{Kind: Stress, VoltagePoints: 10, VoltageStep: 0, TestPower: 115},
		{Kind: Stress, VoltagePoints: 10, VoltageStep: 0.01, TestPower: 0},
		{Kind: Stress, VoltagePoints: 10, VoltageStep: 0.01, TestPower: 115, DomainSize: -1},
	}
	for i, cfg := range bad {
		if _, err := NewScanner(cfg, tester, tbl, NewDB(1, tbl.NumLevels())); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
}

func TestDBUpdateErrors(t *testing.T) {
	db := NewDB(4, 5)
	if err := db.Update(-1, make([]units.Volts, 5), 0); err == nil {
		t.Error("expected error for negative id")
	}
	if err := db.Update(4, make([]units.Volts, 5), 0); err == nil {
		t.Error("expected error for out-of-range id")
	}
	if err := db.Update(0, make([]units.Volts, 3), 0); err == nil {
		t.Error("expected error for wrong level count")
	}
}

func TestLeastRecentlyScanned(t *testing.T) {
	db := NewDB(6, 1)
	mk := func(v float64) []units.Volts { return []units.Volts{units.Volts(v)} }
	// Scan chips 1, 3, 5 at increasing times.
	_ = db.Update(1, mk(1.0), 100)
	_ = db.Update(3, mk(1.0), 200)
	_ = db.Update(5, mk(1.0), 300)
	got := db.LeastRecentlyScanned(5)
	want := []int{0, 2, 4, 1, 3} // unscanned first by ID, then oldest scans
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if n := len(db.LeastRecentlyScanned(100)); n != 6 {
		t.Fatalf("oversized request returned %d ids", n)
	}
}

func TestPlannerWindows(t *testing.T) {
	p := &Planner{UtilThreshold: 0.3}
	times := []units.Seconds{0, 60, 120, 180, 240, 300}
	util := []float64{0.5, 0.2, 0.1, 0.4, 0.25, 0.2}
	wins, err := p.Windows(times, util, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(wins), wins)
	}
	if wins[0].Start != 60 || wins[0].End != 180 {
		t.Errorf("window 0 = %+v, want [60,180]", wins[0])
	}
	if wins[1].Start != 240 || wins[1].End != 300 {
		t.Errorf("window 1 = %+v, want [240,300]", wins[1])
	}
}

func TestPlannerRenewableGate(t *testing.T) {
	p := &Planner{UtilThreshold: 0.3, RequireRenewable: true}
	times := []units.Seconds{0, 60, 120}
	util := []float64{0.1, 0.1, 0.1}
	renew := []bool{false, true, false}
	wins, err := p.Windows(times, util, renew)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || wins[0].Start != 60 {
		t.Fatalf("windows = %+v, want single window starting at 60", wins)
	}
	if _, err := p.Windows(times, util, nil); err == nil {
		t.Error("expected error when renewable series missing")
	}
}

func TestPlannerLengthMismatch(t *testing.T) {
	p := &Planner{UtilThreshold: 0.3}
	if _, err := p.Windows([]units.Seconds{0}, []float64{0.1, 0.2}, nil); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestFractionBelow(t *testing.T) {
	util := []float64{0.1, 0.2, 0.5, 0.9}
	if got := FractionBelow(util, 0.3); got != 0.5 {
		t.Errorf("FractionBelow = %v, want 0.5", got)
	}
	if got := FractionBelow(nil, 0.3); got != 0 {
		t.Errorf("empty FractionBelow = %v, want 0", got)
	}
}

func TestChipsPerWindow(t *testing.T) {
	w := Window{Start: 0, End: units.Hours(1)}
	// 29 s functional scans of all 50 points: 1450 s per chip; 3600/1450
	// = 2 rounds of 8 chips.
	if got := ChipsPerWindow(w, 1450, 8); got != 16 {
		t.Errorf("ChipsPerWindow = %d, want 16", got)
	}
	if ChipsPerWindow(w, 0, 8) != 0 || ChipsPerWindow(w, 100, 0) != 0 {
		t.Error("degenerate ChipsPerWindow should be 0")
	}
}
