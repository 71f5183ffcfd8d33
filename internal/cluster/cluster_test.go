package cluster

import (
	"math"
	"testing"

	"iscope/internal/power"
	"iscope/internal/units"
	"iscope/internal/variation"
	"iscope/internal/workload"
)

func testDC(t *testing.T, n int) *Datacenter {
	t.Helper()
	m, err := variation.NewModel(variation.DefaultConfig(123))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := power.NewModel(power.DefaultTable())
	if err != nil {
		t.Fatal(err)
	}
	volt := func(id, l int) units.Volts { return pm.Table.Levels[l].Vnom }
	dc, err := New(m.GenerateFleet(n), pm, volt, power.DefaultCOP)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func job(id int, runtime units.Seconds, gamma float64) *workload.Job {
	return &workload.Job{ID: id, Procs: 1, Runtime: runtime, Boundness: gamma, Deadline: 1e12}
}

func TestNewValidation(t *testing.T) {
	pm, _ := power.NewModel(power.DefaultTable())
	volt := func(id, l int) units.Volts { return 1 }
	if _, err := New(nil, pm, volt, 2.5); err == nil {
		t.Error("expected error for empty fleet")
	}
	m, _ := variation.NewModel(variation.DefaultConfig(1))
	chips := m.GenerateFleet(2)
	if _, err := New(chips, pm, nil, 2.5); err == nil {
		t.Error("expected error for nil voltage fn")
	}
	if _, err := New(chips, pm, volt, 0); err == nil {
		t.Error("expected error for zero COP")
	}
}

func TestEnqueueIdleStartsImmediately(t *testing.T) {
	dc := testDC(t, 4)
	top := dc.PowerModel().Table.Top()
	s := NewSlice(job(1, 100, 1), 0, top)
	started := dc.Enqueue(s, 0)
	if started != s {
		t.Fatal("idle processor did not start the slice")
	}
	if !s.Running() {
		t.Fatal("slice not marked running")
	}
	if s.Finish != 100 {
		t.Fatalf("finish = %v, want 100 (top level, gamma 1)", s.Finish)
	}
	if dc.Demand() <= 0 {
		t.Fatal("demand not raised by running slice")
	}
	if dc.BusyCount() != 1 {
		t.Fatalf("busy count = %d, want 1", dc.BusyCount())
	}
}

func TestEnqueueBusyQueues(t *testing.T) {
	dc := testDC(t, 2)
	top := dc.PowerModel().Table.Top()
	a := NewSlice(job(1, 100, 1), 0, top)
	b := NewSlice(job(2, 50, 1), 0, top)
	dc.Enqueue(a, 0)
	if started := dc.Enqueue(b, 10); started != nil {
		t.Fatal("second slice should queue, not start")
	}
	if dc.QueueLen(0) != 1 {
		t.Fatalf("queue len = %d, want 1", dc.QueueLen(0))
	}
	// Available: a finishes at 100, plus 50 backlog.
	if got := dc.AvailableAt(0, 10); math.Abs(float64(got-150)) > 1e-9 {
		t.Fatalf("AvailableAt = %v, want 150", got)
	}
}

func TestCompleteStartsNext(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	a := NewSlice(job(1, 100, 1), 0, top)
	b := NewSlice(job(2, 50, 1), 0, top)
	dc.Enqueue(a, 0)
	dc.Enqueue(b, 0)
	next := dc.Complete(0, 100)
	if next != b {
		t.Fatal("Complete did not start the queued slice")
	}
	if !a.Done() || a.Running() {
		t.Fatal("finished slice state wrong")
	}
	if b.Finish != 150 {
		t.Fatalf("next finish = %v, want 150", b.Finish)
	}
	if got := dc.UtilTimeOf(0); got != 100 {
		t.Fatalf("UtilTime = %v, want 100", got)
	}
	// Complete the second too; demand should return to zero.
	if dc.Complete(0, 150) != nil {
		t.Fatal("no third slice expected")
	}
	if math.Abs(float64(dc.Demand())) > 1e-9 {
		t.Fatalf("demand = %v after all work done, want 0", dc.Demand())
	}
	if dc.UtilTimeOf(0) != 150 {
		t.Fatalf("UtilTime = %v, want 150", dc.UtilTimeOf(0))
	}
}

func TestCompleteIdleReturnsNil(t *testing.T) {
	dc := testDC(t, 1)
	if dc.Complete(0, 10) != nil {
		t.Fatal("Complete on idle processor should return nil")
	}
}

func TestSetLevelRetimesCompletion(t *testing.T) {
	dc := testDC(t, 1)
	tbl := dc.PowerModel().Table
	top := tbl.Top()
	// gamma=1, runtime 100 at top (2 GHz). At level 0 (750 MHz) the full
	// job takes 100*2/0.75 = 266.67 s.
	s := NewSlice(job(1, 100, 1), 0, top)
	dc.Enqueue(s, 0)
	gen := s.Gen
	// Halfway through, drop to the bottom level.
	dc.SetLevel(s, 0, 50)
	if s.Gen == gen {
		t.Fatal("generation must bump on level change")
	}
	if math.Abs(s.Remaining()-0.5) > 1e-9 {
		t.Fatalf("remaining = %v, want 0.5", s.Remaining())
	}
	want := 50 + 0.5*100*2/0.75
	if math.Abs(float64(s.Finish)-want) > 1e-9 {
		t.Fatalf("retimed finish = %v, want %v", s.Finish, want)
	}
	// Raising back at t=100: remaining = 0.5 - 50/266.67 = 0.3125.
	dc.SetLevel(s, top, 100)
	wantRem := 0.5 - 50/(100*2/0.75)
	if math.Abs(s.Remaining()-wantRem) > 1e-9 {
		t.Fatalf("remaining = %v, want %v", s.Remaining(), wantRem)
	}
	wantFinish := 100 + wantRem*100
	if math.Abs(float64(s.Finish)-wantFinish) > 1e-9 {
		t.Fatalf("finish = %v, want %v", s.Finish, wantFinish)
	}
}

func TestSetLevelChangesDemand(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	s := NewSlice(job(1, 100, 1), 0, top)
	dc.Enqueue(s, 0)
	before := dc.Demand()
	dc.SetLevel(s, 0, 10)
	after := dc.Demand()
	if after >= before {
		t.Fatalf("demand did not drop on DVFS down: %v -> %v", before, after)
	}
	want := dc.ProcPower(0, 0)
	if math.Abs(float64(after-want)) > 1e-9 {
		t.Fatalf("demand = %v, want proc power %v", after, want)
	}
}

func TestSetLevelNoOpWhenNotRunning(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	s := NewSlice(job(1, 100, 1), 0, top)
	dc.SetLevel(s, 0, 10) // not enqueued
	if s.Level != top || s.Gen != 0 {
		t.Fatal("SetLevel mutated a non-running slice")
	}
}

func TestFinishAtLevelPrediction(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	s := NewSlice(job(1, 100, 1), 0, top)
	dc.Enqueue(s, 0)
	pred := dc.FinishAtLevel(s, 0, 50)
	want := units.Seconds(50 + 0.5*100*2/0.75)
	if math.Abs(float64(pred-want)) > 1e-9 {
		t.Fatalf("FinishAtLevel = %v, want %v", pred, want)
	}
	// Prediction must not mutate.
	if s.Level != top || math.Abs(s.Remaining()-1) > 1e-12 {
		t.Fatal("FinishAtLevel mutated the slice")
	}
	// Prediction at the same level equals current finish.
	same := dc.FinishAtLevel(s, top, 50)
	if math.Abs(float64(same-s.Finish)) > 1e-9 {
		t.Fatalf("same-level prediction %v != finish %v", same, s.Finish)
	}
}

func TestDemandMatchesSumOfProcPower(t *testing.T) {
	dc := testDC(t, 10)
	top := dc.PowerModel().Table.Top()
	var want float64
	for i := 0; i < 10; i += 2 {
		s := NewSlice(job(i, 100, 0.8), i, top)
		dc.Enqueue(s, 0)
		want += float64(dc.ProcPower(i, top))
	}
	if math.Abs(float64(dc.Demand())-want) > 1e-6 {
		t.Fatalf("demand = %v, want %v", dc.Demand(), want)
	}
	if dc.BusyCount() != 5 {
		t.Fatalf("busy = %d, want 5", dc.BusyCount())
	}
}

func TestRunningSlicesReuse(t *testing.T) {
	dc := testDC(t, 5)
	top := dc.PowerModel().Table.Top()
	for i := 0; i < 3; i++ {
		dc.Enqueue(NewSlice(job(i, 100, 1), i, top), 0)
	}
	buf := make([]*Slice, 0, 8)
	got := dc.RunningSlices(buf)
	if len(got) != 3 {
		t.Fatalf("running = %d, want 3", len(got))
	}
	got2 := dc.RunningSlices(got)
	if len(got2) != 3 {
		t.Fatalf("reused buffer returned %d, want 3", len(got2))
	}
}

func TestUtilTimesIncludeInFlight(t *testing.T) {
	dc := testDC(t, 2)
	top := dc.PowerModel().Table.Top()
	dc.Enqueue(NewSlice(job(1, 100, 1), 0, top), 0)
	ut := dc.UtilTimes(40)
	if math.Abs(float64(ut[0]-40)) > 1e-9 {
		t.Fatalf("in-flight util = %v, want 40", ut[0])
	}
	if ut[1] != 0 {
		t.Fatalf("idle proc util = %v, want 0", ut[1])
	}
}

func TestCoolingIncludedInProcPower(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	ch := dc.chips[0]
	cpu := dc.PowerModel().CPUPower(ch.Alpha, ch.Beta, top, dc.PowerModel().Table.Levels[top].Vnom)
	want := power.WithCooling(cpu, power.DefaultCOP)
	if math.Abs(float64(dc.ProcPower(0, top)-want)) > 1e-9 {
		t.Fatalf("ProcPower = %v, want %v (with cooling)", dc.ProcPower(0, top), want)
	}
}

func TestMemoryBoundSliceUnaffectedByLevel(t *testing.T) {
	dc := testDC(t, 1)
	s := NewSlice(job(1, 100, 0), 0, dc.PowerModel().Table.Top())
	dc.Enqueue(s, 0)
	dc.SetLevel(s, 0, 30)
	if math.Abs(float64(s.Finish)-100) > 1e-9 {
		t.Fatalf("gamma=0 slice finish = %v, want 100 regardless of level", s.Finish)
	}
}

func TestNewWithCOPsValidation(t *testing.T) {
	m, _ := variation.NewModel(variation.DefaultConfig(5))
	chips := m.GenerateFleet(3)
	pm, _ := power.NewModel(power.DefaultTable())
	volt := func(id, l int) units.Volts { return pm.Table.Levels[l].Vnom }
	if _, err := NewWithCOPs(chips, pm, volt, []float64{2.5, 2.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewWithCOPs(chips, pm, volt, []float64{2.5, 0, 2.5}); err == nil {
		t.Error("zero COP accepted")
	}
	dc, err := NewWithCOPs(chips, pm, volt, []float64{1.0, 2.5, 3.5})
	if err != nil {
		t.Fatal(err)
	}
	// Per-proc cooling differs: same chip power, different totals.
	p0 := float64(dc.ProcPower(0, 0))
	cpu0 := float64(pm.CPUPower(chips[0].Alpha, chips[0].Beta, 0, volt(0, 0)))
	if math.Abs(p0-cpu0*2) > 1e-9 { // COP 1 -> multiplier 2
		t.Fatalf("COP 1 proc power = %v, want %v", p0, cpu0*2)
	}
}

// The ProcPower memo must be transparent: same values as direct
// computation, stale values dropped on invalidation.
func TestProcPowerCacheInvalidation(t *testing.T) {
	m, err := variation.NewModel(variation.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := power.NewModel(power.DefaultTable())
	if err != nil {
		t.Fatal(err)
	}
	// A mutable voltage regime standing in for profiling updates and
	// fault overrides.
	bump := make([]units.Volts, 4)
	volt := func(id, l int) units.Volts { return pm.Table.Levels[l].Vnom + bump[id] }
	dc, err := New(m.GenerateFleet(4), pm, volt, power.DefaultCOP)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(id, l int) units.Watts {
		ch := dc.chips[id]
		return power.WithCooling(pm.CPUPower(ch.Alpha, ch.Beta, l, volt(id, l)), dc.cops[id])
	}
	for id := 0; id < 4; id++ {
		for l := 0; l < pm.Table.NumLevels(); l++ {
			if got, want := dc.ProcPower(id, l), direct(id, l); got != want {
				t.Fatalf("ProcPower(%d,%d) = %v, want %v", id, l, got, want)
			}
		}
	}
	// Regime change without invalidation: memo intentionally serves the
	// old value (that is the contract callers must uphold).
	bump[2] = 0.05
	stale := dc.ProcPower(2, 0)
	if stale == direct(2, 0) {
		t.Fatal("test regime change had no effect; cannot exercise invalidation")
	}
	dc.InvalidatePower(2)
	if got, want := dc.ProcPower(2, 0), direct(2, 0); got != want {
		t.Fatalf("after InvalidatePower: ProcPower = %v, want %v", got, want)
	}
	// Other processors untouched by the per-id invalidation.
	if got, want := dc.ProcPower(1, 0), direct(1, 0); got != want {
		t.Fatalf("ProcPower(1,0) = %v, want %v", got, want)
	}
	bump[1] = 0.02
	dc.InvalidateAllPower()
	if got, want := dc.ProcPower(1, 0), direct(1, 0); got != want {
		t.Fatalf("after InvalidateAllPower: ProcPower = %v, want %v", got, want)
	}
}

func TestUtilTimesIntoMatchesUtilTimes(t *testing.T) {
	dc := testDC(t, 4)
	top := dc.PowerModel().Table.Top()
	dc.Enqueue(NewSlice(job(1, 100, 1), 0, top), 0)
	dc.Enqueue(NewSlice(job(2, 50, 0.5), 2, top), 5)
	dc.Complete(0, 100)
	want := dc.UtilTimes(120)
	buf := make([]units.Seconds, 0, 4)
	got := dc.UtilTimesInto(buf, 120)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UtilTimesInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		got = dc.UtilTimesInto(got, 120)
	})
	if allocs != 0 {
		t.Fatalf("UtilTimesInto allocated %v per run, want 0", allocs)
	}
}

// Arena-built slices behave exactly like NewSlice ones and stay
// distinct across chunk boundaries.
func TestSliceArenaEquivalentToNewSlice(t *testing.T) {
	var a SliceArena
	j := job(1, 100, 0.7)
	got := a.New(j, 3, 2)
	want := NewSlice(j, 3, 2)
	if *got != *want {
		t.Fatalf("arena slice = %+v, want %+v", *got, *want)
	}
	seen := make(map[*Slice]bool)
	for i := 0; i < 3*arenaChunk; i++ {
		s := a.New(j, i, 1)
		if seen[s] {
			t.Fatal("arena handed out the same slice twice")
		}
		seen[s] = true
		if s.ProcID != i || s.Remaining() != 1 || s.Running() || s.Done() {
			t.Fatalf("arena slice %d corrupt: %+v", i, *s)
		}
	}
	// Earlier chunks stay intact after later allocations.
	if got.ProcID != 3 || got.AssignedLevel != 2 {
		t.Fatalf("first arena slice mutated: %+v", *got)
	}
}
