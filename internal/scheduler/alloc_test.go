package scheduler

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"iscope/internal/units"
)

// warmSim builds a mid-simulation sim by stepping the event loop until
// roughly half the jobs have finished, so the scratch buffers and the
// fair-order lists have reached their steady-state capacities and the
// hot paths can be measured in a representative state.
func warmSim(t *testing.T) *sim {
	t.Helper()
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 300)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	cfg := RunConfig{Seed: 1, Jobs: jobs, Wind: w, EnableRebalance: true}
	s, err := newSim(fleet, sch, cfg, false)
	if err != nil {
		t.Fatalf("newSim: %v", err)
	}
	half := len(cfg.Jobs.Jobs) / 2
	for s.jobsLeft > half {
		if !s.eng.Step() {
			t.Fatal("event queue drained before the warmup point")
		}
	}
	return s
}

// measure asserts fn performs zero steady-state heap allocations. One
// untimed call first lets lazily sized buffers reach capacity — growth
// on first use is fine; growth per call is the regression these tests
// guard against.
func measure(t *testing.T, name string, fn func()) {
	t.Helper()
	fn()
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s allocated %v times per call in steady state, want 0", name, allocs)
	}
}

// allocKernel is one per-event kernel the steady-state guards measure.
type allocKernel struct {
	name string
	fn   func()
}

// allocKernels lists the per-event kernels of a warm sim: placement,
// both directions of the matching sort, rebalance, the end-of-run
// statistics, and the fair and efficiency orders' refresh paths. The
// kernels reuse sim-owned scratch, so once warm they must not allocate.
func allocKernels(s *sim) []allocKernel {
	now := s.eng.Now()
	j := s.states[len(s.states)-1].job
	return []allocKernel{
		{"selectProcs", func() {
			s.fairValid = false // force a fresh fair pass every call
			_ = s.selectProcs(j, now)
		}},
		{"match(deficit)", func() {
			s.curWind = s.dc.Demand() / 2 // deficit: sort + step-down walk
			_ = s.match(now)
		}},
		{"match(surplus)", func() {
			s.curWind = s.dc.Demand() * 2 // surplus: sort + restore walk
			_ = s.match(now)
		}},
		{"rebalance", func() {
			s.fairValid = false
			s.rebalance(now)
		}},
		{"qualityMetrics", func() {
			_, _, _ = s.qualityMetrics()
		}},
		{"leastUsedOrder", func() {
			s.fairValid = false
			_ = s.leastUsedOrder(now)
		}},
		{"refreshEffOrder", func() {
			s.refreshEffOrder()
		}},
	}
}

// measureKernels warms a sim and measures the named kernels of
// allocKernels.
func measureKernels(t *testing.T, names ...string) {
	t.Helper()
	s := warmSim(t)
	for _, k := range allocKernels(s) {
		if slices.Contains(names, k.name) {
			measure(t, k.name, k.fn)
		}
	}
}

func TestSelectProcsAllocFree(t *testing.T) {
	measureKernels(t, "selectProcs")
}

func TestMatchAllocFree(t *testing.T) {
	measureKernels(t, "match(deficit)", "match(surplus)")
}

func TestRebalanceAllocFree(t *testing.T) {
	measureKernels(t, "rebalance")
}

func TestQualityMetricsAllocFree(t *testing.T) {
	measureKernels(t, "qualityMetrics")
}

// TestLeastUsedOrderAllocFree pins the fair order's refresh path, the
// single hottest sort in the profile of the seed implementation, and
// the efficiency order's re-sort, the other static-order hot path.
func TestLeastUsedOrderAllocFree(t *testing.T) {
	measureKernels(t, "leastUsedOrder", "refreshEffOrder")
}

// TestFairRepairAllocFree pins the dirty-set repair paths the
// incremental order maintenance runs between full rebuilds: a fair
// order repaired around one dirtied processor, an efficiency
// order repaired around one re-ranked chip, and a slack order
// re-derived across a deficit/surplus direction flip. Each is the
// steady-state fast path at million-processor scale, so per-call
// growth here is a scaling regression even when the full rebuilds stay
// clean.
func TestFairRepairAllocFree(t *testing.T) {
	s := warmSim(t)
	// The warmup may have stopped at an instant where every
	// processor is between slices; step until one is busy so the
	// preempt cycle below has a target.
	busy := -1
	for busy < 0 {
		for i := range s.dc.Procs {
			if s.dc.IsBusy(i) {
				busy = i
				break
			}
		}
		if busy < 0 && !s.eng.Step() {
			t.Fatal("event queue drained before any processor went busy")
		}
	}
	now := s.eng.Now()
	fairRepair := func() {
		// The same-instant preempt/enqueue round-trip leaves the
		// cluster unchanged but fair-dirties one processor, so
		// every call drives the lists through repair.
		if sl := s.dc.Preempt(busy, now); sl != nil {
			s.dc.Enqueue(sl, now)
		}
		s.fairValid = false
		_ = s.leastUsedOrder(now)
	}
	fairRepair() // warm: the full rebuild sizes the lists
	fairRepair() // warm: the first repair sizes the patch scratch
	measure(t, "fairPass(repair)", fairRepair)

	effRepair := func() {
		s.markEffDirty(3)
		s.refreshEffOrder()
	}
	effRepair()
	effRepair()
	measure(t, "repairEffOrder", effRepair)

	slackFlip := func() {
		_ = s.sortRunningBySlack(now, true)
		_ = s.sortRunningBySlack(now, false)
	}
	slackFlip()
	slackFlip()
	measure(t, "sortRunningBySlack(flip)", slackFlip)
}

// TestRunStartsNoGoroutines pins that a simulation runs on its
// caller's goroutine alone, whatever the ignored Workers field says:
// the goroutine count holds across newSim, across a full Run (sampled
// at every checkpoint, mid-run), and across NewStepper and Close.
func TestRunStartsNoGoroutines(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 300)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	// Goroutines of earlier tests may still be winding down; count
	// from a settled baseline.
	base := settledGoroutines()
	for _, workers := range []int{0, 1, 8} {
		cfg := RunConfig{Seed: 1, Jobs: jobs, Wind: w, EnableRebalance: true, Workers: workers}
		if _, err := newSim(fleet, sch, cfg, false); err != nil {
			t.Fatalf("newSim(workers=%d): %v", workers, err)
		}
		if got := runtime.NumGoroutine(); got != base {
			t.Errorf("newSim(workers=%d) left %d goroutines, want %d", workers, got, base)
		}

		mid := -1
		run := cfg
		run.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: func([]byte) error {
			mid = max(mid, runtime.NumGoroutine())
			return nil
		}}
		if _, err := Run(fleet, sch, run); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if mid < 0 {
			t.Fatalf("Run(workers=%d) emitted no checkpoint to sample at", workers)
		}
		if got := runtime.NumGoroutine(); mid != base || got != base {
			t.Errorf("Run(workers=%d) ran at up to %d goroutines and left %d, want %d", workers, mid, got, base)
		}

		st, err := NewStepper(fleet, sch, cfg)
		if err != nil {
			t.Fatalf("NewStepper(workers=%d): %v", workers, err)
		}
		if got := runtime.NumGoroutine(); got != base {
			t.Errorf("NewStepper(workers=%d) left %d goroutines, want %d", workers, got, base)
		}
		st.Close()
		if got := runtime.NumGoroutine(); got != base {
			t.Errorf("Stepper.Close(workers=%d) left %d goroutines, want %d", workers, got, base)
		}
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 20; stable++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		}
	}
	return n
}

// TestBatchDispatchAllocFree pins the scheduler-facing batch loop:
// once warm, driving the simulation through ProcessEventBatch-sized
// engine calls must allocate no more than the single-step loop it
// replaced (the handlers themselves own any event scheduling, which
// reuses pooled nodes). The engine-internal batch buffer is guarded
// separately in internal/simulator.
func TestBatchDispatchAllocFree(t *testing.T) {
	s := warmSim(t)
	// Steady state: each call fires at most one same-timestamp batch.
	// The warm sim still has half its jobs queued, so the queue cannot
	// drain inside the 101 measured calls (each batch is bounded by
	// the handful of events sharing one instant).
	batch := func() {
		if s.eng.StepBatch(s.batchHalt) == 0 {
			t.Fatal("event queue drained during the measurement")
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs > 0.2 {
		t.Errorf("batch dispatch allocated %v times per call in steady state, want ~0", allocs)
	}
}

// TestUtilTimesIntoNoEscape guards the reused-buffer form of
// UtilTimes: filling it must not allocate.
func TestUtilTimesIntoNoEscape(t *testing.T) {
	s := warmSim(t)
	now := s.eng.Now()
	buf := make([]units.Seconds, 0, len(s.dc.Procs))
	measure(t, "UtilTimesInto", func() {
		buf = s.dc.UtilTimesInto(buf[:0], now)
	})
}

// TestBuildFleetAllocsPerChip: a fleet build keeps its chips, cores,
// margins, bins, scan records and, for a noisy scan, the per-chip noise
// streams in slabs, so doubling the fleet adds at most one allocation
// per added chip. What does grow, the scan's per-chunk buffers, grows
// per 64 chips.
func TestBuildFleetAllocsPerChip(t *testing.T) {
	const n = 1000
	for _, noise := range []float64{0, 0.004} {
		build := func(procs int) func() {
			return func() {
				spec := DefaultFleetSpec(5, procs)
				spec.ScanNoise = noise
				if _, err := BuildFleet(spec); err != nil {
					t.Fatal(err)
				}
			}
		}
		small := testing.AllocsPerRun(3, build(n))
		large := testing.AllocsPerRun(3, build(2*n))
		if perChip := (large - small) / n; perChip > 1 {
			t.Fatalf("ScanNoise %v: BuildFleet(%d) allocated %v objects, BuildFleet(%d) %v: %.2f per added chip, want at most 1", noise, 2*n, large, n, small, perChip)
		}
	}
}
