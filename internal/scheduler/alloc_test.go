package scheduler

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"iscope/internal/units"
)

// allocWorkers is the worker-count sweep of the steady-state guards:
// one worker is the inline single-shard pool every serial run uses, the
// others are the counts the benchmarks measure. The fair-order shards
// are per worker, so a hidden allocation in the pass would scale with
// the fleet at exactly these counts.
var allocWorkers = []int{1, 2, 4, 8}

// warmSim builds a mid-simulation sim on a kernel pool of the given
// width by stepping the event loop until roughly half the jobs have
// finished, so the scratch buffers and fair-order shards have reached their
// steady-state capacities and the hot paths can be measured in a
// representative state.
func warmSim(t *testing.T, workers int) *sim {
	t.Helper()
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 300)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	cfg := RunConfig{Seed: 1, Jobs: jobs, Wind: w, EnableRebalance: true, Workers: workers}
	s, err := newSim(fleet, sch, cfg, false)
	if err != nil {
		t.Fatalf("newSim: %v", err)
	}
	t.Cleanup(s.close)
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
// kernels reuse sim-owned scratch and the fair pass binds its kernel at
// construction, so once warm they must not allocate.
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

// measureKernels warms a sim on a kernel pool of the given width and
// measures the named kernels of allocKernels, or all of them when no
// name is given.
func measureKernels(t *testing.T, workers int, names ...string) {
	t.Helper()
	s := warmSim(t, workers)
	for _, k := range allocKernels(s) {
		if len(names) == 0 || slices.Contains(names, k.name) {
			measure(t, k.name, k.fn)
		}
	}
}

// The serial guards below pin each kernel on the one-worker pool every
// serial run uses (each kernel inline over the single shard).

func TestSelectProcsAllocFree(t *testing.T) {
	measureKernels(t, 1, "selectProcs")
}

func TestMatchAllocFree(t *testing.T) {
	measureKernels(t, 1, "match(deficit)", "match(surplus)")
}

func TestRebalanceAllocFree(t *testing.T) {
	measureKernels(t, 1, "rebalance")
}

func TestQualityMetricsAllocFree(t *testing.T) {
	measureKernels(t, 1, "qualityMetrics")
}

// TestLeastUsedOrderAllocFree pins the fair order's refresh path, the
// single hottest sort in the profile of the seed implementation, and
// the efficiency order's re-sort, the other static-order hot path.
func TestLeastUsedOrderAllocFree(t *testing.T) {
	measureKernels(t, 1, "leastUsedOrder", "refreshEffOrder")
}

// TestParallelKernelsAllocFree pins every kernel at the multi-worker
// counts of the sweep; the serial guards above cover one worker.
func TestParallelKernelsAllocFree(t *testing.T) {
	for _, workers := range allocWorkers {
		if workers == 1 {
			continue
		}
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			measureKernels(t, workers)
		})
	}
}

// TestParallelIncrementalRepairAllocFree pins the dirty-set repair
// paths the incremental order maintenance runs between full rebuilds: a
// fair order repaired around one dirtied processor, an efficiency
// order repaired around one re-ranked chip, and a slack order
// re-derived across a deficit/surplus direction flip. Each is the
// steady-state fast path at million-processor scale, so per-call
// growth here is a scaling regression even when the full rebuilds stay
// clean.
func TestParallelIncrementalRepairAllocFree(t *testing.T) {
	for _, workers := range allocWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := warmSim(t, workers)
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
				// every call drives one shard through repairShard while
				// any others take the clean fast path.
				if sl := s.dc.Preempt(busy, now); sl != nil {
					s.dc.Enqueue(sl, now)
				}
				s.fairValid = false
				_ = s.leastUsedOrder(now)
			}
			fairRepair() // warm: the full shard rebuild sizes the lists
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
		})
	}
}

// TestKernelPoolGoroutines pins the pool's goroutine budget. Every
// optimized run — every daemon tenant included — builds a kernel pool,
// so the one-worker pool must own no goroutines, and a wider pool must
// hand all of its workers back on close.
func TestKernelPoolGoroutines(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	build := func(workers int) *sim {
		t.Helper()
		s, err := newSim(fleet, sch, RunConfig{Seed: 1, Jobs: jobs, Workers: workers}, false)
		if err != nil {
			t.Fatalf("newSim(workers=%d): %v", workers, err)
		}
		return s
	}
	// Pools closed by earlier tests release their workers
	// asynchronously; count from a settled baseline.
	base := settledGoroutines()
	for _, workers := range []int{0, 1} {
		s := build(workers)
		if got := runtime.NumGoroutine(); got != base {
			t.Errorf("newSim(workers=%d) left %d goroutines, want %d (none started)", workers, got, base)
		}
		s.close()
	}
	s := build(4)
	if got := runtime.NumGoroutine(); got != base+3 {
		t.Errorf("newSim(workers=4) left %d goroutines, want %d (three pool workers)", got, base+3)
	}
	s.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("close(workers=4) left %d goroutines, want %d", got, base)
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
	s := warmSim(t, 4)
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
	s := warmSim(t, 1)
	now := s.eng.Now()
	buf := make([]units.Seconds, 0, len(s.dc.Procs))
	measure(t, "UtilTimesInto", func() {
		buf = s.dc.UtilTimesInto(buf[:0], now)
	})
}

// TestBuildFleetAllocsPerChip: a fleet build keeps its chips, cores,
// margins, bins and scan records in slabs, so doubling the fleet adds at
// most one allocation per added chip. What does grow, the scan's
// per-chunk buffers, grows per 64 chips.
func TestBuildFleetAllocsPerChip(t *testing.T) {
	const n = 1000
	build := func(procs int) func() {
		return func() {
			if _, err := BuildFleet(DefaultFleetSpec(5, procs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := testing.AllocsPerRun(3, build(n))
	large := testing.AllocsPerRun(3, build(2*n))
	if perChip := (large - small) / n; perChip > 1 {
		t.Fatalf("BuildFleet(%d) allocated %v objects, BuildFleet(%d) %v: %.2f per added chip, want at most 1", 2*n, large, n, small, perChip)
	}
}
