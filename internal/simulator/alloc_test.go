package simulator

import (
	"testing"

	"iscope/internal/units"
)

// TestQueuePushPopAllocFree pins the queue's steady state: once the
// run and the heap have reached capacity, scheduling and draining must
// not touch the heap. The schedule order is deliberately descending:
// the first push starts the run and every later one sorts before its
// tail, so each cycle exercises the heap's sift-up and sift-down as
// well as the run.
func TestQueuePushPopAllocFree(t *testing.T) {
	e := NewWithCapacity(discard, 64, 64)

	cycle := func() {
		base := e.Now()
		for i := 31; i >= 0; i-- {
			if err := e.ScheduleTag(base+units.Seconds(i)*1e-6, i); err != nil {
				t.Fatal(err)
			}
		}
		for e.Step() {
		}
	}
	cycle() // warm: grow the run and heap slices to capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("push/pop allocated %v times per cycle in steady state, want 0", allocs)
	}
}

// TestStepBatchAllocFree pins the same-timestamp batch dispatch: once
// the run and the heap have reached capacity, firing an entire front
// timestamp straight from them must not touch the heap. Half the
// events share one timestamp (the batch) and half are spread out
// (one-event batches). The first shared-timestamp push starts the run,
// the first spread-out one extends it, and the other fifteen
// shared-timestamp pushes sort before its tail, so every cycle's big
// batch spans the run and the heap.
func TestStepBatchAllocFree(t *testing.T) {
	e := NewWithCapacity(discard, 64, 64)

	spans := false
	cycle := func() {
		base := e.Now()
		for i := 15; i >= 0; i-- {
			// One 16-event batch at a shared timestamp...
			if err := e.ScheduleTag(base+1e-6, i); err != nil {
				t.Fatal(err)
			}
			// ...and 16 singletons behind it.
			if err := e.ScheduleTag(base+2e-6+units.Seconds(i)*1e-6, i); err != nil {
				t.Fatal(err)
			}
		}
		spans = e.run[e.head].at == e.pq[0].at
		for e.StepBatch(nil) > 0 {
		}
	}
	cycle() // warm: grow the run and heap slices to capacity
	if !spans {
		t.Fatal("the shared-timestamp batch did not span the run and the heap")
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("batch dispatch allocated %v times per cycle in steady state, want 0", allocs)
	}
}

// TestRunCompactionAllocFree pins a long-lived stream whose run never
// empties: every fired event schedules a successor after the run's
// tail, as a daemon's ticks and in-order arrivals do. The popped prefix
// must be compacted in place, so the run stays within a bounded
// capacity and steady state allocates nothing.
func TestRunCompactionAllocFree(t *testing.T) {
	const live = 48
	next := units.Seconds(0)
	var e *Engine[int]
	e = NewWithCapacity(func(tag int, now units.Seconds) {
		next++
		if err := e.ScheduleTag(next, tag); err != nil {
			t.Fatal(err)
		}
	}, live, 0)
	for i := 0; i < live; i++ {
		next++
		if err := e.ScheduleTag(next, i); err != nil {
			t.Fatal(err)
		}
	}
	compactions := 0
	cycle := func() {
		for i := 0; i < 64; i++ {
			before := e.head
			e.Step()
			if before > 0 && e.head == 0 {
				compactions++
			}
		}
	}
	cycle() // warm: let the run reach its steady capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("streaming run allocated %v times per cycle in steady state, want 0", allocs)
	}
	if compactions == 0 {
		t.Fatal("the run never compacted")
	}
	if e.Pending() != live || len(e.pq) != 0 {
		t.Fatalf("pending %d (heap %d), want %d all in the run", e.Pending(), len(e.pq), live)
	}
	if c := cap(e.run); c > 4*live {
		t.Fatalf("run capacity %d for %d live events, want at most %d", c, live, 4*live)
	}
}
