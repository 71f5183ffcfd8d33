package cluster

import (
	"math"
	"testing"

	"iscope/internal/units"
	"iscope/internal/workload"
)

func TestUnqueueAndMigrate(t *testing.T) {
	dc := testDC(t, 2)
	top := dc.PowerModel().Table.Top()
	a := NewSlice(job(1, 100, 1), 0, top)
	b := NewSlice(&workload.Job{ID: 2, Procs: 1, Runtime: 50, Boundness: 1, Deadline: 120}, 0, top)
	dc.Enqueue(a, 0) // runs
	dc.Enqueue(b, 0) // queued behind a, would finish at 150 > deadline 120

	// Queue estimate sees b starting at a's finish.
	var est units.Seconds
	count := 0
	dc.QueueEstimates(func(s *Slice, start units.Seconds) {
		if s == b {
			est = start
		}
		count++
	})
	if count != 1 || est != 100 {
		t.Fatalf("QueueEstimates: count=%d est=%v, want 1 slice at 100", count, est)
	}

	// Running/done slices cannot be unqueued.
	if dc.Unqueue(a) {
		t.Fatal("unqueued a running slice")
	}

	// Migrate b to the idle processor 1; it starts immediately.
	started, err := dc.Migrate(b, 1, top, 10)
	if err != nil {
		t.Fatal(err)
	}
	if started != b || !b.Running() || b.ProcID != 1 {
		t.Fatalf("migration did not start b on proc 1: %+v", b)
	}
	if math.Abs(float64(b.Finish-60)) > 1e-9 {
		t.Fatalf("migrated finish = %v, want 60", b.Finish)
	}
	// Source queue drained and backlog cleared.
	if dc.QueueLen(0) != 0 {
		t.Fatal("source queue still holds the migrated slice")
	}
	if got := dc.AvailableAt(0, 10); got != a.Finish {
		t.Fatalf("source availability %v, want %v (backlog cleared)", got, a.Finish)
	}
	// Migrating a non-queued slice errors.
	if _, err := dc.Migrate(b, 0, top, 20); err == nil {
		t.Fatal("migrated a running slice")
	}
}

func TestMigrateToBusyProcQueues(t *testing.T) {
	dc := testDC(t, 2)
	top := dc.PowerModel().Table.Top()
	dc.Enqueue(NewSlice(job(1, 100, 1), 0, top), 0)
	dc.Enqueue(NewSlice(job(2, 100, 1), 1, top), 0)
	q := NewSlice(job(3, 50, 1), 0, top)
	dc.Enqueue(q, 0)
	started, err := dc.Migrate(q, 1, 2, 5) // new level too
	if err != nil {
		t.Fatal(err)
	}
	if started != nil {
		t.Fatal("migration to a busy processor should queue, not start")
	}
	if q.ProcID != 1 || q.AssignedLevel != 2 {
		t.Fatalf("migration did not retarget: %+v", q)
	}
	if dc.QueueLen(1) != 1 {
		t.Fatal("target queue empty after migration")
	}
	// Target availability includes the migrated backlog at its new level.
	want := dc.Current(1).Finish + dc.SliceDuration(q, 2)
	if got := dc.AvailableAt(1, 5); math.Abs(float64(got-want)) > 1e-9 {
		t.Fatalf("target availability %v, want %v", got, want)
	}
}

// TestOfflineQueueEstimates: a slice queued behind an offline
// processor's profiling session estimates a +Inf start.
func TestOfflineQueueEstimates(t *testing.T) {
	dc := testDC(t, 2)
	top := dc.PowerModel().Table.Top()
	_ = dc.SetOffline(0, 115)
	q := NewSlice(&workload.Job{ID: 1, Procs: 1, Runtime: 50, Boundness: 1, Deadline: 500}, 0, top)
	dc.Enqueue(q, 0) // queues behind the profiling session
	sawInf := false
	dc.QueueEstimates(func(s *Slice, start units.Seconds) {
		if s == q && math.IsInf(float64(start), 1) {
			sawInf = true
		}
	})
	if !sawInf {
		t.Fatal("slice behind a profiling session should estimate +Inf start")
	}
}
