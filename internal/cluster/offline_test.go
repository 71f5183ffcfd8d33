package cluster

import (
	"math"
	"testing"

	"iscope/internal/units"
	"iscope/internal/workload"
)

func TestSetOfflineLifecycle(t *testing.T) {
	dc := testDC(t, 3)
	top := dc.PowerModel().Table.Top()

	if err := dc.SetOffline(0, 115); err != nil {
		t.Fatal(err)
	}
	if !dc.Offline(0) {
		t.Fatal("processor not marked offline")
	}
	if dc.OfflineCount() != 1 {
		t.Fatalf("offline count = %d, want 1", dc.OfflineCount())
	}
	if math.Abs(float64(dc.Demand())-115) > 1e-9 {
		t.Fatalf("demand = %v, want 115 W profiling draw", dc.Demand())
	}
	if !math.IsInf(float64(dc.AvailableAt(0, 0)), 1) {
		t.Fatal("offline processor should be unavailable")
	}

	// Double-offline rejected.
	if err := dc.SetOffline(0, 115); err == nil {
		t.Fatal("re-offlining accepted")
	}
	// Busy processor rejected.
	s := NewSlice(job(1, 100, 1), 1, top)
	dc.Enqueue(s, 0)
	if err := dc.SetOffline(1, 115); err == nil {
		t.Fatal("busy processor taken offline")
	}
	// Negative draw rejected.
	if err := dc.SetOffline(2, -5); err == nil {
		t.Fatal("negative draw accepted")
	}

	// Work arriving for the offline processor queues instead of starting.
	q := NewSlice(job(2, 50, 1), 0, top)
	if started := dc.Enqueue(q, 10); started != nil {
		t.Fatal("slice started on an offline processor")
	}
	if dc.QueueLen(0) != 1 {
		t.Fatal("slice not queued on offline processor")
	}

	// Going online releases the queue and drops the profiling draw.
	started := dc.SetOnline(0, 20)
	if started != q {
		t.Fatal("SetOnline did not start the queued slice")
	}
	if dc.Offline(0) || dc.OfflineCount() != 0 {
		t.Fatal("processor still offline after SetOnline")
	}
	// Demand: slice on proc 0 + slice on proc 1, no profiling draw.
	want := float64(dc.ProcPower(0, top) + dc.ProcPower(1, top))
	if math.Abs(float64(dc.Demand())-want) > 1e-6 {
		t.Fatalf("demand = %v, want %v", dc.Demand(), want)
	}
	// SetOnline on an online processor is a no-op.
	if dc.SetOnline(0, 25) != nil {
		t.Fatal("SetOnline on online processor returned a slice")
	}
}

func TestSetOnlineWithEmptyQueue(t *testing.T) {
	dc := testDC(t, 1)
	if err := dc.SetOffline(0, 200); err != nil {
		t.Fatal(err)
	}
	if got := dc.SetOnline(0, 5); got != nil {
		t.Fatal("empty-queue SetOnline returned a slice")
	}
	if math.Abs(float64(dc.Demand())) > 1e-9 {
		t.Fatalf("demand = %v after online, want 0", dc.Demand())
	}
}

func TestSetOfflineRejectedWithQueuedWork(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	dc.Enqueue(NewSlice(job(1, 100, 1), 0, top), 0)
	dc.Enqueue(NewSlice(job(2, 100, 1), 0, top), 0)
	dc.Complete(0, 100) // second slice now running, queue empty
	dc.Enqueue(NewSlice(job(3, 100, 1), 0, top), 100)
	if err := dc.SetOffline(0, 115); err == nil {
		t.Fatal("processor with queued work taken offline")
	}
}

func TestOfflineDuringDrainKeepsUtilBooks(t *testing.T) {
	// Profiling time must not count as utilization (the paper's wear
	// metric tracks service work).
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	_ = dc.SetOffline(0, 115)
	_ = dc.SetOnline(0, units.Hours(2))
	if dc.UtilTimeOf(0) != 0 {
		t.Fatalf("profiling time leaked into UtilTime: %v", dc.UtilTimeOf(0))
	}
	s := NewSlice(&workload.Job{ID: 9, Procs: 1, Runtime: 100, Boundness: 1}, 0, top)
	dc.Enqueue(s, units.Hours(2))
	dc.Complete(0, s.Finish)
	if math.Abs(float64(dc.UtilTimeOf(0))-100) > 1e-9 {
		t.Fatalf("UtilTime = %v, want 100", dc.UtilTimeOf(0))
	}
}
