package cluster

import (
	"math"
	"testing"
)

// TestPreemptRequeueResume walks the crash path: a running slice is
// preempted mid-flight, requeued with its remaining work, the node is
// forced offline and later returned; the slice must resume from where
// it stopped and the demand books must balance at every step.
func TestPreemptRequeueResume(t *testing.T) {
	dc := testDC(t, 2)
	top := dc.PowerModel().Table.Top()
	s := NewSlice(job(1, 1000, 1), 0, top)
	if dc.Enqueue(s, 0) != s {
		t.Fatal("slice did not start")
	}
	draw := dc.Demand()
	gen := s.Gen

	pre := dc.Preempt(0, 400)
	if pre != s {
		t.Fatal("preempt did not return the running slice")
	}
	if s.Running() || s.Done() {
		t.Fatal("preempted slice still running or done")
	}
	if s.Gen == gen {
		t.Fatal("preempt did not bump generation")
	}
	if got := s.Remaining(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("remaining %v after 400/1000 s, want 0.6", got)
	}
	if dc.Demand() != 0 {
		t.Fatalf("demand %v after preempt, want 0", dc.Demand())
	}
	if dc.UtilTimeOf(0) != 400 {
		t.Fatalf("util time %v, want 400", dc.UtilTimeOf(0))
	}

	dc.Requeue(s)
	if dc.QueueLen(0) != 1 {
		t.Fatal("requeue did not queue the slice")
	}
	if err := dc.ForceOffline(0, 50); err != nil {
		t.Fatal(err)
	}
	if dc.Demand() != 50 {
		t.Fatalf("offline draw not booked: demand %v", dc.Demand())
	}
	// Requeue must never start the slice, even on the idle node 1.
	if dc.Current(0) != nil {
		t.Fatal("requeued slice started while offline")
	}

	started := dc.SetOnline(0, 1000)
	if started != s {
		t.Fatal("repair did not restart the requeued slice")
	}
	if dc.Demand() != draw {
		t.Fatalf("demand %v after resume, want %v", dc.Demand(), draw)
	}
	if got, want := float64(s.Finish), 1000+0.6*1000; math.Abs(got-want) > 1e-6 {
		t.Fatalf("resumed finish %v, want %v", got, want)
	}
	dc.Complete(0, s.Finish)
	if !s.Done() {
		t.Fatal("slice did not complete after resume")
	}
	if got, want := float64(dc.UtilTimeOf(0)), 1000.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("total util %v, want %v (work conserved across preemption)", got, want)
	}
}

// TestRequeueFrontOrdering: a preempted slice resumes before slices
// that were already waiting.
func TestRequeueFrontOrdering(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	first := NewSlice(job(1, 100, 1), 0, top)
	waiting := NewSlice(job(2, 100, 1), 0, top)
	dc.Enqueue(first, 0)
	dc.Enqueue(waiting, 0)
	pre := dc.Preempt(0, 50)
	dc.Requeue(pre)
	if dc.queues[0].at(0) != pre {
		t.Fatal("preempted slice not at queue front")
	}
}

// TestResetWork discards progress only on preempted slices.
func TestResetWork(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	s := NewSlice(job(1, 100, 1), 0, top)
	dc.Enqueue(s, 0)
	s.ResetWork() // running: no-op
	pre := dc.Preempt(0, 25)
	if math.Abs(pre.Remaining()-0.75) > 1e-9 {
		t.Fatalf("remaining %v, want 0.75", pre.Remaining())
	}
	pre.ResetWork()
	if pre.Remaining() != 1 {
		t.Fatalf("remaining %v after reset, want 1", pre.Remaining())
	}
}

// TestForceOfflineGuards: running or already-offline nodes refuse.
func TestForceOfflineGuards(t *testing.T) {
	dc := testDC(t, 2)
	top := dc.PowerModel().Table.Top()
	dc.Enqueue(NewSlice(job(1, 100, 1), 0, top), 0)
	if err := dc.ForceOffline(0, 0); err == nil {
		t.Fatal("forced a running processor offline")
	}
	if err := dc.ForceOffline(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := dc.ForceOffline(1, 0); err == nil {
		t.Fatal("double offline accepted")
	}
	if dc.Preempt(1, 0) != nil {
		t.Fatal("preempt on idle processor returned a slice")
	}
}
