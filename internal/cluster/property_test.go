package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"iscope/internal/rng"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// TestDemandInvariantUnderRandomOps drives a datacenter through random
// enqueue / complete / retime sequences and checks after every step
// that the incrementally maintained aggregate demand equals the sum of
// running processors' power — the invariant the energy accounting
// rests on.
func TestDemandInvariantUnderRandomOps(t *testing.T) {
	dc := testDC(t, 12)
	top := dc.PowerModel().Table.Top()
	now := units.Seconds(0)
	var slices []*Slice
	nextID := 0

	checkDemand := func() bool {
		var want float64
		for id := range dc.Len() {
			if cur := dc.Current(id); cur != nil {
				want += float64(dc.ProcPower(id, cur.Level))
			}
		}
		return math.Abs(float64(dc.Demand())-want) < 1e-6*(want+1)
	}

	f := func(ops []uint16) bool {
		for _, op := range ops {
			now += units.Seconds(1 + op%97)
			switch op % 3 {
			case 0: // enqueue a new slice
				nextID++
				j := &workload.Job{ID: nextID, Procs: 1,
					Runtime: units.Seconds(50 + op%1000), Boundness: 0.5 + float64(op%50)/100}
				lvl := int(op) % (top + 1)
				s := NewSlice(j, int(op)%dc.Len(), lvl)
				dc.Enqueue(s, now)
				slices = append(slices, s)
			case 1: // complete whatever is due on a random processor
				id := int(op) % dc.Len()
				if cur := dc.Current(id); cur != nil {
					// Jump the clock to its finish and complete it.
					if cur.Finish > now {
						now = cur.Finish
					}
					dc.Complete(id, now)
				}
			case 2: // retime a random running slice
				if cur := dc.Current(int(op) % dc.Len()); cur != nil {
					dc.SetLevel(cur, int(op/3)%(top+1), now)
				}
			}
			if !checkDemand() {
				return false
			}
			if dc.Demand() < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEverySliceCompletesExactlyOnce drains a randomly built workload
// to completion and verifies slice lifecycle invariants.
func TestEverySliceCompletesExactlyOnce(t *testing.T) {
	dc := testDC(t, 6)
	top := dc.PowerModel().Table.Top()
	r := rng.Named(101, "drain")
	var all []*Slice
	now := units.Seconds(0)
	for i := 0; i < 200; i++ {
		j := &workload.Job{ID: i, Procs: 1, Runtime: units.Seconds(10 + r.IntN(500)), Boundness: 1}
		s := NewSlice(j, r.IntN(6), r.IntN(top+1))
		dc.Enqueue(s, now)
		all = append(all, s)
	}
	// Drain: repeatedly complete the earliest-finishing running slice.
	for {
		var next *Slice
		for _, c := range dc.CurrentView() {
			if c != nil && (next == nil || c.Finish < next.Finish) {
				next = c
			}
		}
		if next == nil {
			break
		}
		now = next.Finish
		dc.Complete(next.ProcID, now)
	}
	for i, s := range all {
		if !s.Done() {
			t.Fatalf("slice %d never completed", i)
		}
		if s.Running() {
			t.Fatalf("slice %d done but still running", i)
		}
		if s.Remaining() != 0 {
			t.Fatalf("slice %d done with remaining %v", i, s.Remaining())
		}
	}
	if dc.BusyCount() != 0 || math.Abs(float64(dc.Demand())) > 1e-6 {
		t.Fatalf("drained datacenter busy=%d demand=%v", dc.BusyCount(), dc.Demand())
	}
	// Utilization conservation: total busy time equals the sum of each
	// slice's actual execution span at its (constant) level.
	var wantBusy float64
	for _, s := range all {
		wantBusy += float64(dc.SliceDuration(s, s.Level))
	}
	var gotBusy float64
	for _, u := range dc.UtilTimes(now) {
		gotBusy += float64(u)
	}
	if math.Abs(gotBusy-wantBusy) > 1e-6*wantBusy {
		t.Fatalf("utilization books differ: got %v, want %v", gotBusy, wantBusy)
	}
}

// TestQueueSlackMatchesManualComputation cross-checks QueueSlack
// against a direct walk.
func TestQueueSlackMatchesManualComputation(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	if s := dc.QueueSlack(0, 0); !math.IsInf(float64(s), 1) {
		t.Fatalf("idle processor slack = %v, want +Inf", s)
	}
	a := NewSlice(&workload.Job{ID: 1, Procs: 1, Runtime: 100, Boundness: 1, Deadline: 1e9}, 0, top)
	b := NewSlice(&workload.Job{ID: 2, Procs: 1, Runtime: 50, Boundness: 1, Deadline: 400}, 0, top)
	c := NewSlice(&workload.Job{ID: 3, Procs: 1, Runtime: 50, Boundness: 1, Deadline: 230}, 0, top)
	dc.Enqueue(a, 0)
	dc.Enqueue(b, 0)
	dc.Enqueue(c, 0)
	// a finishes at 100; b at 150 (slack 250); c at 200 (slack 30).
	if got := dc.QueueSlack(0, 0); math.Abs(float64(got-30)) > 1e-9 {
		t.Fatalf("queue slack = %v, want 30", got)
	}
	// No-deadline queue entries are ignored.
	d := NewSlice(&workload.Job{ID: 4, Procs: 1, Runtime: 10, Boundness: 1}, 0, top)
	dc.Enqueue(d, 0)
	if got := dc.QueueSlack(0, 0); math.Abs(float64(got-30)) > 1e-9 {
		t.Fatalf("slack changed by deadline-free entry: %v", got)
	}
}

// TestAvailableAtMatchesRealizedStart verifies the queue estimate is
// exact when no retiming happens.
func TestAvailableAtMatchesRealizedStart(t *testing.T) {
	dc := testDC(t, 1)
	top := dc.PowerModel().Table.Top()
	a := NewSlice(&workload.Job{ID: 1, Procs: 1, Runtime: 100, Boundness: 1}, 0, top)
	b := NewSlice(&workload.Job{ID: 2, Procs: 1, Runtime: 70, Boundness: 0.5}, 0, top)
	dc.Enqueue(a, 0)
	dc.Enqueue(b, 0)
	predicted := dc.AvailableAt(0, 0)
	dc.Complete(0, a.Finish)
	dc.Complete(0, b.Finish)
	// After both complete, the processor frees exactly at the predicted
	// time (b's finish = a's finish + b's duration = predicted).
	if math.Abs(float64(b.Finish-predicted)) > 1e-9 {
		t.Fatalf("realized availability %v != predicted %v", b.Finish, predicted)
	}
}
