package cluster

import (
	"slices"
	"testing"

	"iscope/internal/rng"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// queuedPrint is one queued slice's share of its processor's
// queue-estimate inputs.
type queuedPrint struct{ serial, level int }

// procPrint is a brute-force fingerprint of what each change-feed
// consumer reads of one processor. The queue-estimate inputs are the
// running slice and its Finish, and the queued slices' serials and
// assigned levels; the fair inputs are busy, utilTime and busySince.
type procPrint struct {
	cur    int // running slice's serial, -1 when idle
	finish units.Seconds
	queue  []queuedPrint

	busy      bool
	utilTime  units.Seconds
	busySince units.Seconds
}

func (a procPrint) sameEstimate(b procPrint) bool {
	return a.cur == b.cur && a.finish == b.finish && slices.Equal(a.queue, b.queue)
}

func (a procPrint) sameFair(b procPrint) bool {
	return a.busy == b.busy && a.utilTime == b.utilTime && a.busySince == b.busySince
}

func fingerprint(dc *Datacenter) []procPrint {
	out := make([]procPrint, dc.Len())
	for id := range out {
		p := procPrint{cur: -1, utilTime: dc.utilTime[id], busySince: dc.busySince[id]}
		if cur := dc.current[id]; cur != nil {
			p.cur, p.finish, p.busy = cur.Serial, cur.Finish, true
		}
		for _, q := range dc.queues[id].items() {
			p.queue = append(p.queue, queuedPrint{q.Serial, q.AssignedLevel})
		}
		out[id] = p
	}
	return out
}

// TestChangeFeedsCoverEveryInputChange drives small fleets through
// random sequences of every mutating method (Enqueue, Complete,
// SetLevel, Preempt, Requeue, Unqueue, Migrate, SetOffline,
// ForceOffline, SetOnline, ResetWork) and RestoreState. After each call
// it compares every processor's fingerprint with the one before: each
// processor whose queue-estimate inputs changed must be listed by
// QueueFeed and each whose fair inputs changed by FairFeed, unless
// that feed overflowed. A feed lists a processor once, a fresh or
// restored datacenter overflows both, and BelowAssigned must equal a
// scan of the running slices. Each feed is reset at random, as its
// consumer would drain it, independently of the other.
func TestChangeFeedsCoverEveryInputChange(t *testing.T) {
	const procs = 6
	r := rng.Named(2015, "change-feeds")
	ops := make(map[string]int)
	var misses int
	for trial := 0; trial < 40; trial++ {
		dc := testDC(t, procs)
		top := dc.PowerModel().Table.Top()
		for _, f := range []*DirtySet{dc.FairFeed(), dc.QueueFeed()} {
			if _, overflow := f.Dirty(); !overflow {
				t.Fatal("a fresh datacenter's feed has not overflowed")
			}
			f.Reset()
		}
		var (
			jobs      []*workload.Job
			preempted []*Slice // neither running, queued nor done
			arena     SliceArena
			now       units.Seconds
		)
		queued := func() *Slice {
			var all []*Slice
			for id := range dc.queues {
				all = append(all, dc.queues[id].items()...)
			}
			if len(all) == 0 {
				return nil
			}
			return all[r.IntN(len(all))]
		}
		takePreempted := func() *Slice {
			if len(preempted) == 0 {
				return nil
			}
			i := r.IntN(len(preempted))
			s := preempted[i]
			preempted = append(preempted[:i], preempted[i+1:]...)
			return s
		}
		for step := 0; step < 300; step++ {
			now += units.Seconds(r.IntN(200))
			before := fingerprint(dc)
			id := r.IntN(procs)
			var op string
			switch r.IntN(12) {
			case 0, 1:
				op = "Enqueue"
				j := &workload.Job{ID: len(jobs), Procs: 1, Runtime: units.Seconds(100 + r.IntN(900)), Boundness: r.Float64()}
				if r.IntN(3) > 0 {
					j.Deadline = now + units.Seconds(r.IntN(3000))
				}
				jobs = append(jobs, j)
				s := NewSlice(j, id, r.IntN(top+1))
				s.Serial = j.ID
				dc.Enqueue(s, now)
			case 2:
				op = "Complete"
				if cur := dc.current[id]; cur != nil {
					now = max(now, cur.Finish)
					dc.Complete(id, now)
				}
			case 3:
				op = "SetLevel"
				if cur := dc.current[id]; cur != nil {
					dc.SetLevel(cur, r.IntN(top+1), now)
				}
			case 4:
				op = "Preempt"
				if s := dc.Preempt(id, now); s != nil {
					preempted = append(preempted, s)
				}
			case 5:
				op = "Requeue"
				if s := takePreempted(); s != nil {
					dc.Requeue(s)
				}
			case 6:
				op = "ResetWork"
				if len(preempted) > 0 {
					preempted[r.IntN(len(preempted))].ResetWork()
				}
			case 7:
				op = "Unqueue"
				if s := queued(); s != nil && !dc.Unqueue(s) {
					t.Fatalf("Unqueue missed a queued slice")
				}
			case 8:
				op = "Migrate"
				if s := queued(); s != nil {
					if _, err := dc.Migrate(s, id, r.IntN(top+1), now); err != nil {
						t.Fatal(err)
					}
				}
			case 9:
				if r.IntN(2) == 0 {
					op = "SetOffline"
					_ = dc.SetOffline(id, 50)
				} else {
					op = "ForceOffline"
					_ = dc.ForceOffline(id, 50)
				}
			case 10:
				op = "SetOnline"
				dc.SetOnline(id, now)
			case 11:
				op = "RestoreState"
				st := dc.CaptureState(func(j *workload.Job) int { return j.ID })
				if _, err := dc.RestoreState(st, &arena, func(ref int) (*workload.Job, error) { return jobs[ref], nil }); err != nil {
					t.Fatal(err)
				}
				for _, f := range []*DirtySet{dc.FairFeed(), dc.QueueFeed()} {
					if _, overflow := f.Dirty(); !overflow {
						t.Fatal("RestoreState left a feed without overflow")
					}
				}
			}
			ops[op]++
			after := fingerprint(dc)
			for _, feed := range []struct {
				name string
				set  *DirtySet
				same func(a, b procPrint) bool
			}{
				{"queue-estimate", dc.QueueFeed(), procPrint.sameEstimate},
				{"fair", dc.FairFeed(), procPrint.sameFair},
			} {
				ids, overflow := feed.set.Dirty()
				seen := make(map[int32]bool, len(ids))
				for _, d := range ids {
					if seen[d] {
						t.Fatalf("trial %d step %d (%s): the %s feed lists processor %d twice", trial, step, op, feed.name, d)
					}
					seen[d] = true
				}
				for p := range after {
					if feed.same(before[p], after[p]) {
						continue
					}
					misses++
					if !overflow && !seen[int32(p)] {
						t.Fatalf("trial %d step %d (%s): processor %d's %s inputs changed (%+v -> %+v) but the feed does not list it", trial, step, op, p, feed.name, before[p], after[p])
					}
				}
			}
			below := 0
			for _, cur := range dc.current {
				if cur != nil && cur.Level < cur.AssignedLevel {
					below++
				}
			}
			if got := dc.BelowAssigned(); got != below {
				t.Fatalf("trial %d step %d (%s): BelowAssigned = %d, a scan counts %d", trial, step, op, got, below)
			}
			if r.IntN(4) == 0 {
				dc.FairFeed().Reset()
			}
			if r.IntN(4) == 0 {
				dc.QueueFeed().Reset()
			}
		}
	}
	if misses == 0 {
		t.Fatal("no operation changed any consumer's inputs")
	}
	t.Logf("ops %v; %d input changes checked", ops, misses)
}
