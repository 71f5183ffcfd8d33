package scheduler

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"iscope/internal/cluster"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// TestSortRunningBySlackMatchesFullSort checks the matching sort
// against brute force. Over random cluster states — idle processors,
// slices at level 0, below and at their assigned level, and equal
// slacks, +Inf (no deadline) among them — each direction must return
// exactly the full sort of every running slice under slackDesc or
// slackAsc, filtered to the slices that direction's walk can act on:
// those above level 0 for the deficit, those below their assigned
// level for the surplus. The directions are asked in random order, so
// no pass may depend on the one before.
func TestSortRunningBySlackMatchesFullSort(t *testing.T) {
	const procs = 24
	fleet := testFleet(t, procs)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	s, err := newSim(fleet, sch, RunConfig{Seed: 1, Jobs: testJobs(t, 1, 4, 0.3)}, false)
	if err != nil {
		t.Fatalf("newSim: %v", err)
	}
	top := s.dc.PowerModel().Table.Top()
	canLower := func(sl *cluster.Slice) bool { return sl.Level > 0 }
	canRaise := func(sl *cluster.Slice) bool { return sl.Level < sl.AssignedLevel }

	rnd := rand.New(rand.NewSource(2015))
	jobs := make([]workload.Job, procs)
	var arena cluster.SliceArena
	var idle, atZero, atAssigned, belowAssigned, infTies, finiteTies int
	for trial := 0; trial < 300; trial++ {
		// Finishes and deadlines on a 600 s grid, so slacks are exact
		// and often equal.
		st := cluster.State{Procs: make([]cluster.ProcState, procs)}
		for id := range st.Procs {
			if rnd.Intn(6) == 0 {
				idle++
				continue
			}
			assigned := rnd.Intn(top + 1)
			level := rnd.Intn(assigned + 1)
			var deadline units.Seconds
			if rnd.Intn(3) > 0 {
				deadline = units.Seconds(600 * (1 + rnd.Intn(6)))
			}
			jobs[id] = workload.Job{ID: id, Procs: 1, Runtime: 600, Deadline: deadline}
			st.Procs[id].Current = []cluster.SliceState{{
				JobRef: id, Serial: id, ProcID: id,
				AssignedLevel: assigned, Level: level,
				Running: true, Remaining: 1,
				Finish: units.Seconds(600 * (1 + rnd.Intn(4))),
			}}
		}
		if _, err := s.dc.RestoreState(st, &arena, func(ref int) (*workload.Job, error) { return &jobs[ref], nil }); err != nil {
			t.Fatalf("trial %d: RestoreState: %v", trial, err)
		}
		view := s.dc.CurrentView()

		var all []slackEntry
		count := map[units.Seconds]int{}
		for id, cur := range view {
			if cur == nil {
				continue
			}
			switch {
			case cur.Level == 0:
				atZero++
			case cur.Level == cur.AssignedLevel:
				atAssigned++
			}
			if canRaise(cur) {
				belowAssigned++
			}
			k := slackEntry{slack: slack(cur, 0), procID: int32(id)}
			all = append(all, k)
			if count[k.slack]++; count[k.slack] == 2 {
				if math.IsInf(float64(k.slack), 1) {
					infTies++
				} else {
					finiteTies++
				}
			}
		}

		for _, desc := range []bool{rnd.Intn(2) == 0, rnd.Intn(2) == 0, true, false} {
			cmp, keep := slackAsc, canRaise
			if desc {
				cmp, keep = slackDesc, canLower
			}
			slices.SortFunc(all, cmp)
			var want []*cluster.Slice
			for _, k := range all {
				if sl := view[k.procID]; keep(sl) {
					want = append(want, sl)
				}
			}
			got := s.sortRunningBySlack(0, desc)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, desc=%v: sorted %d slices %v, want %d %v",
					trial, desc, len(got), procsOf(got), len(want), procsOf(want))
			}
		}
	}
	if idle == 0 || atZero == 0 || atAssigned == 0 || belowAssigned == 0 || infTies == 0 || finiteTies == 0 {
		t.Fatalf("the generator missed a case: %d idle, %d at level 0, %d at and %d below their assigned level, %d +Inf and %d finite slack ties",
			idle, atZero, atAssigned, belowAssigned, infTies, finiteTies)
	}
}

// procsOf lists the processors of a slice list, for failure messages.
func procsOf(sls []*cluster.Slice) []int {
	ids := make([]int, len(sls))
	for i, sl := range sls {
		ids[i] = sl.ProcID
	}
	return ids
}
