package cluster

import (
	"reflect"
	"testing"

	"iscope/internal/workload"
)

// TestRestoreStateAllocsPerSlice bounds what a restore allocates per
// slice it rebuilds: the slices come from an arena in chunks, and the
// serial map and the queue windows are sized once by a counting pass,
// so the count stays nearly flat as the snapshot grows. It also checks that the restored datacenter captures
// back to the snapshot, and that a queue grown past its restored
// length leaves its neighbours' windows alone.
func TestRestoreStateAllocsPerSlice(t *testing.T) {
	const procs, perProc = 64, 8
	src := testDC(t, procs)
	top := src.PowerModel().Table.Top()
	var jobs []*workload.Job
	add := func(dc *Datacenter, id int) {
		j := job(len(jobs), 100, 0.5)
		s := NewSlice(j, id, top)
		s.Serial = len(jobs)
		jobs = append(jobs, j)
		dc.Enqueue(s, 0)
	}
	for id := 0; id < procs; id++ {
		for k := 0; k < perProc; k++ {
			add(src, id)
		}
	}
	ref := func(j *workload.Job) int { return j.ID }
	resolve := func(r int) (*workload.Job, error) { return jobs[r], nil }
	st := src.CaptureState(ref)

	dst := testDC(t, procs)
	var arena SliceArena
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := dst.RestoreState(st, &arena, resolve); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(len(jobs)); per > 0.05 {
		t.Errorf("RestoreState allocated %v times for %d slices: %.3f per slice, want at most 0.05", allocs, len(jobs), per)
	}

	if got := dst.CaptureState(ref); !reflect.DeepEqual(got, st) {
		t.Fatal("restored datacenter does not capture back to its snapshot")
	}
	add(dst, 0)
	got := dst.CaptureState(ref)
	if len(got.Procs[0].Queue) != perProc || !reflect.DeepEqual(got.Procs[1:], st.Procs[1:]) {
		t.Fatal("growing processor 0's restored queue disturbed the other processors' queues")
	}
}
