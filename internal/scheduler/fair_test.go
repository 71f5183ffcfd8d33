package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"iscope/internal/units"
	"iscope/internal/workload"
)

// TestWorkersExcludedFromCfgHash pins the contract that the worker
// count is an execution detail, exactly like the naive switch: two
// configurations differing only in Workers must fingerprint
// identically, or checkpoints could not interchange across counts.
func TestWorkersExcludedFromCfgHash(t *testing.T) {
	jobs := testJobs(t, 9, 12, 0.3)
	a := RunConfig{Seed: 1, Jobs: jobs}
	b := a
	b.Workers = 8
	if hashConfig(&a) != hashConfig(&b) {
		t.Fatal("Workers changed the config hash; checkpoints would refuse to resume across worker counts")
	}
}

// TestFairOrderRandomized is the property test for the lazy fair
// order: after arbitrary event stepping and arbitrary dirty bursts —
// including oversized ones that force the full-pass fallback — the
// fully drained order must equal the ground-truth (utilization, id)
// sort element for element, on a 256-proc fleet and on a 5-proc one,
// the size of a small daemon tenant.
func TestFairOrderRandomized(t *testing.T) {
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	jobs := testJobs(t, 23, 120, 0.3)
	for _, procs := range []int{256, 5} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			checkFairOrderRandomized(t, testFleet(t, procs), sch, jobs)
		})
	}
}

func checkFairOrderRandomized(t *testing.T, fleet *Fleet, sch Scheme, jobs *workload.Trace) {
	w := testWind(t, fleet, 700)
	cfg := RunConfig{Seed: 5, Jobs: jobs, Wind: w, EnableRebalance: true}
	s, err := newSim(fleet, sch, cfg, false)
	if err != nil {
		t.Fatalf("newSim: %v", err)
	}
	rnd := rand.New(rand.NewSource(1001))
	var ref []utilKey
	var utilBuf []units.Seconds
	for round := 0; round < 60 && s.jobsLeft > 0; round++ {
		for i := 1 + rnd.Intn(40); i > 0 && s.jobsLeft > 0; i-- {
			if !s.eng.Step() {
				break
			}
		}
		now := s.eng.Now()
		// A same-instant preempt/enqueue round-trip leaves
		// utilization untouched but fair-dirties the processor;
		// the occasional oversized burst pushes past the repair
		// thresholds into the compacting full pass.
		burst := rnd.Intn(8)
		if rnd.Intn(10) == 0 {
			burst = len(s.dc.Procs) / 4
		}
		for k := 0; k < burst; k++ {
			id := rnd.Intn(len(s.dc.Procs))
			if sl := s.dc.Preempt(id, now); sl != nil {
				s.dc.Enqueue(sl, now)
			}
		}
		s.fairValid = false
		got := s.leastUsedOrder(now)
		utilBuf = s.dc.UtilTimesInto(utilBuf[:0], now)
		ref = ref[:0]
		for id, u := range utilBuf {
			ref = append(ref, utilKey{u: u, id: id})
		}
		slices.SortFunc(ref, utilAsc)
		if len(got) != len(ref) {
			t.Fatalf("round %d: order has %d entries, fleet has %d", round, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i].id {
				t.Fatalf("round %d: order[%d] = %d, want %d (u=%v)",
					round, i, got[i], ref[i].id, ref[i].u)
			}
		}
	}
}

// busySim builds a ScanFair sim on a 256-proc fleet and steps it
// until at least three quarters of its processors are busy.
func busySim(t *testing.T) *sim {
	t.Helper()
	fleet := testFleet(t, 256)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	cfg := RunConfig{Seed: 2, Jobs: testJobs(t, 31, 3000, 0.3), Wind: testWind(t, fleet, 900)}
	s, err := newSim(fleet, sch, cfg, false)
	if err != nil {
		t.Fatalf("newSim: %v", err)
	}
	for 4*s.dc.BusyCount() < 3*len(s.dc.Procs) {
		if !s.eng.Step() {
			t.Fatal("event queue drained before three quarters of the fleet went busy")
		}
	}
	return s
}

// checkFairOrder drains a fresh fair pass at now and compares it with
// the ground-truth (utilization, id) sort.
func checkFairOrder(t *testing.T, s *sim, now units.Seconds, pass int) {
	t.Helper()
	s.fairValid = false
	got := s.leastUsedOrder(now)
	ref := make([]utilKey, 0, len(s.dc.Procs))
	for id, u := range s.dc.UtilTimes(now) {
		ref = append(ref, utilKey{u: u, id: id})
	}
	slices.SortFunc(ref, utilAsc)
	if len(got) != len(ref) {
		t.Fatalf("pass %d: order has %d entries, fleet has %d", pass, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i].id {
			t.Fatalf("pass %d: order[%d] = %d, want %d (u=%v)", pass, i, got[i], ref[i].id, ref[i].u)
		}
	}
}

// TestFairOrderNearTies is the property test for the lazily
// keyed busy list: busy processors are ordered by their offset
// utilTime − busySince and keyed as utilTime + (now − busySince) only
// when emission reaches them, so rounding may order two keys against
// their offsets. Here every busy processor's (UtilTime, BusySince)
// pair lies within a few ulps of the others, many offsets tie exactly,
// and the test asserts that the input really inverts offset order at
// some tested instants. Several repair passes over drifting instants
// must drain to the ground-truth (u, id) sort.
func TestFairOrderNearTies(t *testing.T) {
	s := busySim(t)
	rnd := rand.New(rand.NewSource(77))
	const busySince, utilTime = units.Seconds(86400.1), units.Seconds(80000.3)
	ulps := func(x units.Seconds, n int) units.Seconds {
		for ; n > 0; n-- {
			x = units.Seconds(math.Nextafter(float64(x), math.Inf(1)))
		}
		for ; n < 0; n++ {
			x = units.Seconds(math.Nextafter(float64(x), math.Inf(-1)))
		}
		return x
	}
	st := s.dc.CaptureState(func(j *workload.Job) int { return s.stateIdx[j] })
	for i := range st.Procs {
		ps := &st.Procs[i]
		if len(ps.Current) == 0 {
			// Idle keys land among the busy ones at the first
			// instant below.
			ps.UtilTime = ulps(utilTime+3.25, rnd.Intn(33)-16)
			continue
		}
		ps.BusySince = ulps(busySince, rnd.Intn(9)-4)
		ps.UtilTime = ulps(utilTime, rnd.Intn(33)-16)
		ps.Current[0].LastUpdate = ps.BusySince
	}
	if _, err := s.dc.RestoreState(st, &s.arena, func(ref int) (*workload.Job, error) { return s.states[ref].job, nil }); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	// Past now = 2·busySince, now − busySince rounds too, and the
	// inversions grow deeper than one ulp of now: a window
	// margin of 2⁻⁵³·now fails there.
	var ties, inversions int
	for pass, dt := range []units.Seconds{3.25, 3.25, 17.125, 1000.3, 40000.7, 86000.1, 250000.3, 250000.3, 1000000.7} {
		now := busySince + dt
		if pass > 0 {
			// Two same-instant preempt/enqueue round-trips
			// dirty their processors, so every pass after the
			// restore's full one is a repair pass.
			for k := 0; k < 2; k++ {
				if sl := s.dc.Preempt(rnd.Intn(len(s.dc.Procs)), now); sl != nil {
					s.dc.Enqueue(sl, now)
				}
			}
		}
		var busy []fairEntry
		for id := range s.dc.Procs {
			if s.dc.IsBusy(id) {
				busy = append(busy, fairEntry{key: s.dc.UtilOffset(id), id: int32(id)})
			}
		}
		slices.SortFunc(busy, fairAsc)
		for i := 1; i < len(busy); i++ {
			a, b := busy[i-1], busy[i]
			if a.key == b.key {
				ties++
			}
			ka := utilKey{u: s.dc.UtilAt(int(a.id), now), id: int(a.id)}
			kb := utilKey{u: s.dc.UtilAt(int(b.id), now), id: int(b.id)}
			if utilAsc(ka, kb) > 0 {
				inversions++
			}
		}
		checkFairOrder(t, s, now, pass)
	}
	if ties == 0 || inversions == 0 {
		t.Fatalf("input has %d exact offset ties and %d key inversions; both must be positive", ties, inversions)
	}
}

// TestFairPassKeysConsumedPrefix guards the fair pass's cost: on a
// warm sim with most processors busy, a repair pass that emits k busy
// entries computes at most k busy keys plus its window's overhang
// (keys pulled but not yet emitted), however many processors are busy.
// A pass that re-keyed the busy list would compute one key per busy
// processor, so a placement taking a short prefix must also key only a
// small fraction of them.
func TestFairPassKeysConsumedPrefix(t *testing.T) {
	s := busySim(t)
	now := s.eng.Now()
	busy := s.dc.BusyCount()
	checkFairOrder(t, s, now, 0) // first use: the full rebuild
	for pass, take := range []int{0, 1, 3, 10, 40, len(s.dc.Procs)} {
		if sl := s.dc.Preempt(pass*37%len(s.dc.Procs), now); sl != nil {
			s.dc.Enqueue(sl, now)
		}
		s.fairValid = false
		it := s.candidateIter(now, true)
		for i := 0; i < take; i++ {
			if _, ok := it.next(); !ok {
				break
			}
		}
		keyed, overhang, emitted := s.fair.keyed, len(s.fair.win)-s.fair.wi, 0
		for _, id := range s.fairOrder {
			if s.dc.IsBusy(id) {
				emitted++
			}
		}
		if keyed > emitted+overhang {
			t.Errorf("pass %d (take %d): %d busy keys computed, want at most %d emitted + %d overhang",
				pass, take, keyed, emitted, overhang)
		}
		if take <= 3 && 4*keyed >= busy {
			t.Errorf("pass %d (take %d): %d busy keys computed for %d busy processors", pass, take, keyed, busy)
		}
	}
}

// TestWorkersValidation covers the new RunConfig field's bounds.
func TestWorkersValidation(t *testing.T) {
	jobs := testJobs(t, 9, 4, 0)
	cfg := RunConfig{Seed: 1, Jobs: jobs, Workers: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Workers accepted")
	}
	cfg.Workers = 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Workers=8 rejected: %v", err)
	}
}
