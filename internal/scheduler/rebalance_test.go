package scheduler

import (
	"math"
	"slices"
	"testing"

	"iscope/internal/cluster"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// heavyJobs builds an overloaded bursty trace that produces deadline
// violations under plain Effi scheduling.
func heavyJobs(t *testing.T, seed uint64) *workload.Trace {
	t.Helper()
	cfg := workload.DefaultSynthConfig(seed, 260)
	cfg.MaxProcs = 16
	cfg.Span = units.Days(1)
	tr, err := workload.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AssignDeadlines(workload.DefaultDeadlines(seed+1, 0.5)); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRebalanceReducesViolations(t *testing.T) {
	// Migration reshuffles subsequent placements, so a single run can go
	// either way by schedule chaos; the benefit must show in aggregate
	// across several workloads.
	fleet := testFleet(t, 48)
	var baseTotal, rebTotal, jobsBase, jobsReb int
	for seed := uint64(40); seed < 46; seed++ {
		jobs := heavyJobs(t, seed)
		base := run(t, fleet, "ScanEffi", RunConfig{Seed: seed, Jobs: jobs})
		reb := run(t, fleet, "ScanEffi", RunConfig{Seed: seed, Jobs: jobs, EnableRebalance: true})
		baseTotal += base.DeadlineViolations
		rebTotal += reb.DeadlineViolations
		jobsBase += base.JobsCompleted
		jobsReb += reb.JobsCompleted
	}
	if jobsReb != jobsBase {
		t.Fatalf("rebalancing lost jobs: %d vs %d", jobsReb, jobsBase)
	}
	if baseTotal == 0 {
		t.Skip("workloads produced no violations to rebalance away")
	}
	if rebTotal >= baseTotal {
		t.Fatalf("rebalancing did not reduce aggregate violations: %d -> %d", baseTotal, rebTotal)
	}
	t.Logf("aggregate violations %d -> %d with queue rebalancing", baseTotal, rebTotal)
}

func TestRebalanceWithWindAndMatching(t *testing.T) {
	// The matching loop stretches queues during wind deficits; the
	// rebalancer must claw back the threatened slices without breaking
	// the energy accounting.
	fleet := testFleet(t, 48)
	jobs := heavyJobs(t, 41)
	w := testWind(t, fleet, 61)
	base := run(t, fleet, "ScanFair", RunConfig{Seed: 26, Jobs: jobs, Wind: w})
	reb := run(t, fleet, "ScanFair", RunConfig{Seed: 26, Jobs: jobs, Wind: w, EnableRebalance: true})
	if reb.DeadlineViolations > base.DeadlineViolations {
		t.Fatalf("rebalancing increased violations under wind: %d -> %d",
			base.DeadlineViolations, reb.DeadlineViolations)
	}
	if reb.TotalEnergy <= 0 || reb.JobsCompleted != base.JobsCompleted {
		t.Fatalf("rebalanced run inconsistent: %+v", reb)
	}
}

func TestRebalanceDeterministic(t *testing.T) {
	fleet := testFleet(t, 32)
	jobs := heavyJobs(t, 42)
	cfg := RunConfig{Seed: 27, Jobs: jobs, EnableRebalance: true}
	a := run(t, fleet, "ScanEffi", cfg)
	b := run(t, fleet, "ScanEffi", cfg)
	if a.TotalEnergy != b.TotalEnergy || a.DeadlineViolations != b.DeadlineViolations ||
		a.Makespan != b.Makespan {
		t.Fatal("rebalanced runs diverged")
	}
}

// TestRebalanceDirtyMatchesFullWalk checks rebalance's O(dirty)
// candidate collection against a full QueueEstimates walk at every
// tick. On a 48-proc fleet under heavyJobs, for every scheme, with wind
// (the wind tick), without it (the aux tick), under dense faults
// (offline processors, whose queues estimate +Inf) and under the
// brownout ladder, each tick's sorted candidates must equal, slice for
// slice and bit for bit, those of a walk over every queue sorted under
// rebalCandCmp. Each run is also resumed from a mid-run snapshot, whose
// first tick recounts every processor, and checked the same way. A
// case whose runs found no candidate or migrated nothing fails, so the
// comparison cannot pass vacuously.
func TestRebalanceDirtyMatchesFullWalk(t *testing.T) {
	fleet := testFleet(t, 48)
	jobs := heavyJobs(t, 41)
	w := testWind(t, fleet, 61)
	cases := []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"wind", func(cfg *RunConfig) { cfg.Wind = w }},
		{"aux", func(cfg *RunConfig) {}},
		{"faults", func(cfg *RunConfig) {
			cfg.Wind = w
			cfg.Faults = denseFaults()
		}},
		{"brownout", func(cfg *RunConfig) {
			cfg.Wind = w
			cfg.Faults = denseFaults()
			cfg.Brownout = testgrid.AggressiveBrownout()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ticks, cands, migrations int64
			for _, sch := range Schemes() {
				cfg := RunConfig{Seed: 26, Jobs: jobs, EnableRebalance: true}
				c.mutate(&cfg)
				st, err := newStepper(fleet, sch, cfg, false)
				if err != nil {
					t.Fatal(err)
				}
				snap := checkRebalanceTicks(t, sch.Name, st, units.Hours(12))
				cnt := st.Counters()
				ticks += cnt.Ticks
				cands += cnt.RebalanceCandidates
				migrations += cnt.Migrations

				re := cfg
				re.Resume = snap
				st, err = newStepper(fleet, sch, re, false)
				if err != nil {
					t.Fatalf("%s: resume: %v", sch.Name, err)
				}
				checkRebalanceTicks(t, sch.Name+" resumed", st, 0)
			}
			if cands == 0 || migrations == 0 {
				t.Fatalf("%d ticks found %d candidates and %d migrations; the comparison is vacuous", ticks, cands, migrations)
			}
			t.Logf("%d ticks, %d candidates, %d migrations", ticks, cands, migrations)
		})
	}
}

// checkRebalanceTicks drives st to its finish, comparing every tick's
// rebalance candidates with a full walk's, and returns a snapshot taken
// once the next event lies past snapAt (nil when snapAt is 0).
func checkRebalanceTicks(t *testing.T, name string, st *Stepper, snapAt units.Seconds) []byte {
	t.Helper()
	s := st.s
	var calls int64
	s.onRebalCands = func(got []rebalCand) {
		calls++
		var want []rebalCand
		s.dc.QueueEstimates(func(sl *cluster.Slice, estStart units.Seconds) {
			if d := sl.Job.Deadline; d > 0 && estStart+s.dc.SliceDuration(sl, sl.AssignedLevel) > d {
				want = append(want, rebalCand{sl, estStart})
			}
		})
		slices.SortFunc(want, rebalCandCmp)
		same := len(got) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = got[i].sl == want[i].sl && math.Float64bits(float64(got[i].estStart)) == math.Float64bits(float64(want[i].estStart))
		}
		if !same {
			t.Fatalf("%s: at t=%v rebalance collected %d candidates, a full walk %d, or in another order", name, s.eng.Now(), len(got), len(want))
		}
	}
	var snap []byte
	if snapAt > 0 {
		batchTo(t, st, snapAt)
		if st.Finished() {
			t.Fatalf("%s: the run finished before t=%v", name, snapAt)
		}
		var err error
		if snap, err = st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	batchTo(t, st, units.Seconds(math.Inf(1)))
	if !st.Finished() {
		t.Fatalf("%s: stalled at t=%v", name, st.Now())
	}
	if got := st.Counters().Ticks; calls != got {
		t.Fatalf("%s: rebalance ran on %d of %d ticks", name, calls, got)
	}
	return snap
}
