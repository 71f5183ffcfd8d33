package scheduler

import (
	"math"
	"testing"

	"iscope/internal/units"
)

// TestCountersPinnedAndDriverIndependent pins a run's work counts on
// a fixed input: a 48-proc fleet under heavyJobs with wind, ScanEffi
// and rebalance, where every count is nonzero. Driving the run one
// event at a time and one instant at a time must give the same counts,
// since they count work the run does, not calls the driver makes. A
// stepper resumed from a mid-run snapshot counts from zero, and
// finishes with the counts of its own part of the run alone.
func TestCountersPinnedAndDriverIndependent(t *testing.T) {
	fleet := testFleet(t, 48)
	sch, _ := SchemeByName("ScanEffi")
	cfg := RunConfig{Seed: 26, Jobs: heavyJobs(t, 41), Wind: testWind(t, fleet, 61), EnableRebalance: true}

	end := units.Seconds(math.Inf(1))
	counts := func(batch bool) Counters {
		t.Helper()
		st, err := newStepper(fleet, sch, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if batch {
			batchTo(t, st, end)
		} else {
			drain(t, st)
		}
		if !st.Finished() {
			t.Fatalf("stalled at t=%v", st.Now())
		}
		return st.Counters()
	}
	step, batch := counts(false), counts(true)
	if step != batch {
		t.Fatalf("step driving counted %+v, batch driving %+v", step, batch)
	}
	want := Counters{
		Ticks:               340,
		ProcsRecounted:      2046,
		QueuedWalked:        5707,
		RebalanceCandidates: 1337,
		Migrations:          23,
		MatchCollected:      687,
		MatchRetimed:        106,
	}
	if batch != want {
		t.Fatalf("counters = %+v, want %+v", batch, want)
	}

	// A resumed stepper counts from its resume.
	st, err := newStepper(fleet, sch, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdvanceTo(units.Hours(12)); err != nil {
		t.Fatal(err)
	}
	head := st.Counters()
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re := cfg
	re.Resume = snap
	res, err := newStepper(fleet, sch, re, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters(); got != (Counters{}) {
		t.Fatalf("a resumed stepper starts at %+v, want zero", got)
	}
	batchTo(t, res, end)
	tail := res.Counters()
	if head.Ticks == 0 || tail.Ticks == 0 || head.Ticks+tail.Ticks != want.Ticks {
		t.Fatalf("ticks before the snapshot %d and after the resume %d, want them to sum to %d", head.Ticks, tail.Ticks, want.Ticks)
	}
}
