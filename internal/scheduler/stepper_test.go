package scheduler

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"iscope/internal/units"
	"iscope/internal/workload"
)

// TestStepperEmptyStartStreaming: a stepper may start with no jobs at
// all and receive the whole trace through InjectJob; the result must
// match a batch Run over the same trace.
func TestStepperEmptyStartStreaming(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 70, 20, 0.3)
	w := testWind(t, fleet, 71)
	cfg := RunConfig{Seed: 3, Jobs: jobs, Wind: w}
	want, err := Run(fleet, Schemes()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}

	stream := cfg
	stream.Jobs = nil
	st, err := NewStepper(fleet, Schemes()[0], stream)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sealed() || st.Finished() {
		t.Fatal("fresh open stepper reports sealed/finished")
	}
	for i, j := range jobs.Jobs {
		if _, err := st.InjectJob(j.Submit, j); err != nil {
			t.Fatalf("InjectJob(%d): %v", i, err)
		}
	}
	if got := st.Status().Jobs; got != len(jobs.Jobs) {
		t.Fatalf("status reports %d jobs, injected %d", got, len(jobs.Jobs))
	}
	st.Seal()
	if !st.Sealed() {
		t.Fatal("Seal did not close the stream")
	}
	drain(t, st)
	got, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("streamed run diverged from batch:\nbatch  %+v\nstream %+v", want, got)
	}
	// Result is latched: a second call returns the same pointer, and
	// stepping after it is refused.
	again, err := st.Result()
	if err != nil || again != got {
		t.Fatalf("second Result call: (%p, %v), want latched %p", again, err, got)
	}
	if _, err := st.ProcessNextEvent(); err == nil {
		t.Fatal("ProcessNextEvent after Result succeeded")
	}
}

// TestStepperInjectJobRejections: late, sealed, and malformed
// injections are refused without perturbing the run.
func TestStepperInjectJobRejections(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 72, 20, 0.3)
	st, err := NewStepper(fleet, Schemes()[0], RunConfig{Seed: 1, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdvanceTo(jobs.Jobs[len(jobs.Jobs)/2].Submit); err != nil {
		t.Fatal(err)
	}
	now := st.Now()
	if now <= 0 {
		t.Fatalf("clock did not advance: %v", now)
	}
	ok := workload.Job{ID: 999, Procs: 1, Runtime: units.Minutes(5), Boundness: 0.5}
	before := st.Status().Jobs

	if _, err := st.InjectJob(now-1, ok); err == nil || !strings.Contains(err.Error(), "before the clock") {
		t.Fatalf("past-time injection: %v", err)
	}
	bad := []workload.Job{
		{ID: 1, Procs: 0, Runtime: units.Minutes(5), Boundness: 0.5},
		{ID: 2, Procs: 1, Runtime: 0, Boundness: 0.5},
		{ID: 3, Procs: 1, Runtime: units.Minutes(5), Boundness: 1.5},
		{ID: 4, Procs: 1, Runtime: units.Seconds(math.NaN()), Boundness: 0.5},
		{ID: 5, Procs: 1, Runtime: units.Minutes(5), Boundness: 0.5, Deadline: now + 1},
	}
	for _, j := range bad {
		if _, err := st.InjectJob(now+units.Hours(1), j); err == nil {
			t.Fatalf("malformed job %d accepted", j.ID)
		}
	}
	if got := st.Status().Jobs; got != before {
		t.Fatalf("rejected injections changed the job set: %d -> %d", before, got)
	}

	st.Seal()
	if _, err := st.InjectJob(now+units.Hours(1), ok); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("sealed-stream injection: %v", err)
	}
}

// TestStepperPrematureResult: Result is an error while the stream is
// open or jobs are unfinished, and neither error perturbs the run.
func TestStepperPrematureResult(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 73, 20, 0.3)
	st, err := NewStepper(fleet, Schemes()[1], RunConfig{Seed: 2, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Result(); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Fatalf("Result on open stream: %v", err)
	}
	st.Seal()
	if _, err := st.Result(); err == nil || !strings.Contains(err.Error(), "unfinished") {
		t.Fatalf("Result with jobs unfinished: %v", err)
	}
	drain(t, st)
	if _, err := st.Result(); err != nil {
		t.Fatalf("Result after drain: %v", err)
	}
}

// TestStepperAdvanceTo: AdvanceTo fires exactly the events at or
// before t, leaves the clock on the last fired event, and stops dead
// once the run finishes.
func TestStepperAdvanceTo(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 74, 20, 0.3)
	st, err := NewStepper(fleet, Schemes()[0], RunConfig{Seed: 4, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	st.Seal()

	cut := jobs.Jobs[len(jobs.Jobs)/2].Submit
	n, err := st.AdvanceTo(cut)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("AdvanceTo fired no events")
	}
	if st.Now() > cut {
		t.Fatalf("clock %v overshot %v", st.Now(), cut)
	}
	if at, ok := st.PeekNextEventTime(); !ok || at <= cut {
		t.Fatalf("next event at %v (ok=%v), want > %v", at, ok, cut)
	}
	if _, err := st.AdvanceTo(units.Days(30)); err != nil {
		t.Fatal(err)
	}
	if !st.Finished() {
		t.Fatal("run not finished after advancing past the horizon")
	}
	// The batch loop stops the instant the last job completes; stale
	// events may stay queued but must never fire through AdvanceTo.
	if n, err := st.AdvanceTo(units.Days(60)); err != nil || n != 0 {
		t.Fatalf("AdvanceTo after finish fired %d events (err %v)", n, err)
	}
}

// TestStepperStatus: the live view tracks the run without perturbing
// it.
func TestStepperStatus(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 75, 20, 0.3)
	w := testWind(t, fleet, 76)
	st, err := NewStepper(fleet, Schemes()[0], RunConfig{Seed: 5, Jobs: jobs, Wind: w})
	if err != nil {
		t.Fatal(err)
	}
	st.Seal()

	s0 := st.Status()
	if s0.Jobs != len(jobs.Jobs) || s0.JobsLeft != len(jobs.Jobs) || !s0.Sealed || s0.Finished {
		t.Fatalf("initial status: %+v", s0)
	}
	if !st.HasPendingEvents() || s0.PendingEvents == 0 {
		t.Fatal("no pending events on a seeded run")
	}
	if _, err := st.AdvanceTo(units.Hours(6)); err != nil {
		t.Fatal(err)
	}
	mid := st.Status()
	if mid.Now <= 0 || mid.Now > units.Hours(6) {
		t.Fatalf("mid-run clock: %v", mid.Now)
	}
	drain(t, st)
	end := st.Status()
	if !end.Finished || end.JobsLeft != 0 {
		t.Fatalf("final status: %+v", end)
	}
	if end.UtilityEnergy < 0 || end.WindEnergy < 0 {
		t.Fatalf("negative energy integrals: %+v", end)
	}
}

// TestStepperSnapshotResume: a Snapshot taken mid-stream restores into
// a fresh stepper over the same trace, which the snapshot leaves to the
// configuration, and finishes bit-identical to the uninterrupted run; a
// stepper without the trace is refused.
func TestStepperSnapshotResume(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 77, 20, 0.3)
	w := testWind(t, fleet, 78)
	cfg := RunConfig{Seed: 6, Jobs: jobs, Wind: w}
	want, err := Run(fleet, Schemes()[2], cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewStepper(fleet, Schemes()[2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.AdvanceTo(units.Hours(2)); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	resume := cfg
	resume.Jobs = nil
	resume.Resume = snap
	if _, err := NewStepper(fleet, Schemes()[2], resume); err == nil {
		t.Fatal("a snapshot over a trace resumed without it")
	}
	resume.Jobs = jobs
	b, err := NewStepper(fleet, Schemes()[2], resume)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer b.Close()
	if got := b.Status().Jobs; got != len(jobs.Jobs) {
		t.Fatalf("resumed stepper knows %d jobs, snapshot held %d", got, len(jobs.Jobs))
	}
	if b.Now() != a.Now() {
		t.Fatalf("resumed clock %v != snapshot clock %v", b.Now(), a.Now())
	}
	b.Seal()
	drain(t, b)
	got, err := b.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed run diverged:\nbatch   %+v\nresumed %+v", want, got)
	}
}

// TestStepperBatchDrivenOpenStream: on an open stream, a job finishing
// does not end the run — more jobs may still arrive — so a
// ProcessEventBatch loop must not drop the rest of that timestamp's
// events. The scenario lands the only job's completion on a wind tick:
// a full-speed placement at t=0 whose runtime is exactly one wind
// interval. Losing that tick would also lose every later one, since a
// tick re-arms itself only when it fires. Batch- and step-driven
// steppers must agree on the snapshot at the next arrival and on the
// Result once that job is in and the stream sealed.
func TestStepperBatchDrivenOpenStream(t *testing.T) {
	fleet := testFleet(t, 8)
	w := testWind(t, fleet, 79)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	if w.At(0) <= 0 {
		t.Fatal("test wind is calm at t=0; ScanFair would not place at the top level")
	}
	// A tiny threshold makes any wind abundant, so ScanFair runs the
	// first job at full speed, and with matching off nothing retimes it:
	// it finishes exactly on the tick.
	cfg := RunConfig{Seed: 8, Wind: w, FairTheta: 1e-9, DisableMatching: true}
	first := workload.Job{ID: 1, Procs: 1, Runtime: w.Interval, Boundness: 1}
	second := workload.Job{ID: 2, Procs: 2, Runtime: units.Minutes(30), Boundness: 0.5}

	type outcome struct {
		res  *Result
		snap []byte
	}
	drive := func(batch bool) outcome {
		t.Helper()
		st, err := NewStepper(fleet, sch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		step := func() int {
			if batch {
				n, err := st.ProcessEventBatch()
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			fired, err := st.ProcessNextEvent()
			if err != nil {
				t.Fatal(err)
			}
			if fired {
				return 1
			}
			return 0
		}
		if _, err := st.InjectJob(0, first); err != nil {
			t.Fatal(err)
		}
		// Run the open stream to just before the second arrival.
		arrive := 3 * w.Interval
		for {
			at, ok := st.PeekNextEventTime()
			if !ok || at >= arrive || step() == 0 {
				break
			}
		}
		if got := st.Status().JobsLeft; got != 0 {
			t.Fatalf("batch=%v: %d jobs left before the second arrival, want the first done", batch, got)
		}
		// The snapshot holds the event queue, so a lost tick shows here.
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.InjectJob(arrive, second); err != nil {
			t.Fatal(err)
		}
		st.Seal()
		for !st.Finished() && step() > 0 {
		}
		res, err := st.Result()
		if err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		return outcome{res, snap}
	}

	want, got := drive(false), drive(true)
	if !bytes.Equal(want.snap, got.snap) {
		t.Fatal("batch-driven open stream reached the second arrival in a different state than the step-driven one")
	}
	if !reflect.DeepEqual(want.res, got.res) {
		t.Fatalf("batch-driven open stream diverged:\nstep  %+v\nbatch %+v", want.res, got.res)
	}
}
