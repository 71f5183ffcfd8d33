package scheduler

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/checkpoint"
	"iscope/internal/cluster"
	"iscope/internal/faults"
	"iscope/internal/invariants"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// snapCollector is a checkpoint sink that keeps every snapshot.
type snapCollector struct{ snaps [][]byte }

func (c *snapCollector) sink(data []byte) error {
	c.snaps = append(c.snaps, append([]byte(nil), data...))
	return nil
}

// TestResumeDeterminism is the tentpole property test: for every
// scheme, multiple seeds, with and without fault injection, (a) a run
// with periodic checkpointing produces results bit-identical to an
// unchecked run (snapshots are transparent), and (b) a run resumed
// from a mid-simulation snapshot finishes with results bit-identical
// to the uninterrupted run.
func TestResumeDeterminism(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	for _, withFaults := range []bool{false, true} {
		for seed := uint64(0); seed < 3; seed++ {
			w := testWind(t, fleet, 300+seed)
			for _, sch := range Schemes() {
				name := sch.Name
				if withFaults {
					name += "+faults"
				}
				base := RunConfig{Seed: seed, Jobs: jobs, Wind: w}
				if withFaults {
					base.Faults = denseFaults()
				}
				baseline, err := Run(fleet, sch, base)
				if err != nil {
					t.Fatalf("seed %d %s: baseline: %v", seed, name, err)
				}

				col := &snapCollector{}
				ck := base
				ck.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: col.sink}
				checked, err := Run(fleet, sch, ck)
				if err != nil {
					t.Fatalf("seed %d %s: checkpointed run: %v", seed, name, err)
				}
				if !reflect.DeepEqual(baseline, checked) {
					t.Fatalf("seed %d %s: checkpointing perturbed the run:\nbaseline %+v\nchecked  %+v", seed, name, baseline, checked)
				}
				if len(col.snaps) == 0 {
					t.Fatalf("seed %d %s: no snapshots emitted", seed, name)
				}

				re := base
				re.Resume = col.snaps[len(col.snaps)/2]
				resumed, err := Run(fleet, sch, re)
				if err != nil {
					t.Fatalf("seed %d %s: resumed run: %v", seed, name, err)
				}
				if !reflect.DeepEqual(baseline, resumed) {
					t.Fatalf("seed %d %s: resume diverged:\nbaseline %+v\nresumed  %+v", seed, name, baseline, resumed)
				}
			}
		}
	}
}

// TestResumeDeterminismKitchenSink exercises every optional subsystem
// at once — battery, sampler trace, online profiling, rebalancing,
// random COPs, faults, the brownout ladder, and a fail-fast invariant
// monitor — and still demands bit-identical resume, under the
// efficiency order and under ScanFair's least-used order. The
// monitor's check/violation counters land in the Result, so DeepEqual
// also proves the restored monitor replays exactly.
func TestResumeDeterminismKitchenSink(t *testing.T) {
	for _, name := range []string{"ScanEffi", "ScanFair"} {
		t.Run(name, func(t *testing.T) {
			sch, _ := SchemeByName(name)
			checkKitchenSinkResume(t, sch)
		})
	}
}

func checkKitchenSinkResume(t *testing.T, sch Scheme) {
	fleet := testFleet(t, 24)
	jobs := testJobs(t, 77, 60, 0.4)
	w := testWind(t, fleet, 400)
	batt := battery.DefaultSpec(units.FromKWh(30))
	base := RunConfig{
		Seed:            5,
		Jobs:            jobs,
		Wind:            w,
		Battery:         &batt,
		SampleInterval:  units.Minutes(30),
		Online:          &OnlineProfiling{},
		EnableRebalance: true,
		RandomCOP:       true,
		Faults:          denseFaults(),
		// Low thresholds and short dwells so the ladder actually climbs
		// (and unwinds) inside the test horizon.
		Brownout: &brownout.Config{
			Thresholds: [brownout.NumStages - 1]float64{0.05, 0.15, 0.3, 0.5},
			DwellUp:    units.Minutes(5),
			DwellDown:  units.Minutes(10),
		},
		Invariants: &invariants.Config{Action: invariants.FailFast},
	}
	baseline, err := Run(fleet, sch, base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if baseline.Brownout.MaxStage == 0 {
		t.Fatalf("brownout ladder never engaged, so resume would not cover it: %+v", baseline.Brownout)
	}
	if baseline.Invariants.Checks == 0 {
		t.Fatal("invariant monitor ran no checks")
	}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: col.sink}
	checked, err := Run(fleet, sch, ck)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if !reflect.DeepEqual(baseline, checked) {
		t.Fatal("checkpointing perturbed the kitchen-sink run")
	}
	if len(col.snaps) < 2 {
		t.Fatalf("want several snapshots, got %d", len(col.snaps))
	}
	for i, snap := range col.snaps {
		reCol := &snapCollector{}
		re := ck
		re.Resume = snap
		re.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: reCol.sink}
		resumed, err := Run(fleet, sch, re)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(baseline, resumed) {
			t.Fatalf("resume from snapshot %d diverged", i)
		}
		// Every later periodic checkpoint is the uninterrupted run's at
		// the same instant, byte for byte.
		if !slices.EqualFunc(reCol.snaps, col.snaps[i+1:], bytes.Equal) {
			t.Fatalf("resume from snapshot %d: its %d periodic checkpoints differ from the uninterrupted run's %d", i, len(reCol.snaps), len(col.snaps)-i-1)
		}
	}
}

// TestResumeDeterminismUtilityOnly covers the aux-tick path: no wind
// trace, rebalancing enabled.
func TestResumeDeterminismUtilityOnly(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 11, 40, 0.5)
	sch, _ := SchemeByName("BinEffi")
	base := RunConfig{Seed: 2, Jobs: jobs, EnableRebalance: true}
	baseline, err := Run(fleet, sch, base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(4), Sink: col.sink}
	if _, err := Run(fleet, sch, ck); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(col.snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	re := base
	re.Resume = col.snaps[len(col.snaps)-1]
	resumed, err := Run(fleet, sch, re)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Fatal("utility-only resume diverged")
	}
}

// TestCancelWritesFinalCheckpoint verifies the cooperative-cancel
// contract: a canceled run returns the context error, flushes a final
// snapshot, and that snapshot resumes to results bit-identical to an
// uninterrupted run.
func TestCancelWritesFinalCheckpoint(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 303)
	sch, _ := SchemeByName("ScanFair")
	base := RunConfig{Seed: 9, Jobs: jobs, Wind: w, Faults: denseFaults()}
	baseline, err := Run(fleet, sch, base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &snapCollector{}
	periodic := 0
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: func(d []byte) error {
		periodic++
		if periodic == 2 {
			cancel() // interrupt mid-simulation
		}
		return col.sink(d)
	}}
	_, err = RunCtx(ctx, fleet, sch, ck)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	// Two periodic snapshots plus the final flush on cancellation.
	if len(col.snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3 (2 periodic + 1 final)", len(col.snaps))
	}

	re := base
	re.Resume = col.snaps[len(col.snaps)-1]
	resumed, err := Run(fleet, sch, re)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Fatal("resume after cancel diverged from the uninterrupted run")
	}
}

// TestCancelWithoutCheckpointConfig: cancellation must work (and
// return promptly with the context error) even when no checkpoint sink
// is configured.
func TestCancelWithoutCheckpointConfig(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinRan")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first event
	_, err := RunCtx(ctx, fleet, sch, RunConfig{Seed: 1, Jobs: jobs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 305)
	sch, _ := SchemeByName("BinEffi")
	base := RunConfig{Seed: 3, Jobs: jobs, Wind: w, MatchInterval: units.Minutes(10)}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(4), Sink: col.sink}
	if _, err := Run(fleet, sch, ck); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(col.snaps) == 0 {
		t.Fatal("no snapshots")
	}
	snap := col.snaps[0]

	// Different seed.
	re := base
	re.Seed = 4
	re.Resume = snap
	if _, err := Run(fleet, sch, re); err == nil {
		t.Error("resume with a different seed accepted")
	}
	// Different scheme.
	other, _ := SchemeByName("BinRan")
	re = base
	re.Resume = snap
	if _, err := Run(fleet, other, re); err == nil {
		t.Error("resume under a different scheme accepted")
	}
	// Different config knob (hash-guarded).
	re = base
	re.EnableRebalance = true
	re.Resume = snap
	if _, err := Run(fleet, sch, re); err == nil {
		t.Error("resume with a different config accepted")
	}

	// Inputs the snapshot leaves to the configuration, each moved by
	// less than a display format shows. Every change is valid, so a
	// refusal can only come from the config hash.
	trace := func(edit func(jobs []workload.Job)) *workload.Trace {
		tr := &workload.Trace{Jobs: append([]workload.Job(nil), jobs.Jobs...)}
		edit(tr.Jobs)
		return tr
	}
	last := len(jobs.Jobs) - 1
	moved := *w
	moved.Samples = append([]units.Watts(nil), w.Samples...)
	moved.Samples[len(moved.Samples)/2]++
	for name, edit := range map[string]func(*RunConfig){
		"a trace job's submit one ulp later": func(c *RunConfig) {
			c.Jobs = trace(func(js []workload.Job) {
				js[last].Submit = units.Seconds(math.Nextafter(float64(js[last].Submit), math.Inf(1)))
			})
		},
		"a trace job's urgency": func(c *RunConfig) {
			c.Jobs = trace(func(js []workload.Job) { js[last/2].Urgency = 1 - js[last/2].Urgency })
		},
		"a wind sample 1 W higher": func(c *RunConfig) { c.Wind = &moved },
		"a 601 s match interval":   func(c *RunConfig) { c.MatchInterval = 601 },
	} {
		re := base
		edit(&re)
		if err := re.Validate(); err != nil {
			t.Fatalf("%s: the edited config is invalid: %v", name, err)
		}
		re.Resume = snap
		if _, err := Run(fleet, sch, re); err == nil {
			t.Errorf("resume with %s accepted", name)
		}
	}
}

// TestCheckpointOmitsTraceInputs: a snapshot leaves the configured
// trace to the configuration, so trace jobs that arrive after the
// snapshot instant cost it less than 8 bytes each, their empty
// progress entry, where carrying each job's definition and pending
// arrival, as format 4 did, costs about 70.
func TestCheckpointOmitsTraceInputs(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 306)
	sch, _ := SchemeByName("BinEffi")
	const extra = 200
	longer := &workload.Trace{Jobs: append([]workload.Job(nil), jobs.Jobs...)}
	last := jobs.Jobs[len(jobs.Jobs)-1]
	for i := 0; i < extra; i++ {
		j := last
		j.ID += 1 + i
		shift := units.Hours(1) + units.Seconds(i)
		j.Submit += shift
		if j.Deadline != 0 {
			j.Deadline += shift
		}
		longer.Jobs = append(longer.Jobs, j)
	}
	snapshot := func(tr *workload.Trace) []byte {
		t.Helper()
		st, err := NewStepper(fleet, sch, RunConfig{Seed: 3, Jobs: tr, Wind: w})
		if err != nil {
			t.Fatal(err)
		}
		st.Seal()
		batchTo(t, st, last.Submit/2)
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	short, long := snapshot(jobs), snapshot(longer)
	if grown := len(long) - len(short); grown >= 8*extra {
		t.Fatalf("%d jobs arriving after the snapshot grew it by %d bytes (%.1f per job), want under 8 per job", extra, grown, float64(grown)/extra)
	}
}

func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinEffi")
	base := RunConfig{Seed: 3, Jobs: jobs}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(4), Sink: col.sink}
	if _, err := Run(fleet, sch, ck); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(col.snaps) == 0 {
		t.Fatal("no snapshots")
	}
	snap := col.snaps[0]

	truncated := snap[:len(snap)/2]
	re := base
	re.Resume = truncated
	if _, err := Run(fleet, sch, re); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("truncated snapshot: got %v, want ErrTruncated", err)
	}

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40
	re.Resume = flipped
	if _, err := Run(fleet, sch, re); !errors.Is(err, checkpoint.ErrChecksum) {
		t.Errorf("corrupt snapshot: got %v, want ErrChecksum", err)
	}

	// The other-version envelopes, a version-4 file from an older build
	// and a future one, are kept well-formed (checksum recomputed), so
	// rejection provably happens on the version field, not as a
	// checksum side effect.
	for _, version := range []uint16{4, checkpoint.Version + 1} {
		other := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint16(other[4:6], version)
		body := other[:len(other)-4]
		binary.LittleEndian.PutUint32(other[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		re.Resume = other
		if _, err := NewStepper(fleet, sch, re); !errors.Is(err, checkpoint.ErrVersion) {
			t.Errorf("version-%d snapshot: got %v, want ErrVersion", version, err)
		}
	}
}

// TestResumeRejectsMalformedEvents feeds NewStepper well-formed
// snapshots, re-encoded so the checksum holds, that differ from a real
// one in a single pending event or job count, and requires each to be
// refused with the named reason instead of resuming into a wrong run or
// a panic.
// "rich" is the golden batch configuration at digestSnapInstant: its
// queue holds a re-profile with its false-pass payload, and its fault
// plan has battery-fade events that no battery observes. "bare" runs
// the same trace with online profiling but no wind, faults, telemetry
// or sampler. "stream" is the golden streaming run, whose jobs are all
// injected: some have arrived and some arrivals are still pending.
func TestResumeRejectsMalformedEvents(t *testing.T) {
	fleet := testFleet(t, 32)
	jobs := testJobs(t, 51, 120, 0.3)
	w := testWind(t, fleet, 52)
	schemes := map[string]string{"rich": "ScanFair", "bare": "ScanFair", "stream": "ScanEffi"}
	ckpt := &CheckpointConfig{Every: units.Hours(3), Sink: func([]byte) error { return nil }}
	configs := map[string]RunConfig{
		"rich": {Seed: 3, Jobs: jobs, Wind: w, EnableRebalance: true,
			Faults: testgrid.DenseFaults(), Telemetry: testgrid.HostileTelemetry(7), Checkpoint: ckpt},
		"bare":   {Seed: 3, Jobs: jobs, Online: &OnlineProfiling{}, Checkpoint: ckpt},
		"stream": {Seed: 4, Wind: w, Telemetry: testgrid.HostileTelemetry(8)},
	}
	stepper := func(name string, cfg RunConfig) (*Stepper, error) {
		sch, _ := SchemeByName(schemes[name])
		return NewStepper(fleet, sch, cfg)
	}
	snaps := map[string]runSnapshot{}
	fade, unscanned := -1, -1
	for name, cfg := range configs {
		st, err := stepper(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Jobs == nil {
			feed(t, st, jobs.Jobs, digestSnapInstant)
		} else {
			st.Seal()
		}
		batchTo(t, st, digestSnapInstant)
		data, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var snap runSnapshot
		if err := checkpoint.Decode(data, &snap); err != nil {
			t.Fatal(err)
		}
		snaps[name] = snap
		if f := st.s.faults; f != nil {
			fade = slices.IndexFunc(f.plan.Events, func(ev faults.Event) bool { return ev.Kind == faults.BatteryFade })
		}
		if st.s.onlineActive {
			unscanned = slices.IndexFunc(st.s.scanState, func(state byte) bool { return state != 1 })
		}
	}
	reprofile := slices.IndexFunc(snaps["rich"].Events, func(ev snapEvent) bool { return ev.Tag.Kind == tagReprofiled })
	if reprofile < 0 || fade < 0 || unscanned < 0 {
		t.Fatalf("no pending re-profile (%d), battery-fade plan event (%d) or processor outside a scan (%d)", reprofile, fade, unscanned)
	}
	pending := snaps["rich"].Events[reprofile].Tag
	arrival := slices.IndexFunc(snaps["stream"].Events, func(ev snapEvent) bool { return ev.Tag.Kind == tagArrival })
	if first := snaps["stream"].Jobs[0]; arrival < 0 || first.Remaining == 0 && first.Finish == 0 {
		t.Fatalf("the stream snapshot holds no pending arrival (%d) or injected job 0 has not arrived (%+v)", arrival, first)
	}

	// resume re-encodes snapshot name after edit and resumes from it.
	resume := func(name string, edit func(*runSnapshot)) error {
		snap := snaps[name]
		snap.Events = slices.Clone(snap.Events)
		edit(&snap)
		data, err := checkpoint.Encode(&snap)
		if err != nil {
			t.Fatal(err)
		}
		cfg := configs[name]
		cfg.Resume = data
		_, err = stepper(name, cfg)
		return err
	}
	// add appends one event at the snapshot's instant under a fresh
	// sequence number.
	add := func(tag eventTag) func(*runSnapshot) {
		return func(snap *runSnapshot) {
			snap.Seq++
			snap.Events = append(snap.Events, snapEvent{At: snap.Now, Seq: snap.Seq, Tag: tag})
		}
	}
	// arrivalEdit rewrites, or with nil appends a copy of, the stream
	// snapshot's pending arrival.
	arrivalEdit := func(edit func(*snapEvent)) func(*runSnapshot) {
		return func(snap *runSnapshot) {
			if edit == nil {
				snap.Events = append(snap.Events, snap.Events[arrival])
				return
			}
			edit(&snap.Events[arrival])
		}
	}
	dropArrival := func(snap *runSnapshot) { snap.Events = slices.Delete(snap.Events, arrival, arrival+1) }
	// finishArrivingJob marks the job of the stream snapshot's pending
	// arrival finished.
	finishArrivingJob := func(snap *runSnapshot) {
		snap.Jobs = slices.Clone(snap.Jobs)
		snap.Jobs[snap.Events[arrival].Tag.A].Finish = snap.Now
	}
	traceCursorPast := func(snap *runSnapshot) { snap.TraceNext++ }
	// jobEdit rewrites one job's counts.
	jobEdit := func(idx int, edit func(*jobSnap)) func(*runSnapshot) {
		return func(snap *runSnapshot) {
			snap.Jobs = slices.Clone(snap.Jobs)
			edit(&snap.Jobs[idx])
		}
	}
	running := slices.IndexFunc(snaps["rich"].Jobs, func(j jobSnap) bool { return j.Remaining > 0 })
	if running < 0 {
		t.Fatal("the rich snapshot holds no job with slices left")
	}
	lowerJobsLeft := func(snap *runSnapshot) { snap.JobsLeft-- }
	// payload rewrites the pending re-profile.
	payload := func(edit func(*eventTag)) func(*runSnapshot) {
		return func(snap *runSnapshot) { edit(&snap.Events[reprofile].Tag) }
	}
	// procEdit rewrites one processor's stored slices.
	procEdit := func(id int, edit func(*cluster.ProcState)) func(*runSnapshot) {
		return func(snap *runSnapshot) {
			snap.Cluster.Procs = slices.Clone(snap.Cluster.Procs)
			ps := &snap.Cluster.Procs[id]
			ps.Current = slices.Clone(ps.Current)
			ps.Queue = slices.Clone(ps.Queue)
			edit(ps)
		}
	}
	rich := snaps["rich"]
	busy := slices.IndexFunc(rich.Cluster.Procs, func(ps cluster.ProcState) bool { return len(ps.Current) == 1 })
	queued := slices.IndexFunc(rich.Cluster.Procs, func(ps cluster.ProcState) bool { return len(ps.Queue) > 0 })
	unqueued := slices.IndexFunc(rich.Cluster.Procs, func(ps cluster.ProcState) bool { return len(ps.Queue) == 0 })
	if busy < 0 || queued < 0 || unqueued < 0 {
		t.Fatalf("the rich snapshot holds no running slice (%d), no queued one (%d) or no empty queue (%d)", busy, queued, unqueued)
	}
	cur := rich.Cluster.Procs[busy].Current[0]
	completion := slices.IndexFunc(rich.Events, func(ev snapEvent) bool {
		return ev.Tag.Kind == tagCompletion && int(ev.Tag.A) == cur.Serial && int(ev.Tag.B) == cur.Gen
	})
	if completion < 0 {
		t.Fatalf("the rich snapshot holds no completion of running slice %d", cur.Serial)
	}
	dropCompletion := func(snap *runSnapshot) { snap.Events = slices.Delete(snap.Events, completion, completion+1) }
	lateCompletion := func(snap *runSnapshot) { snap.Events[completion].At += 60 }
	// dupCompletion appends a copy of that completion under a fresh
	// sequence number.
	dupCompletion := func(snap *runSnapshot) {
		snap.Seq++
		ev := snap.Events[completion]
		ev.Seq = snap.Seq
		snap.Events = append(snap.Events, ev)
	}

	// The controls: the unedited snapshots, and one with an extra event
	// that is valid anywhere, resume.
	for name := range configs {
		if err := resume(name, func(*runSnapshot) {}); err != nil {
			t.Fatalf("%s: the re-encoded snapshot was refused: %v", name, err)
		}
		if err := resume(name, add(eventTag{Kind: tagAuxTick})); err != nil {
			t.Fatalf("%s: a snapshot with an extra aux tick was refused: %v", name, err)
		}
	}

	for _, tc := range []struct {
		name, snap string
		edit       func(*runSnapshot)
		want       string
	}{
		{"reprofile level above range", "rich", payload(func(tag *eventTag) { tag.FPLevel = 99 }), "malformed false pass"},
		{"reprofile level negative", "rich", payload(func(tag *eventTag) { tag.FPLevel = -1 }), "malformed false pass"},
		{"reprofile chip out of range", "rich", payload(func(tag *eventTag) { tag.FPChip = 1_000_000 }), "malformed false pass"},
		{"reprofile chip not the processor", "rich", payload(func(tag *eventTag) { tag.FPChip = (tag.A + 1) % 32 }), "malformed false pass"},
		{"reprofile drift above one", "rich", payload(func(tag *eventTag) { tag.FPDrift = 7 }), "malformed false pass"},
		{"reprofile drift zero", "rich", payload(func(tag *eventTag) { tag.FPDrift = 0 }), "malformed false pass"},
		{"reprofile drift NaN", "rich", payload(func(tag *eventTag) { tag.FPDrift = math.NaN() }), "malformed false pass"},
		{"reprofile processor out of range", "rich", payload(func(tag *eventTag) { tag.A, tag.FPChip = 32, 32 }), "reprofile event for processor 32 out of range"},
		{"second reprofile of one processor", "rich", add(pending), "second reprofile"},
		{"reprofile without faults", "bare", add(eventTag{Kind: tagReprofiled, FPDrift: 0.5}), "reprofile event with fault injection disabled"},
		{"arrival of a trace job", "rich", add(eventTag{Kind: tagArrival, A: 0}), "not an injected job's"},
		{"arrival past the job set", "rich", add(eventTag{Kind: tagArrival, A: 120}), "not an injected job's"},
		{"arrival of an arrived injected job", "stream", add(eventTag{Kind: tagArrival, A: 0}), "arrival of injected job 0 with seq"},
		{"pending arrival of a finished injected job", "stream", finishArrivingJob, "has already arrived but has a pending arrival"},
		{"second arrival of one injected job", "stream", arrivalEdit(nil), "second arrival for injected job"},
		{"injected job without its pending arrival", "stream", dropArrival, "neither arrived nor a pending arrival"},
		{"trace cursor past a pending arrival", "rich", traceCursorPast, "neither arrived nor a pending arrival"},
		{"remaining above the live slices", "rich", jobEdit(4, func(j *jobSnap) { j.Remaining++ }), "job 4 counts"},
		{"finished job with live slices", "rich", jobEdit(running, func(j *jobSnap) { j.Finish = snaps["rich"].Now }), "slices left"},
		{"jobs left below the unfinished jobs", "rich", lowerJobsLeft, "jobs left, but"},
		{"arrival after its submit time", "stream", arrivalEdit(func(ev *snapEvent) { ev.At += 3600 }), "due at its submit time"},
		{"arrival outside its sequence slot", "stream", arrivalEdit(func(ev *snapEvent) { ev.Seq++ }), "due at its submit time"},
		{"wind tick without wind", "bare", add(eventTag{Kind: tagWindTick}), "wind tick in a utility-only run"},
		{"sampler tick without sampling", "rich", add(eventTag{Kind: tagSample}), "sampling disabled"},
		{"telemetry tick without telemetry", "bare", add(eventTag{Kind: tagTelemetry}), "telemetry disabled"},
		{"scan finish processor out of range", "rich", add(eventTag{Kind: tagFinishScan, A: 32}), "scan finish for processor 32 out of range"},
		{"scan finish processor negative", "rich", add(eventTag{Kind: tagFinishScan, A: -1}), "scan finish for processor -1 out of range"},
		{"scan finish without online profiling", "rich", add(eventTag{Kind: tagFinishScan}), "no scan in progress"},
		{"scan finish outside a scan", "bare", add(eventTag{Kind: tagFinishScan, A: int32(unscanned)}), "no scan in progress"},
		{"fault event without faults", "bare", add(eventTag{Kind: tagFaultEvent}), "fault event with fault injection disabled"},
		{"fault plan index out of range", "rich", add(eventTag{Kind: tagFaultEvent, A: 1 << 30}), "fault plan index"},
		{"fault plan index negative", "rich", add(eventTag{Kind: tagFaultEvent, A: -1}), "fault plan index"},
		{"fault plan event without observer", "rich", add(eventTag{Kind: tagFaultEvent, A: int32(fade)}), "has no observer"},
		{"repair without faults", "bare", add(eventTag{Kind: tagRepaired}), "repair event for processor 0 invalid"},
		{"repair processor out of range", "rich", add(eventTag{Kind: tagRepaired, A: 32}), "repair event for processor 32 invalid"},
		{"margin check without faults", "bare", add(eventTag{Kind: tagMargin}), "margin event with fault injection disabled"},
		{"running slice without its completion", "rich", dropCompletion, "has no pending completion"},
		{"second completion of a running slice", "rich", dupCompletion, "second completion of running slice"},
		{"completion off a running slice's finish", "rich", lateCompletion, "which finishes at"},
		{"slice stored under another processor", "rich", procEdit(busy, func(ps *cluster.ProcState) { ps.Current[0].ProcID = (busy + 1) % 32 }), "but names processor"},
		{"queued slice stored under another processor", "rich", procEdit(queued, func(ps *cluster.ProcState) { ps.Queue[0].ProcID = (queued + 1) % 32 }), "but names processor"},
		{"current slice not running", "rich", procEdit(busy, func(ps *cluster.ProcState) { ps.Current[0].Running = false }), "is not running"},
		{"queued slice marked running", "rich", procEdit(queued, func(ps *cluster.ProcState) { ps.Queue[0].Running = true }), "marked running"},
		{"running level above the DVFS table", "rich", procEdit(busy, func(ps *cluster.ProcState) { ps.Current[0].Level = 99 }), "outside the"},
		{"assigned level negative", "rich", procEdit(queued, func(ps *cluster.ProcState) { ps.Queue[0].AssignedLevel = -1 }), "outside the"},
		{"slice serial negative", "rich", procEdit(queued, func(ps *cluster.ProcState) { ps.Queue[0].Serial = -5 }), "slice serial -5, outside the"},
		{"slice serial not yet issued", "rich", procEdit(queued, func(ps *cluster.ProcState) { ps.Queue[0].Serial = rich.SliceSeq }), "issued"},
		{"backlog off its queue's durations", "rich", procEdit(queued, func(ps *cluster.ProcState) { ps.Backlog = 0 }), "queued slices take"},
		{"backlog NaN", "rich", procEdit(queued, func(ps *cluster.ProcState) { ps.Backlog = units.Seconds(math.NaN()) }), "queued slices take"},
		{"backlog on an empty queue", "rich", procEdit(unqueued, func(ps *cluster.ProcState) { ps.Backlog = 60 }), "0 queued slices take 0 s"},
		{"kind zero", "rich", add(eventTag{}), "unknown event tag kind 0"},
		{"kind past the last", "rich", add(eventTag{Kind: tagTelemetry + 1}), "unknown event tag kind"},
	} {
		err := resume(tc.snap, tc.edit)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewStepper returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckpointSinkErrorFailsRun(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinEffi")
	boom := errors.New("disk full")
	cfg := RunConfig{Seed: 1, Jobs: jobs,
		Checkpoint: &CheckpointConfig{Every: units.Hours(1), Sink: func([]byte) error { return boom }}}
	if _, err := Run(fleet, sch, cfg); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the sink's error", err)
	}
}

func TestCheckpointRequiresSink(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinEffi")
	cfg := RunConfig{Seed: 1, Jobs: jobs, Checkpoint: &CheckpointConfig{Every: units.Hours(1)}}
	if _, err := Run(fleet, sch, cfg); err == nil {
		t.Fatal("checkpoint config without sink accepted")
	}
}
