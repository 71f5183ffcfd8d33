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
	"testing"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/checkpoint"
	"iscope/internal/invariants"
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
