package scheduler

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"testing"

	"iscope/internal/battery"
	"iscope/internal/checkpoint"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// drain fires events until the run finishes, the way RunCtx does.
func drain(t *testing.T, st *Stepper) {
	t.Helper()
	for !st.Finished() {
		fired, err := st.ProcessNextEvent()
		if err != nil {
			t.Fatalf("ProcessNextEvent: %v", err)
		}
		if !fired {
			break
		}
	}
}

// logicalSnapshot decodes a snapshot taken over trace and folds the
// trace back in: every job's definition and every pending arrival
// listed explicitly, as though the run had been fed its whole job set
// through InjectJob. Runs that differ only in which jobs their
// configuration supplied reach equal logical snapshots exactly when
// their states are equal, while their snapshot bytes differ, since a
// snapshot leaves the configured trace out.
func logicalSnapshot(t *testing.T, data []byte, trace []workload.Job) []byte {
	t.Helper()
	var snap runSnapshot
	if err := checkpoint.Decode(data, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Injected = append(append([]workload.Job(nil), trace...), snap.Injected...)
	for i := snap.TraceNext; i < len(trace); i++ {
		snap.Events = append(snap.Events, snapEvent{At: trace[i].Submit, Seq: uint64(i) + 1, Tag: eventTag{Kind: tagArrival, A: int32(i)}})
	}
	slices.SortFunc(snap.Events, func(a, b snapEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	snap.TraceNext = 0
	return gobBytes(t, snap)
}

// TestStepLoopMatchesBatchRun is the tentpole property suite for the
// step primitives: over every scheme, three seeds, the {plain, dense
// faults, brownout kitchen-sink} variants, and Workers in {1, 4}, a
// batch Run with periodic checkpoints is compared bit-for-bit against
// two step-driven executions:
//
//  1. sealed-from-start: NewStepper over the full trace, Seal, drain —
//     the streaming entry point degenerating to batch;
//  2. mid-run injection: NewStepper over only the head of the trace
//     (submits <= 2h), events advanced to 2h, then the tail injected
//     through InjectJob, sealed, drained.
//
// All three must agree on the Result (DeepEqual and gob bytes) and on
// every periodic checkpoint: the sealed stepper byte-for-byte, the
// injected one in its logical form (see logicalSnapshot), since its
// configuration supplies only the head of the trace. The injection
// point is before the first 3h checkpoint tick, so even the injected
// run's full checkpoint stream must match the batch run that knew the
// whole trace from the start. The two steppers must also agree on their
// final Snapshot() in logical form.
func TestStepLoopMatchesBatchRun(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	batt := battery.DefaultSpec(units.FromKWh(30))

	// Split the trace at the injection cut. The equivalence argument
	// needs the tail injected before the clock reaches any tail submit,
	// and the cut below the first checkpoint tick.
	const cut = units.Seconds(2 * 60 * 60)
	split := 0
	for split < len(jobs.Jobs) && jobs.Jobs[split].Submit <= cut {
		split++
	}
	if split == 0 || split == len(jobs.Jobs) {
		t.Fatalf("degenerate trace split at t=%v: head %d, tail %d", cut, split, len(jobs.Jobs)-split)
	}
	head := &workload.Trace{Jobs: jobs.Jobs[:split:split]}
	tail := jobs.Jobs[split:]

	variants := []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"plain", func(cfg *RunConfig) {}},
		{"faults", func(cfg *RunConfig) {
			// Pin the fault horizon: the default derives from the
			// config trace's last submit, which differs between the
			// full-trace and head-only runs.
			spec := testgrid.DenseFaults()
			spec.Horizon = units.Days(2)
			cfg.Faults = spec
		}},
		{"brownout", func(cfg *RunConfig) {
			spec := testgrid.DenseFaults()
			spec.Horizon = units.Days(2)
			cfg.Faults = spec
			cfg.Battery = &batt
			cfg.SampleInterval = units.Minutes(30)
			cfg.Online = &OnlineProfiling{}
			cfg.EnableRebalance = true
			cfg.Brownout = testgrid.AggressiveBrownout()
		}},
		// HostileTelemetry pins its own horizon, so the head-only and
		// full-trace runs compile identical sensor plans (the default
		// would derive from each config trace's last submit).
		{"telemetry", func(cfg *RunConfig) {
			spec := testgrid.DenseFaults()
			spec.Horizon = units.Days(2)
			cfg.Faults = spec
			cfg.Telemetry = testgrid.HostileTelemetry(7)
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, seed := range testgrid.Seeds() {
				w := testWind(t, fleet, 500+seed)
				for _, sch := range Schemes() {
					// FairPolicy schemes drive the sharded lazy fair
					// order, whose shard boundaries move with the worker
					// count — those cells sweep every committed count.
					// The other policies run no sharded kernel, so two
					// counts bound the runtime.
					workerSweep := []int{1, 4}
					if sch.Policy == FairPolicy {
						workerSweep = []int{1, 2, 4, 8}
					}
					for _, workers := range workerSweep {
						base := RunConfig{Seed: seed, Jobs: jobs, Wind: w, Workers: workers}
						v.mutate(&base)

						batchCol := &snapCollector{}
						batchCfg := base
						batchCfg.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: batchCol.sink}
						want, err := Run(fleet, sch, batchCfg)
						if err != nil {
							t.Fatalf("seed %d %s workers=%d: batch run: %v", seed, sch.Name, workers, err)
						}
						if len(batchCol.snaps) == 0 {
							t.Fatalf("seed %d %s workers=%d: batch run emitted no checkpoints", seed, sch.Name, workers)
						}

						// same compares a stepper's snapshot with the batch
						// run's: byte-for-byte when the stepper was configured
						// with the whole trace, in logical form otherwise.
						same := func(trace []workload.Job, got, want []byte) bool {
							if len(trace) == len(jobs.Jobs) {
								return bytes.Equal(got, want)
							}
							return bytes.Equal(logicalSnapshot(t, got, trace), logicalSnapshot(t, want, jobs.Jobs))
						}
						check := func(mode string, st *Stepper, trace []workload.Job, col *snapCollector) []byte {
							t.Helper()
							drain(t, st)
							if !st.Finished() {
								t.Fatalf("seed %d %s workers=%d %s: drained without finishing", seed, sch.Name, workers, mode)
							}
							snap, err := st.Snapshot()
							if err != nil {
								t.Fatalf("seed %d %s workers=%d %s: final snapshot: %v", seed, sch.Name, workers, mode, err)
							}
							got, err := st.Result()
							if err != nil {
								t.Fatalf("seed %d %s workers=%d %s: result: %v", seed, sch.Name, workers, mode, err)
							}
							if !reflect.DeepEqual(want, got) {
								t.Fatalf("seed %d %s workers=%d %s: result diverged from batch Run:\nbatch %+v\nstep  %+v",
									seed, sch.Name, workers, mode, want, got)
							}
							if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
								t.Fatalf("seed %d %s workers=%d %s: results DeepEqual but encode differently", seed, sch.Name, workers, mode)
							}
							if len(col.snaps) != len(batchCol.snaps) {
								t.Fatalf("seed %d %s workers=%d %s: %d checkpoints, batch emitted %d",
									seed, sch.Name, workers, mode, len(col.snaps), len(batchCol.snaps))
							}
							for i := range col.snaps {
								if !same(trace, col.snaps[i], batchCol.snaps[i]) {
									t.Fatalf("seed %d %s workers=%d %s: checkpoint %d/%d differs from batch",
										seed, sch.Name, workers, mode, i+1, len(col.snaps))
								}
							}
							return snap
						}

						// Sealed from the start: streaming path, batch semantics.
						sealedCol := &snapCollector{}
						sealedCfg := base
						sealedCfg.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: sealedCol.sink}
						sealed, err := NewStepper(fleet, sch, sealedCfg)
						if err != nil {
							t.Fatalf("seed %d %s workers=%d: NewStepper(sealed): %v", seed, sch.Name, workers, err)
						}
						sealed.Seal()
						sealedSnap := check("sealed", sealed, jobs.Jobs, sealedCol)
						sealed.Close()

						// Mid-run injection of the trace tail.
						injCol := &snapCollector{}
						injCfg := base
						injCfg.Jobs = head
						injCfg.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: injCol.sink}
						inj, err := NewStepper(fleet, sch, injCfg)
						if err != nil {
							t.Fatalf("seed %d %s workers=%d: NewStepper(inject): %v", seed, sch.Name, workers, err)
						}
						if _, err := inj.AdvanceTo(cut); err != nil {
							t.Fatalf("seed %d %s workers=%d: AdvanceTo(%v): %v", seed, sch.Name, workers, cut, err)
						}
						if now := inj.Now(); now > cut {
							t.Fatalf("seed %d %s workers=%d: AdvanceTo overshot to %v", seed, sch.Name, workers, now)
						}
						for i, j := range tail {
							idx, err := inj.InjectJob(j.Submit, j)
							if err != nil {
								t.Fatalf("seed %d %s workers=%d: InjectJob(tail %d): %v", seed, sch.Name, workers, i, err)
							}
							if idx != split+i {
								t.Fatalf("seed %d %s workers=%d: tail job %d landed at index %d, want %d",
									seed, sch.Name, workers, i, idx, split+i)
							}
						}
						inj.Seal()
						injSnap := check("inject", inj, head.Jobs, injCol)
						inj.Close()

						if !same(head.Jobs, injSnap, sealedSnap) {
							t.Fatalf("seed %d %s workers=%d: final snapshots differ between sealed and injected steppers",
								seed, sch.Name, workers)
						}
					}
				}
			}
		})
	}
}
