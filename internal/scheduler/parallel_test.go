package scheduler

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
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
	if cfgHash(a) != cfgHash(b) {
		t.Fatal("Workers changed cfgHash; checkpoints would refuse to resume across worker counts")
	}
}

// TestCheckpointInterchangeAcrossWorkers is the resume property test:
// a checkpoint taken mid-run under one worker count must resume under
// any other worker count to the byte-identical final Result. Every
// (save, resume) ordered pair over {serial, 2, 4, 8} is exercised,
// with rebalancing, online profiling, a dense fault storm, and the
// hostile sensor environment live so the parallel kernels — and the
// dirty-burst repair paths faults and telemetry drive them through —
// all run on both sides of the snapshot.
func TestCheckpointInterchangeAcrossWorkers(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 17, 30, 0.4)
	w := testWind(t, fleet, 400)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	faults := testgrid.DenseFaults()
	// Pin the horizon so the fault and sensor plans never depend on
	// which side of the snapshot compiles them.
	faults.Horizon = units.Days(2)
	base := RunConfig{
		Seed:            3,
		Jobs:            jobs,
		Wind:            w,
		EnableRebalance: true,
		Online:          &OnlineProfiling{},
		Faults:          faults,
		Telemetry:       testgrid.HostileTelemetry(5),
	}
	counts := []int{0, 2, 4, 8}

	// One uninterrupted serial run is the reference everything must hit.
	want, err := Run(fleet, sch, base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	snaps := make(map[int][][]byte)
	for _, save := range counts {
		col := &snapCollector{}
		cfg := base
		cfg.Workers = save
		cfg.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: col.sink}
		got, err := Run(fleet, sch, cfg)
		if err != nil {
			t.Fatalf("workers=%d checkpointed run: %v", save, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d run diverged from serial reference", save)
		}
		if len(col.snaps) < 2 {
			t.Fatalf("workers=%d: only %d checkpoints; test needs a mid-run one", save, len(col.snaps))
		}
		snaps[save] = col.snaps
	}

	// Snapshots must be byte-identical across worker counts...
	for _, save := range counts[1:] {
		if len(snaps[save]) != len(snaps[0]) {
			t.Fatalf("workers=%d emitted %d checkpoints, serial %d", save, len(snaps[save]), len(snaps[0]))
		}
		for i := range snaps[0] {
			if !bytes.Equal(snaps[0][i], snaps[save][i]) {
				t.Fatalf("checkpoint %d differs between serial and workers=%d", i, save)
			}
		}
	}

	// ...and a mid-run snapshot saved under any count must resume under
	// any other count to the reference result.
	mid := snaps[0][len(snaps[0])/2]
	for _, resume := range counts {
		cfg := base
		cfg.Workers = resume
		cfg.Resume = mid
		got, err := Run(fleet, sch, cfg)
		if err != nil {
			t.Fatalf("resume under workers=%d: %v", resume, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("resume under workers=%d diverged from the uninterrupted run", resume)
		}
	}
}

// TestShardedFairOrderRandomized is the property test for the lazy
// sharded fair order: after arbitrary event stepping and arbitrary
// dirty bursts — including oversized ones that force the full-pass
// fallback — the fully drained order at every committed worker count
// must equal the ground-truth (utilization, id) sort element for
// element. workers=1 is the single-shard pool every serial run uses,
// so serial runs are held to the identical permutation too.
func TestShardedFairOrderRandomized(t *testing.T) {
	fleet := testFleet(t, 256)
	jobs := testJobs(t, 23, 120, 0.3)
	w := testWind(t, fleet, 700)
	sch, ok := SchemeByName("ScanFair")
	if !ok {
		t.Fatal("ScanFair scheme missing")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := RunConfig{Seed: 5, Jobs: jobs, Wind: w, EnableRebalance: true, Workers: workers}
			s, err := newSim(fleet, sch, cfg, false)
			if err != nil {
				t.Fatalf("newSim: %v", err)
			}
			t.Cleanup(s.close)
			rnd := rand.New(rand.NewSource(int64(1000 + workers)))
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
		})
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
