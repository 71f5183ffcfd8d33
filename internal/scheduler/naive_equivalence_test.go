package scheduler

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"iscope/internal/battery"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
)

// gobBytes encodes v so two results can be compared byte-for-byte —
// a stricter statement than DeepEqual alone, and the same encoding the
// experiment grid persists.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

// TestOptimizedMatchesNaiveReference is the equivalence tentpole for
// the allocation-free optimized kernels: for every scheme and several
// seeds — plain, under dense fault injection, and with the brownout
// ladder, battery, sampler, online profiling and rebalancing all
// engaged — the
// optimized scheduler must produce a Result byte-identical to the
// retained seed implementation (RunConfig.naive), and every checkpoint
// the runs emit must match byte-for-byte as well. The naive side
// also runs with the power-memoization cache disabled, so a missing
// cache invalidation shows up here as a divergence instead of being
// masked by both sides caching the same stale value.
func TestOptimizedMatchesNaiveReference(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	batt := battery.DefaultSpec(units.FromKWh(30))
	variants := []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"plain", func(cfg *RunConfig) {}},
		{"faults", func(cfg *RunConfig) { cfg.Faults = denseFaults() }},
		{"brownout", func(cfg *RunConfig) {
			cfg.Faults = denseFaults()
			cfg.Battery = &batt
			cfg.SampleInterval = units.Minutes(30)
			cfg.Online = &OnlineProfiling{}
			cfg.EnableRebalance = true
			cfg.Brownout = testgrid.AggressiveBrownout()
		}},
		// Active sensor errors steer every power-view seam (matching,
		// abundance, admission, brownout pressure) through the estimated
		// path, so a naive/optimized divergence there surfaces here.
		{"telemetry", func(cfg *RunConfig) {
			cfg.Faults = denseFaults()
			cfg.Telemetry = testgrid.HostileTelemetry(7)
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				w := testWind(t, fleet, 300+seed)
				for _, sch := range Schemes() {
					base := RunConfig{Seed: seed, Jobs: jobs, Wind: w}
					v.mutate(&base)

					refCol := &snapCollector{}
					ref := base
					ref.naive = true
					ref.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: refCol.sink}
					want, err := Run(fleet, sch, ref)
					if err != nil {
						t.Fatalf("seed %d %s: naive run: %v", seed, sch.Name, err)
					}

					if len(refCol.snaps) == 0 {
						t.Fatalf("seed %d %s: naive run emitted no checkpoints", seed, sch.Name)
					}

					optCol := &snapCollector{}
					opt := base
					opt.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: optCol.sink}
					got, err := Run(fleet, sch, opt)
					if err != nil {
						t.Fatalf("seed %d %s: optimized run: %v", seed, sch.Name, err)
					}

					if !reflect.DeepEqual(want, got) {
						t.Fatalf("seed %d %s: optimized result diverged from naive reference:\nnaive     %+v\noptimized %+v", seed, sch.Name, want, got)
					}
					if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
						t.Fatalf("seed %d %s: results DeepEqual but encode differently", seed, sch.Name)
					}
					if len(refCol.snaps) != len(optCol.snaps) {
						t.Fatalf("seed %d %s: naive emitted %d checkpoints, optimized %d", seed, sch.Name, len(refCol.snaps), len(optCol.snaps))
					}
					for i := range refCol.snaps {
						if !bytes.Equal(refCol.snaps[i], optCol.snaps[i]) {
							t.Fatalf("seed %d %s: checkpoint %d/%d differs between naive and optimized runs", seed, sch.Name, i+1, len(refCol.snaps))
						}
					}
				}
			}
		})
	}
}

// TestNaiveFlagExcludedFromCfgHash pins the contract that the naive
// switch is an implementation detail: a snapshot captured by either
// path must resume under the other (the equivalence suite relies on
// the two producing interchangeable checkpoints).
func TestNaiveFlagExcludedFromCfgHash(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 9, 12, 0.3)
	w := testWind(t, fleet, 301)
	sch, _ := SchemeByName("ScanFair")
	base := RunConfig{Seed: 1, Jobs: jobs, Wind: w}

	col := &snapCollector{}
	ck := base
	ck.naive = true
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: col.sink}
	want, err := Run(fleet, sch, ck)
	if err != nil {
		t.Fatalf("naive checkpointed run: %v", err)
	}
	if len(col.snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}

	re := base // optimized path
	re.Resume = col.snaps[len(col.snaps)/2]
	got, err := Run(fleet, sch, re)
	if err != nil {
		t.Fatalf("optimized resume of naive snapshot: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("optimized resume of a naive snapshot diverged:\nnaive     %+v\nresumed   %+v", want, got)
	}
}
