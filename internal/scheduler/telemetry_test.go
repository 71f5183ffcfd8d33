package scheduler

import (
	"bytes"
	"reflect"
	"testing"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/invariants"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/telemetry"
	"iscope/internal/units"
)

// driftSpec is a fixed active error environment heavy on calibration
// drift — the error class that accumulates over the run, so resuming
// mid-drift is the hardest restore case: the rebuilt model must pick
// up the noise stream, dropout cursors and stuck latches exactly where
// the snapshot left them.
func driftSpec() *telemetry.Spec {
	return &telemetry.Spec{
		SampleInterval:  units.Minutes(2),
		NoiseFrac:       0.04,
		DriftFracPerDay: 0.25,
		QuantStep:       10,
		ProcsPerNode:    4,
		DropoutsPerDay:  4,
		DropoutMeanDur:  units.Minutes(15),
		StuckFrac:       0.15,
		SpikesPerDay:    3,
		SpikeFrac:       0.5,
		GuardMargin:     0.1,
		Horizon:         units.Hours(18),
	}
}

// TestTelemetryZeroErrorBitIdentical pins the seam's zero-cost
// contract: a telemetry spec with every error source at zero is a
// perfect sensor layer, and a run configured with it must be
// bit-identical to the oracle path — Result structs, their gob
// encodings, and every periodic checkpoint — across schemes and seeds.
// This is what lets production configs leave a -telemetry flag wired
// up permanently and pay nothing until errors are modeled.
func TestTelemetryZeroErrorBitIdentical(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	zero := &telemetry.Spec{SampleInterval: 60, ProcsPerNode: 4, GuardMargin: 0.15}
	if zero.Enabled() {
		t.Fatal("zero-error spec reports Enabled")
	}
	for _, seed := range testgrid.Seeds() {
		w := testWind(t, fleet, 300+seed)
		for _, sch := range Schemes() {
			base := RunConfig{Seed: seed, Jobs: jobs, Wind: w}

			refCol := &snapCollector{}
			ref := base
			ref.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: refCol.sink}
			want, err := Run(fleet, sch, ref)
			if err != nil {
				t.Fatalf("seed %d %s: oracle run: %v", seed, sch.Name, err)
			}

			telCol := &snapCollector{}
			tel := base
			tel.Telemetry = zero
			tel.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: telCol.sink}
			got, err := Run(fleet, sch, tel)
			if err != nil {
				t.Fatalf("seed %d %s: zero-error telemetry run: %v", seed, sch.Name, err)
			}

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d %s: zero-error telemetry perturbed the run:\noracle    %+v\ntelemetry %+v", seed, sch.Name, want, got)
			}
			if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
				t.Fatalf("seed %d %s: results DeepEqual but encode differently", seed, sch.Name)
			}
			if len(refCol.snaps) == 0 || len(refCol.snaps) != len(telCol.snaps) {
				t.Fatalf("seed %d %s: oracle emitted %d checkpoints, telemetry %d", seed, sch.Name, len(refCol.snaps), len(telCol.snaps))
			}
			for i := range refCol.snaps {
				if !bytes.Equal(refCol.snaps[i], telCol.snaps[i]) {
					t.Fatalf("seed %d %s: checkpoint %d/%d differs between oracle and zero-error telemetry runs", seed, sch.Name, i+1, len(refCol.snaps))
				}
			}
		}
	}
}

// TestTelemetryResumeMidDrift is the restore acceptance test: under an
// active drift-heavy spec, a run resumed from a mid-run snapshot must
// finish with a Result bit-identical to the uninterrupted run AND emit
// the exact same subsequent checkpoint bytes — proving the sensor
// model's noise stream, drift phase, dropout/spike cursors, stuck
// latches, and the estimation view (demand factor, per-node ratios,
// guard state) all travel through the snapshot intact.
func TestTelemetryResumeMidDrift(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 60, 0.3)
	spec := driftSpec()
	for _, seed := range testgrid.Seeds() {
		w := testWind(t, fleet, 300+seed)
		for _, sch := range Schemes() {
			base := RunConfig{Seed: seed, Jobs: jobs, Wind: w, Telemetry: spec}

			col := &snapCollector{}
			ck := base
			ck.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: col.sink}
			want, err := Run(fleet, sch, ck)
			if err != nil {
				t.Fatalf("seed %d %s: reference run: %v", seed, sch.Name, err)
			}
			if want.Telemetry.Samples == 0 {
				t.Fatalf("seed %d %s: telemetry never sampled", seed, sch.Name)
			}
			if want.Telemetry.MaxAbsErr == 0 {
				t.Fatalf("seed %d %s: hostile spec produced zero estimation error — seam is dead", seed, sch.Name)
			}
			if len(col.snaps) < 2 {
				t.Fatalf("seed %d %s: want several snapshots, got %d", seed, sch.Name, len(col.snaps))
			}

			mid := len(col.snaps) / 2
			reCol := &snapCollector{}
			re := base
			re.Resume = col.snaps[mid]
			re.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: reCol.sink}
			got, err := Run(fleet, sch, re)
			if err != nil {
				t.Fatalf("seed %d %s: resumed run: %v", seed, sch.Name, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d %s: resume mid-drift diverged:\nreference %+v\nresumed   %+v", seed, sch.Name, want, got)
			}
			tail := col.snaps[mid+1:]
			if len(reCol.snaps) != len(tail) {
				t.Fatalf("seed %d %s: resumed run emitted %d checkpoints, reference tail has %d", seed, sch.Name, len(reCol.snaps), len(tail))
			}
			for i := range tail {
				if !bytes.Equal(reCol.snaps[i], tail[i]) {
					t.Fatalf("seed %d %s: post-resume checkpoint %d/%d differs from the uninterrupted run", seed, sch.Name, i+1, len(tail))
				}
			}
		}
	}
}

// TestTelemetryChaosNoViolations is the hostile-sensor acceptance
// harness: randomized hostile telemetry on top of the chaos fault plan,
// the aggressive brownout ladder, a draining battery and a fail-fast
// monitor. However wrong the estimated power view gets, the ground-truth
// accounting invariants (energy conservation above all) must stay
// clean — misestimation may cost efficiency, never correctness. Guard
// trips are advisories: each one must land in the monitor's warning
// channel, not its violation catalog.
func TestTelemetryChaosNoViolations(t *testing.T) {
	fleet := testFleet(t, 16)
	totalTrips := 0
	for _, seed := range testgrid.Seeds() {
		jobs := testJobs(t, 500+seed, 90, 0.35)
		w := testWind(t, fleet, 600+seed)
		for _, sch := range Schemes() {
			batt := battery.DefaultSpec(units.FromKWh(2))
			cfg := RunConfig{
				Seed:      seed,
				Jobs:      jobs,
				Wind:      w,
				Battery:   &batt,
				Faults:    testgrid.ChaosSpec(seed),
				Telemetry: testgrid.HostileTelemetry(seed),
				Brownout: &brownout.Config{
					Thresholds: [brownout.NumStages - 1]float64{0.04, 0.1, 0.2, 0.4},
					DwellUp:    units.Minutes(1),
					DwellDown:  units.Minutes(10),
				},
				Invariants: &invariants.Config{Action: invariants.FailFast},
			}
			res, err := Run(fleet, sch, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, sch.Name, err)
			}
			if res.Invariants.Violations != 0 {
				t.Fatalf("seed %d %s: %d ground-truth invariant violations under hostile telemetry, first: %s",
					seed, sch.Name, res.Invariants.Violations, res.Invariants.First)
			}
			if res.Invariants.Checks == 0 {
				t.Fatalf("seed %d %s: monitor ran no checks", seed, sch.Name)
			}
			ts := res.Telemetry
			if ts.Samples == 0 || ts.Sensors == 0 {
				t.Fatalf("seed %d %s: telemetry inactive under a hostile spec: %+v", seed, sch.Name, ts)
			}
			if ts.MaxAbsErr == 0 {
				t.Fatalf("seed %d %s: hostile sensors produced zero estimation error: %+v", seed, sch.Name, ts)
			}
			if res.Invariants.Warnings != ts.GuardTrips {
				t.Fatalf("seed %d %s: %d guard trips but %d recorded advisories — every trip must be a warning, never a violation",
					seed, sch.Name, ts.GuardTrips, res.Invariants.Warnings)
			}
			totalTrips += ts.GuardTrips
		}
	}
	if totalTrips == 0 {
		t.Fatal("misestimation guard never tripped across the whole hostile grid; the degradation path is untested")
	}
}
