package iscope

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus micro-
// benchmarks of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes the full experiment at QuickScale;
// the printed result tables come from cmd/experiments instead.

import (
	"fmt"
	"testing"

	"iscope/internal/binning"
	"iscope/internal/experiments"
	"iscope/internal/power"
	"iscope/internal/profiling"
	"iscope/internal/rng"
	"iscope/internal/scheduler"
	"iscope/internal/units"
	"iscope/internal/variation"
)

// BenchmarkTable1Binning measures factory binning of a 4800-chip fleet
// (Table 1's process applied to the paper's datacenter).
func BenchmarkTable1Binning(b *testing.B) {
	m, err := variation.NewModel(variation.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	chips := m.GenerateFleet(4800)
	tbl := power.DefaultTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binning.Assign(chips, tbl, 3, binning.DefaultFactoryGuard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Profiling regenerates Figure 4 (16-core A10 MinVdd scan).
func BenchmarkFig4Profiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5UtilityOnly regenerates Figure 5 (utility-only energy
// sweeps over %HU and arrival rate, five schemes).
func BenchmarkFig5UtilityOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6WindUtility regenerates Figure 6 (wind+utility sweeps).
func BenchmarkFig6WindUtility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PowerTrace regenerates Figure 7 (350-second-sampled
// power traces of the three Scan schemes).
func BenchmarkFig7PowerTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8EnergyCost regenerates Figure 8 (energy cost per scheme,
// with and without wind).
func BenchmarkFig8EnergyCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9LifetimeBalance regenerates Figure 9 (utilization-time
// variance across the SWP sweep).
func BenchmarkFig9LifetimeBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10ProfilingOverhead regenerates Figure 10 and the Section
// VI.E profiling-cost table.
func BenchmarkFig10ProfilingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkScanChip measures one full-chip descending-voltage scan.
func BenchmarkScanChip(b *testing.B) {
	m, err := variation.NewModel(variation.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	chips := m.GenerateFleet(256)
	tbl := benchVT{power.DefaultTable()}
	tester := profiling.NewTester(chips, tbl, 0, rng.Named(1, "bench"))
	sc, err := profiling.NewScanner(profiling.DefaultConfig(), tester, tbl, profiling.NewDB(len(chips), tbl.NumLevels()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ScanChip(i%len(chips), 0)
	}
}

type benchVT struct{ *power.Table }

func (t benchVT) VnomAt(l int) units.Volts { return t.Levels[l].Vnom }

// BenchmarkSimulationRun measures one complete ScanFair simulation at
// quick scale (fleet build excluded).
func BenchmarkSimulationRun(b *testing.B) {
	fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(1, 96))
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := SynthesizeWorkload(2, 240, 64, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	w, err := GenerateWind(3, 3)
	if err != nil {
		b.Fatal(err)
	}
	w = w.Scale(96.0 / 4800.0)
	sch, _ := scheduler.SchemeByName("ScanFair")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduler.Run(fleet, sch, scheduler.RunConfig{Seed: uint64(i), Jobs: jobs, Wind: w}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationRunLarge is the fleet-scale tier: one complete
// ScanFair simulation with rebalancing at the paper's 4,800-proc
// datacenter size, swept over worker counts. The 48,000-proc and
// million-proc decade-up sub-benchmarks are skipped under -short so PR
// CI runs the 4,800 tier and the nightly workflow runs the rest.
// Because results are bit-identical for every worker count (see
// internal/scheduler/parallel.go), the sweep measures only the
// sharding speedup, never a behaviour change. The million-proc tier
// exists to exercise the structure-of-arrays cluster state, the
// calendar event queue and the incremental order maintenance at the
// scale they were built for; its job count is sub-proportional so a
// rep stays within a nightly-runner budget. Each tier builds its fleet,
// trace and wind inside its own sub-benchmark, so a -bench pattern
// that filters a tier out also skips building its inputs.
func BenchmarkSimulationRunLarge(b *testing.B) {
	for _, size := range []struct {
		procs, jobs int
		short       bool
	}{
		{procs: 4800, jobs: 12000, short: false},
		{procs: 48000, jobs: 120000, short: true},
		{procs: 1_000_000, jobs: 250_000, short: true},
	} {
		if size.short && testing.Short() {
			continue
		}
		b.Run(fmt.Sprintf("procs=%d", size.procs), func(b *testing.B) {
			fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(1, size.procs))
			if err != nil {
				b.Fatal(err)
			}
			jobs, err := SynthesizeWorkload(2, size.jobs, 64, 1, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			w, err := GenerateWind(3, 1)
			if err != nil {
				b.Fatal(err)
			}
			w = w.Scale(float64(size.procs) / 4800.0)
			sch, _ := scheduler.SchemeByName("ScanFair")
			workerSweep := []int{1, 2, 4, 8}
			if size.short {
				workerSweep = []int{1, 8}
			}
			for _, workers := range workerSweep {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					cfg := scheduler.RunConfig{
						Seed:            1,
						Jobs:            jobs,
						Wind:            w,
						EnableRebalance: true,
						Workers:         workers,
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := scheduler.Run(fleet, sch, cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkSnapshot measures a run snapshot's encode and restore at
// 4,800 and 48,000 procs on perfbench's batch input (seed 1): a day of
// 12,000 jobs of up to 64 procs at a 30% HU share, over wind whose mean
// covers half the fleet's peak demand, snapshotted before the first
// event past virtual 12 h. encode is Stepper.Snapshot; restore is
// NewStepper with Resume, so it includes the construction a resume
// cannot skip. Both report the snapshot's size as snapshot_bytes.
func BenchmarkSnapshot(b *testing.B) {
	for _, tier := range []struct{ procs, workers int }{{4800, 1}, {48000, 2}} {
		b.Run(fmt.Sprintf("procs=%d", tier.procs), func(b *testing.B) {
			fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(1, tier.procs))
			if err != nil {
				b.Fatal(err)
			}
			jobs, err := SynthesizeWorkload(1, 12000, 64, 1, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			w, err := GenerateWind(3, 4)
			if err != nil {
				b.Fatal(err)
			}
			cfg := scheduler.RunConfig{
				Seed:            1,
				Jobs:            jobs,
				Wind:            w.Scale(0.5 * float64(fleet.PeakDemand()) / float64(w.Mean())),
				EnableRebalance: true,
				Workers:         tier.workers,
			}
			sch, _ := scheduler.SchemeByName("ScanFair")
			st, err := scheduler.NewStepper(fleet, sch, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			st.Seal()
			for {
				at, ok := st.PeekNextEventTime()
				if !ok || at > units.Hours(12) {
					break
				}
				if _, err := st.ProcessEventBatch(); err != nil {
					b.Fatal(err)
				}
			}
			snap, err := st.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.Run("encode", func(b *testing.B) {
				b.ReportMetric(float64(len(snap)), "snapshot_bytes")
				for i := 0; i < b.N; i++ {
					if _, err := st.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("restore", func(b *testing.B) {
				b.ReportMetric(float64(len(snap)), "snapshot_bytes")
				re := cfg
				re.Resume = snap
				for i := 0; i < b.N; i++ {
					rs, err := scheduler.NewStepper(fleet, sch, re)
					if err != nil {
						b.Fatal(err)
					}
					rs.Close()
				}
			})
		})
	}
}

// BenchmarkFleetGeneration measures chip generation throughput.
func BenchmarkFleetGeneration(b *testing.B) {
	m, err := variation.NewModel(variation.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GenerateChip(i)
	}
}

// BenchmarkBuildFleet measures a whole fleet build (chip generation,
// factory binning and the full iScope scan) at the paper's 4,800 procs
// and at 48,000.
func BenchmarkBuildFleet(b *testing.B) {
	for _, procs := range []int{4800, 48000} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(1, procs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblations runs the full design-choice ablation suite
// (guardband, theta, bin granularity, matching, battery, oracle,
// aging) at quick scale.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(experiments.QuickOptions(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindGeneration measures renewable trace synthesis.
func BenchmarkWindGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWind(uint64(i), 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadSynthesis measures Thunder-like trace generation.
func BenchmarkWorkloadSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeWorkload(uint64(i), 2000, 512, 2, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
