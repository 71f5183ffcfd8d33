package scheduler

import (
	"math"
	"slices"
	"sort"
	"testing"

	"iscope/internal/metrics"
	"iscope/internal/rng"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/wind"
	"iscope/internal/workload"
)

// testFleet builds a small shared fleet for scheduler tests.
func testFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	f, err := BuildFleet(DefaultFleetSpec(7, n))
	if err != nil {
		t.Fatalf("BuildFleet: %v", err)
	}
	return f
}

// testJobs synthesizes a deadline-assigned trace sized for the test
// fleet (the shared grid builder, see internal/scheduler/testgrid).
func testJobs(t *testing.T, seed uint64, jobs int, huFrac float64) *workload.Trace {
	t.Helper()
	return testgrid.Jobs(t, seed, jobs, huFrac)
}

// testWind generates a wind trace scaled so its mean covers roughly
// half the fleet's full-power demand.
func testWind(t *testing.T, fleet *Fleet, seed uint64) *wind.Trace {
	t.Helper()
	return testgrid.Wind(t, seed, fleet.PeakDemand())
}

func run(t *testing.T, fleet *Fleet, name string, cfg RunConfig) *Result {
	t.Helper()
	sch, ok := SchemeByName(name)
	if !ok {
		t.Fatalf("unknown scheme %q", name)
	}
	res, err := Run(fleet, sch, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return res
}

func TestSchemesTable2(t *testing.T) {
	s := Schemes()
	want := []string{"BinRan", "BinEffi", "ScanRan", "ScanEffi", "ScanFair"}
	if len(s) != len(want) {
		t.Fatalf("schemes = %d, want %d", len(s), len(want))
	}
	for i, sch := range s {
		if sch.Name != want[i] {
			t.Errorf("scheme %d = %s, want %s", i, sch.Name, want[i])
		}
		if profiled := sch.Name[:3] == "Sca"; profiled != sch.Profiled() {
			t.Errorf("scheme %s Profiled=%v inconsistent with name", sch.Name, sch.Profiled())
		}
	}
	if _, ok := SchemeByName("BinFair"); !ok {
		t.Error("ablation scheme BinFair missing")
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Error("unknown scheme resolved")
	}
}

func TestPolicyStrings(t *testing.T) {
	if Random.String() != "Ran" || Efficiency.String() != "Effi" || FairPolicy.String() != "Fair" {
		t.Error("policy names wrong")
	}
}

func TestBuildFleetValidation(t *testing.T) {
	if _, err := BuildFleet(FleetSpec{NumProcs: 0}); err == nil {
		t.Error("expected error for zero procs")
	}
}

func TestScanKnowledgeSafeAndBelowNominal(t *testing.T) {
	fleet := testFleet(t, 40)
	k, err := fleet.Knowledge(KnowScan)
	if err != nil {
		t.Fatal(err)
	}
	tbl := fleet.PM.Table
	for id, ch := range fleet.Chips {
		for l := 0; l < tbl.NumLevels(); l++ {
			v := float64(k.Vdd(id, l))
			vnom := float64(tbl.Levels[l].Vnom)
			trueMin := ch.MinVdd(l, vnom, false)
			if v < trueMin-1e-12 {
				t.Fatalf("chip %d level %d: scan voltage %.4f below true MinVdd %.4f", id, l, v, trueMin)
			}
			if v > vnom+1e-12 {
				t.Fatalf("chip %d level %d: scan voltage above nominal", id, l)
			}
		}
	}
}

func TestScanVoltageBelowBinVoltage(t *testing.T) {
	// The premise of the paper: scanning recovers guardband the bins
	// leave on the table. On average scan voltage must be clearly lower.
	fleet := testFleet(t, 100)
	kScan, _ := fleet.Knowledge(KnowScan)
	kBin, _ := fleet.Knowledge(KnowBin)
	var scanSum, binSum float64
	n := 0
	for id := range fleet.Chips {
		for l := 0; l < fleet.PM.Table.NumLevels(); l++ {
			scanSum += float64(kScan.Vdd(id, l))
			binSum += float64(kBin.Vdd(id, l))
			n++
		}
	}
	if scanSum >= binSum {
		t.Fatalf("mean scan voltage %.4f not below mean bin voltage %.4f", scanSum/float64(n), binSum/float64(n))
	}
	saving := 1 - scanSum/binSum
	if saving < 0.02 || saving > 0.12 {
		t.Errorf("voltage saving = %.1f%%, want the paper's ~5%% ballpark (2-12%%)", 100*saving)
	}
}

func TestBinKnowledgeEstimateIsConservative(t *testing.T) {
	fleet := testFleet(t, 60)
	k, _ := fleet.Knowledge(KnowBin)
	bk := k.(*BinKnowledge)
	for id, ch := range fleet.Chips {
		for l := 0; l < fleet.PM.Table.NumLevels(); l++ {
			truth := fleet.PM.CPUPower(ch.Alpha, ch.Beta, l, k.Vdd(id, l))
			if est := bk.EstPower(id, l); est < truth-1e-9 {
				t.Fatalf("bin estimate %v below actual %v (chip %d level %d)", est, truth, id, l)
			}
		}
	}
}

func TestEffOrderSorted(t *testing.T) {
	fleet := testFleet(t, 80)
	k, _ := fleet.Knowledge(KnowScan)
	order := effOrder(80, k, make([]int, 80))
	for i := 1; i < len(order); i++ {
		if k.EffRank(order[i-1]) > k.EffRank(order[i]) {
			t.Fatalf("effOrder not sorted at %d", i)
		}
	}
	seen := make([]bool, 80)
	for _, id := range order {
		if seen[id] {
			t.Fatal("effOrder repeats a processor")
		}
		seen[id] = true
	}
}

// effOrderStable is effOrder as it was built on sort.SliceStable, kept
// as the oracle of the keyed sort.
func effOrderStable(n int, k Knowledge, tiebreak []int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	pos := make([]int, n)
	for i, id := range tiebreak {
		pos[id] = i
	}
	rank := make([]float64, n)
	for i := 0; i < n; i++ {
		rank[i] = k.EffRank(i)
	}
	sort.SliceStable(out, func(a, b int) bool {
		ra, rb := rank[out[a]], rank[out[b]]
		if ra != rb {
			return ra < rb
		}
		return pos[out[a]] < pos[out[b]]
	})
	return out
}

// TestEffOrderMatchesStableSort checks the keyed sort against the
// stable-sort oracle for bin knowledge (whole bins tie) and scan
// knowledge, under a permutation tiebreak and an all-zero one.
func TestEffOrderMatchesStableSort(t *testing.T) {
	const n = 300
	fleet := testFleet(t, n)
	for _, kind := range []KnowledgeKind{KnowBin, KnowScan} {
		k, err := fleet.Knowledge(kind)
		if err != nil {
			t.Fatal(err)
		}
		for name, tiebreak := range map[string][]int{
			"permutation": rng.New(9, 1).Perm(n),
			"zero":        make([]int, n),
		} {
			if got, want := effOrder(n, k, tiebreak), effOrderStable(n, k, tiebreak); !slices.Equal(got, want) {
				t.Errorf("%s knowledge, %s tiebreak: keyed order %v, stable sort %v", k.Name(), name, got, want)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	fleet := testFleet(t, 10)
	jobs := testJobs(t, 1, 20, 0.3)
	if _, err := Run(nil, Schemes()[0], RunConfig{Jobs: jobs}); err == nil {
		t.Error("expected error for nil fleet")
	}
	if _, err := Run(fleet, Schemes()[0], RunConfig{}); err == nil {
		t.Error("expected error for missing jobs")
	}
	if _, err := Run(fleet, Schemes()[0], RunConfig{Jobs: jobs, COP: -1}); err == nil {
		t.Error("expected error for negative COP")
	}
}

func TestUtilityOnlyRunCompletes(t *testing.T) {
	fleet := testFleet(t, 48)
	jobs := testJobs(t, 2, 200, 0.3)
	res := run(t, fleet, "BinRan", RunConfig{Seed: 1, Jobs: jobs})
	if res.JobsCompleted != 200 {
		t.Fatalf("completed %d jobs, want 200", res.JobsCompleted)
	}
	if res.WindEnergy != 0 || res.WindAvailable != 0 {
		t.Fatal("utility-only run consumed wind energy")
	}
	if res.UtilityEnergy <= 0 {
		t.Fatal("no utility energy consumed")
	}
	if math.Abs(float64(res.TotalEnergy-res.UtilityEnergy)) > 1 {
		t.Fatal("total != utility in utility-only run")
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if len(res.UtilTimes) != 48 {
		t.Fatalf("util times = %d, want 48", len(res.UtilTimes))
	}
}

func TestRunDeterministic(t *testing.T) {
	fleet := testFleet(t, 32)
	jobs := testJobs(t, 3, 150, 0.4)
	w := testWind(t, fleet, 11)
	a := run(t, fleet, "ScanFair", RunConfig{Seed: 5, Jobs: jobs, Wind: w})
	b := run(t, fleet, "ScanFair", RunConfig{Seed: 5, Jobs: jobs, Wind: w})
	if a.UtilityEnergy != b.UtilityEnergy || a.WindEnergy != b.WindEnergy ||
		a.Makespan != b.Makespan || a.DeadlineViolations != b.DeadlineViolations {
		t.Fatalf("identical runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.UtilTimes {
		if a.UtilTimes[i] != b.UtilTimes[i] {
			t.Fatalf("util time %d differs", i)
		}
	}
}

func TestEffiBeatsRanOnUtilityEnergy(t *testing.T) {
	fleet := testFleet(t, 48)
	jobs := testJobs(t, 4, 250, 0.2)
	ran := run(t, fleet, "BinRan", RunConfig{Seed: 2, Jobs: jobs})
	effi := run(t, fleet, "BinEffi", RunConfig{Seed: 2, Jobs: jobs})
	if effi.UtilityEnergy >= ran.UtilityEnergy {
		t.Fatalf("BinEffi (%v) did not beat BinRan (%v) on utility energy",
			effi.UtilityEnergy, ran.UtilityEnergy)
	}
}

func TestScanBeatsBinByRoughlyTenPercent(t *testing.T) {
	// Figure 5: "Scan schemes outperform Bin schemes by roughly 10%".
	fleet := testFleet(t, 48)
	jobs := testJobs(t, 5, 250, 0.2)
	bin := run(t, fleet, "BinEffi", RunConfig{Seed: 3, Jobs: jobs})
	scan := run(t, fleet, "ScanEffi", RunConfig{Seed: 3, Jobs: jobs})
	saving := 1 - float64(scan.UtilityEnergy)/float64(bin.UtilityEnergy)
	if saving < 0.03 || saving > 0.25 {
		t.Fatalf("Scan-over-Bin energy saving = %.1f%%, want roughly 10%% (3-25%%)", 100*saving)
	}
}

func TestWindRunSplitsEnergy(t *testing.T) {
	fleet := testFleet(t, 48)
	jobs := testJobs(t, 6, 200, 0.3)
	w := testWind(t, fleet, 13)
	res := run(t, fleet, "ScanEffi", RunConfig{Seed: 4, Jobs: jobs, Wind: w})
	if res.WindEnergy <= 0 {
		t.Fatal("wind run consumed no wind energy")
	}
	if res.WindEnergy > res.WindAvailable {
		t.Fatal("consumed more wind than available")
	}
	if math.Abs(float64(res.TotalEnergy-(res.WindEnergy+res.UtilityEnergy))) > 1 {
		t.Fatal("energy split does not sum to total")
	}
	if res.WindUtilization <= 0 || res.WindUtilization > 1 {
		t.Fatalf("wind utilization = %v outside (0,1]", res.WindUtilization)
	}
	wantCost := res.WindEnergy.Cost(0.05) + res.UtilityEnergy.Cost(0.13)
	if math.Abs(float64(res.Cost-wantCost)) > 1e-6 {
		t.Fatalf("cost = %v, want %v", res.Cost, wantCost)
	}
}

func TestWindReducesUtilityEnergy(t *testing.T) {
	fleet := testFleet(t, 48)
	jobs := testJobs(t, 7, 200, 0.3)
	w := testWind(t, fleet, 17)
	dry := run(t, fleet, "ScanEffi", RunConfig{Seed: 5, Jobs: jobs})
	wet := run(t, fleet, "ScanEffi", RunConfig{Seed: 5, Jobs: jobs, Wind: w})
	if wet.UtilityEnergy >= dry.UtilityEnergy {
		t.Fatalf("wind did not reduce utility energy: %v >= %v", wet.UtilityEnergy, dry.UtilityEnergy)
	}
}

func TestMatchingReducesUtilityEnergy(t *testing.T) {
	// The DVFS supply-tracking loop should cut grid consumption
	// compared with running every slice at its assigned level.
	fleet := testFleet(t, 48)
	jobs := testJobs(t, 8, 200, 0.2)
	w := testWind(t, fleet, 19)
	on := run(t, fleet, "ScanEffi", RunConfig{Seed: 6, Jobs: jobs, Wind: w})
	off := run(t, fleet, "ScanEffi", RunConfig{Seed: 6, Jobs: jobs, Wind: w, DisableMatching: true})
	if on.UtilityEnergy > off.UtilityEnergy {
		t.Fatalf("matching increased utility energy: %v > %v", on.UtilityEnergy, off.UtilityEnergy)
	}
}

func TestFairBalancesUtilization(t *testing.T) {
	// Figure 9: Effi variance >> Fair variance; Ran lowest.
	fleet := testFleet(t, 48)
	jobs := testJobs(t, 9, 300, 0.2)
	w := testWind(t, fleet, 23).Scale(1.4)
	effi := run(t, fleet, "ScanEffi", RunConfig{Seed: 7, Jobs: jobs, Wind: w})
	fair := run(t, fleet, "ScanFair", RunConfig{Seed: 7, Jobs: jobs, Wind: w})
	ran := run(t, fleet, "ScanRan", RunConfig{Seed: 7, Jobs: jobs, Wind: w})
	if fair.UtilVariance >= effi.UtilVariance {
		t.Fatalf("ScanFair variance %v not below ScanEffi %v", fair.UtilVariance, effi.UtilVariance)
	}
	if ran.UtilVariance >= effi.UtilVariance {
		t.Fatalf("ScanRan variance %v not below ScanEffi %v", ran.UtilVariance, effi.UtilVariance)
	}
}

func TestSamplerProducesTrace(t *testing.T) {
	fleet := testFleet(t, 32)
	jobs := testJobs(t, 10, 100, 0.3)
	w := testWind(t, fleet, 29)
	res := run(t, fleet, "ScanFair", RunConfig{
		Seed: 8, Jobs: jobs, Wind: w, SampleInterval: metrics.DefaultSampleInterval,
	})
	if len(res.Trace) == 0 {
		t.Fatal("no trace points sampled")
	}
	for i, p := range res.Trace {
		if i > 0 && p.Time <= res.Trace[i-1].Time {
			t.Fatal("trace not strictly increasing in time")
		}
		wantUtil := float64(p.Demand - p.Wind)
		if wantUtil < 0 {
			wantUtil = 0
		}
		if math.Abs(float64(p.Utility)-wantUtil) > 1e-6 {
			t.Fatalf("trace point %d utility inconsistent", i)
		}
	}
}

func TestDeadlinesMostlyMet(t *testing.T) {
	// Moderate load: violations only happen when an arrival burst
	// saturates the whole fleet past a job's deadline.
	fleet := testFleet(t, 64)
	jobs := testJobs(t, 11, 120, 0.3)
	res := run(t, fleet, "ScanEffi", RunConfig{Seed: 9, Jobs: jobs})
	if frac := float64(res.DeadlineViolations) / float64(res.JobsCompleted); frac > 0.05 {
		t.Fatalf("deadline violations = %.1f%%, want under 5%%", 100*frac)
	}
}

func TestJobsWiderThanFleetClamped(t *testing.T) {
	fleet := testFleet(t, 8)
	tr := &workload.Trace{Jobs: []workload.Job{
		{ID: 1, Submit: 0, Procs: 100, Runtime: 500, Boundness: 0.9},
	}}
	if err := tr.AssignDeadlines(workload.DefaultDeadlines(1, 0)); err != nil {
		t.Fatal(err)
	}
	res := run(t, fleet, "BinRan", RunConfig{Seed: 10, Jobs: tr})
	if res.JobsCompleted != 1 {
		t.Fatal("oversized job did not complete")
	}
}

func TestFairThetaExtremes(t *testing.T) {
	fleet := testFleet(t, 32)
	jobs := testJobs(t, 12, 120, 0.3)
	w := testWind(t, fleet, 31)
	// theta = +Inf: wind never "abundant" -> behaves like ScanEffi.
	hi := run(t, fleet, "ScanFair", RunConfig{Seed: 11, Jobs: jobs, Wind: w, FairTheta: math.Inf(1)})
	effi := run(t, fleet, "ScanEffi", RunConfig{Seed: 11, Jobs: jobs, Wind: w})
	if hi.UtilityEnergy != effi.UtilityEnergy {
		t.Fatalf("theta=inf ScanFair (%v) != ScanEffi (%v)", hi.UtilityEnergy, effi.UtilityEnergy)
	}
}

func TestScanFleetReportPopulated(t *testing.T) {
	fleet := testFleet(t, 16)
	if fleet.ScanReport.Chips != 16 || fleet.ScanReport.Energy <= 0 {
		t.Fatalf("scan report incomplete: %+v", fleet.ScanReport)
	}
	for id := range fleet.Chips {
		if !fleet.DB.FullyProfiled(id) {
			t.Fatalf("chip %d not fully profiled by BuildFleet", id)
		}
	}
}
