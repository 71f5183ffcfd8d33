package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestOptionsValidation(t *testing.T) {
	if err := (Options{}).validate(); err == nil {
		t.Error("zero options should be invalid")
	}
	if err := QuickOptions(1).validate(); err != nil {
		t.Errorf("quick options invalid: %v", err)
	}
	if PaperOptions(1).NumProcs != 4800 {
		t.Error("paper options must model 4800 CPUs")
	}
}

func TestMaxJobWidth(t *testing.T) {
	cases := map[int]int{4800: 4096, 960: 512, 96: 64, 12: 8}
	for procs, want := range cases {
		if got := maxJobWidth(procs); got != want {
			t.Errorf("maxJobWidth(%d) = %d, want %d", procs, got, want)
		}
	}
}

func TestFig4MatchesPaperStatistics(t *testing.T) {
	r, err := Fig4(QuickOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.GPUOff) != 16 || len(r.GPUOn) != 16 {
		t.Fatalf("expected 16 cores, got %d/%d", len(r.GPUOff), len(r.GPUOn))
	}
	// Single 16-core draw: allow generous tolerance around the paper's
	// means (the calibration test in internal/variation pins the
	// population mean tightly).
	if math.Abs(float64(r.MeanOff)-1.219) > 0.012 {
		t.Errorf("GPU-off mean = %.4f, want ~1.219", float64(r.MeanOff))
	}
	if math.Abs(float64(r.MeanOn)-1.232) > 0.012 {
		t.Errorf("GPU-on mean = %.4f, want ~1.232", float64(r.MeanOn))
	}
	if r.MeanOn <= r.MeanOff {
		t.Error("GPU-on mean must exceed GPU-off mean")
	}
	if r.MinOff < 1.16 || r.MaxOff > 1.27 {
		t.Errorf("GPU-off range [%.4f, %.4f] implausible vs paper's [1.19, 1.25]",
			float64(r.MinOff), float64(r.MaxOff))
	}
	if r.ScanPoints == 0 {
		t.Error("scanner was not exercised")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "chip3/core3") {
		t.Error("rendered table missing final core")
	}
}

func TestFig5Shapes(t *testing.T) {
	r, err := Fig5(QuickOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HU) != len(HUSweep) || len(r.Rate) != len(RateSweep) {
		t.Fatalf("sweep sizes wrong: %d/%d", len(r.HU), len(r.Rate))
	}
	for _, row := range r.HU {
		for name, kwh := range row.Utility {
			if kwh <= 0 {
				t.Fatalf("HU %.2f %s utility energy %.2f not positive", row.X, name, kwh)
			}
		}
		if row.Wind["BinRan"] != 0 {
			t.Fatal("utility-only sweep consumed wind")
		}
		// Effi beats Ran at every point (paper: "Effi schemes are always
		// better than Ran schemes").
		if row.Utility["BinEffi"] >= row.Utility["BinRan"] {
			t.Errorf("HU %.2f: BinEffi (%.1f) not below BinRan (%.1f)",
				row.X, row.Utility["BinEffi"], row.Utility["BinRan"])
		}
		if row.Utility["ScanEffi"] >= row.Utility["ScanRan"] {
			t.Errorf("HU %.2f: ScanEffi not below ScanRan", row.X)
		}
		// Scan beats Bin ~10%.
		saving := 1 - row.Utility["ScanEffi"]/row.Utility["BinEffi"]
		if saving < 0.02 || saving > 0.30 {
			t.Errorf("HU %.2f: Scan-over-Bin saving %.1f%% outside (2%%, 30%%)", row.X, 100*saving)
		}
	}
	// Effi energy grows with arrival rate; Ran stays comparatively flat
	// (paper Figure 5(B)).
	effiGrowth := r.Rate[len(r.Rate)-1].Utility["ScanEffi"] / r.Rate[0].Utility["ScanEffi"]
	ranGrowth := r.Rate[len(r.Rate)-1].Utility["ScanRan"] / r.Rate[0].Utility["ScanRan"]
	if effiGrowth <= ranGrowth {
		t.Errorf("Effi growth %.3f not above Ran growth %.3f with arrival rate", effiGrowth, ranGrowth)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5(B)") {
		t.Error("render missing panel B")
	}
}

func TestFig6Shapes(t *testing.T) {
	r, err := Fig6(QuickOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.HU {
		for name := range row.Wind {
			if row.Wind[name] <= 0 {
				t.Fatalf("scheme %s consumed no wind at HU %.2f", name, row.X)
			}
		}
	}
	// Higher arrival rate -> less wind energy (shorter completion),
	// more utility energy (paper Figure 6(B)(D)). The falling-wind
	// direction holds for the Ran and Fair schemes; the Effi schemes
	// deviate in our model because their total energy grows steeply
	// with rate (see EXPERIMENTS.md, "known deviation").
	first, last := r.Rate[0], r.Rate[len(r.Rate)-1]
	for _, name := range []string{"ScanRan", "ScanFair"} {
		if last.Wind[name] >= first.Wind[name] {
			t.Errorf("%s wind energy did not fall with arrival rate (%.1f -> %.1f)",
				name, first.Wind[name], last.Wind[name])
		}
	}
	for _, name := range []string{"ScanRan", "ScanEffi", "ScanFair"} {
		if last.Utility[name] <= first.Utility[name] {
			t.Errorf("%s utility energy did not rise with arrival rate (%.1f -> %.1f)",
				name, first.Utility[name], last.Utility[name])
		}
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig7Traces(t *testing.T) {
	r, err := Fig7(QuickOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Fig7Schemes {
		pts := r.Traces[name]
		if len(pts) < 10 {
			t.Fatalf("%s trace has only %d points", name, len(pts))
		}
	}
	// ScanFair must track the wind budget better than ScanEffi when wind
	// is high: its total wind usage should be at least as large.
	usage := func(name string) float64 {
		var used float64
		for _, p := range r.Traces[name] {
			w := math.Min(float64(p.Demand), float64(p.Wind))
			used += w
		}
		return used
	}
	if usage("ScanFair") < usage("ScanEffi") {
		t.Errorf("ScanFair wind tracking (%.0f) below ScanEffi (%.0f)",
			usage("ScanFair"), usage("ScanEffi"))
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig8CostOrdering(t *testing.T) {
	r, err := Fig8(QuickOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	// No wind: variation-aware schemes beat BinRan.
	for _, name := range []string{"BinEffi", "ScanEffi", "ScanFair"} {
		if r.NoWindCost[name] >= r.NoWindCost["BinRan"] {
			t.Errorf("no-wind: %s (%v) not below BinRan (%v)", name, r.NoWindCost[name], r.NoWindCost["BinRan"])
		}
	}
	// ScanEffi beats BinEffi (paper: 9%).
	if r.ScanEffiVsBinEffiNoWind < 0.02 {
		t.Errorf("ScanEffi-over-BinEffi saving = %.1f%%, want clearly positive", 100*r.ScanEffiVsBinEffiNoWind)
	}
	// With wind, ScanFair saves substantially on utility cost vs BinRan.
	if r.ScanFairVsBinRanUtility < 0.15 {
		t.Errorf("ScanFair utility-cost saving = %.1f%%, want >= 15%% (paper: up to 54%%)",
			100*r.ScanFairVsBinRanUtility)
	}
	if r.ScanFairVsBinRanTotal <= 0 {
		t.Errorf("ScanFair total-cost saving = %.1f%%, want positive (paper: 30.7%%)",
			100*r.ScanFairVsBinRanTotal)
	}
	// ScanEffi incurs the lowest wind-case utility cost of all schemes
	// except possibly ScanFair.
	for _, name := range []string{"BinRan", "BinEffi", "ScanRan"} {
		if r.WindUtilityCost["ScanEffi"] > r.WindUtilityCost[name] {
			t.Errorf("wind: ScanEffi utility cost above %s", name)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paper: 30.7%") {
		t.Error("render missing paper reference")
	}
}

func TestFig9VarianceOrdering(t *testing.T) {
	r, err := Fig9(QuickOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(SWPSweep) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(SWPSweep))
	}
	for _, row := range r.Rows {
		// Effi variance far above Ran; Fair in between (paper Figure 9).
		if row.Variance["ScanEffi"] <= row.Variance["ScanRan"] {
			t.Errorf("SWP %.1f: Effi variance not above Ran", row.SWP)
		}
		if row.Variance["ScanFair"] >= row.Variance["ScanEffi"] {
			t.Errorf("SWP %.1f: Fair variance not below Effi", row.SWP)
		}
	}
	// ScanFair's variance falls as wind grows (more room for fairness).
	if r.Rows[len(r.Rows)-1].Variance["ScanFair"] >= r.Rows[0].Variance["ScanFair"] {
		t.Errorf("ScanFair variance did not fall with wind strength: %.2f -> %.2f",
			r.Rows[0].Variance["ScanFair"], r.Rows[len(r.Rows)-1].Variance["ScanFair"])
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig10ProfileAndOverhead(t *testing.T) {
	r, err := Fig10(QuickOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if r.FracBelow30 <= 0.05 || r.FracBelow30 >= 0.95 {
		t.Errorf("FracBelow30 = %.2f, want an interior value (paper: 0.272)", r.FracBelow30)
	}
	if len(r.Windows) == 0 || r.WindowTotal <= 0 {
		t.Error("no profiling windows found")
	}
	if len(r.Overhead) != 2 {
		t.Fatalf("overhead rows = %d, want 2", len(r.Overhead))
	}
	for _, row := range r.Overhead {
		if row.Energy <= 0 || row.RenewableCost <= 0 {
			t.Errorf("%s overhead row empty", row.Test)
		}
	}
	// Paper's Section VI.E numbers.
	stress, functional := r.Overhead[0], r.Overhead[1]
	if math.Abs(float64(stress.RenewableCost)-230) > 1 {
		t.Errorf("stress renewable cost = %v, want ~$230", stress.RenewableCost)
	}
	if math.Abs(float64(stress.UtilityCost)-598) > 2 {
		t.Errorf("stress utility cost = %v, want ~$598", stress.UtilityCost)
	}
	if math.Abs(float64(functional.RenewableCost)-11.2) > 0.2 {
		t.Errorf("functional renewable cost = %v, want ~$11.2", functional.RenewableCost)
	}
	if math.Abs(float64(functional.UtilityCost)-28.9) > 0.5 {
		t.Errorf("functional utility cost = %v, want ~$28.9", functional.UtilityCost)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable1(&buf); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"6376", "6378", "6380"} {
		if !strings.Contains(buf.String(), model) {
			t.Errorf("Table 1 missing %s", model)
		}
	}
	buf.Reset()
	if err := WriteTable2(&buf); err != nil {
		t.Fatal(err)
	}
	for _, s := range Table2() {
		if !strings.Contains(buf.String(), s.Name) {
			t.Errorf("Table 2 missing %s", s.Name)
		}
	}
}

func TestOnlineStudy(t *testing.T) {
	r, err := OnlineStudy(QuickOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	if r.PreScanKWh >= r.BinKWh {
		t.Fatalf("pre-scanned (%v) not below Bin (%v)", r.PreScanKWh, r.BinKWh)
	}
	if r.OnlineKWh < r.PreScanKWh {
		t.Fatalf("online run (%v) below the pre-scanned bound (%v)", r.OnlineKWh, r.PreScanKWh)
	}
	if r.ProfiledChips == 0 {
		t.Fatal("online run profiled nothing")
	}
	if r.CapturedFrac <= 0 || r.CapturedFrac > 1.001 {
		t.Fatalf("captured fraction %.2f outside (0,1]", r.CapturedFrac)
	}
	if r.PaybackDays <= 0 {
		t.Fatalf("payback horizon %.2f days not positive", r.PaybackDays)
	}
	if r.OnlineWorkKWh < r.PreScanKWh-0.5 {
		t.Fatalf("online work energy (%v) below the pre-scanned bound (%v)", r.OnlineWorkKWh, r.PreScanKWh)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "captured") {
		t.Error("render missing capture line")
	}
}

func TestPerCoreStudy(t *testing.T) {
	r, err := PerCoreStudy(QuickOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 levels", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Finer supply granularity can only reduce power.
		if !(row.PerCoreW <= row.SharedW && row.SharedW <= row.GlobalW) {
			t.Fatalf("level %d: granularity ordering violated: %.1f / %.1f / %.1f",
				row.Level, row.GlobalW, row.SharedW, row.PerCoreW)
		}
	}
	if r.SharedVsGlobal <= 0 || r.PerCoreVsShared <= 0 {
		t.Fatalf("savings not positive: %+v", r)
	}
	// Per-chip scanning must recover most of the variation; per-core
	// adds a smaller refinement (worst-of-4 vs own core).
	if r.PerCoreVsShared >= r.SharedVsGlobal {
		t.Errorf("per-core gain (%.3f) exceeds per-chip gain (%.3f): variation model suspect",
			r.PerCoreVsShared, r.SharedVsGlobal)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "per-core domains") {
		t.Error("render missing summary")
	}
}
