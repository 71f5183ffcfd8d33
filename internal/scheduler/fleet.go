package scheduler

import (
	"fmt"

	"iscope/internal/binning"
	"iscope/internal/power"
	"iscope/internal/profiling"
	"iscope/internal/rng"
	"iscope/internal/units"
	"iscope/internal/variation"
)

// FleetSpec describes the hardware population. The same Fleet is shared
// by every scheme in an experiment so comparisons see identical silicon.
type FleetSpec struct {
	Seed      uint64
	NumProcs  int
	Variation variation.Config // zero value -> variation.DefaultConfig(Seed)
	Bins      int              // 0 -> binning.DefaultBins

	Scan      profiling.Config // zero Kind/fields -> profiling.DefaultConfig()
	ScanNoise float64          // measurement noise sigma in volts
}

// DefaultFleetSpec is the paper's 4800-CPU datacenter, scaled by
// numProcs for tractable experiments.
func DefaultFleetSpec(seed uint64, numProcs int) FleetSpec {
	return FleetSpec{Seed: seed, NumProcs: numProcs}
}

// Fleet is the built hardware population: ground-truth chips, the power
// model, the factory binning, and a completed scan database.
type Fleet struct {
	Chips   []*variation.Chip
	PM      *power.Model
	Binning *binning.Binning
	DB      *profiling.DB
	// ScanReport records the cost of the initial full-fleet scan.
	ScanReport profiling.FleetReport
}

// scanTable adapts power.Table to profiling.VoltageTable.
type scanTable struct{ *power.Table }

func (t scanTable) VnomAt(l int) units.Volts { return t.Levels[l].Vnom }

// BuildFleet generates the chips, bins them in the factory, and runs a
// full iScope scan so both knowledge regimes are available.
func BuildFleet(spec FleetSpec) (*Fleet, error) {
	if spec.NumProcs <= 0 {
		return nil, fmt.Errorf("scheduler: NumProcs must be positive")
	}
	vcfg := spec.Variation
	if vcfg.CoresPerChip == 0 {
		vcfg = variation.DefaultConfig(spec.Seed)
	}
	tbl := power.DefaultTable()
	if vcfg.NumLevels != tbl.NumLevels() {
		return nil, fmt.Errorf("scheduler: variation has %d levels, DVFS table %d", vcfg.NumLevels, tbl.NumLevels())
	}
	model, err := variation.NewModel(vcfg)
	if err != nil {
		return nil, err
	}
	pm, err := power.NewModel(tbl)
	if err != nil {
		return nil, err
	}
	chips := model.GenerateFleet(spec.NumProcs)

	bins := spec.Bins
	if bins == 0 {
		bins = binning.DefaultBins
	}
	bn, err := binning.Assign(chips, tbl, bins, binning.DefaultFactoryGuard)
	if err != nil {
		return nil, err
	}

	scanCfg := spec.Scan
	if scanCfg.VoltagePoints == 0 {
		scanCfg = profiling.DefaultConfig()
	}
	tester := profiling.NewTester(chips, scanTable{tbl}, spec.ScanNoise, rng.Named(spec.Seed, "scan-noise"))
	db := profiling.NewDB(len(chips), tbl.NumLevels())
	scanner, err := profiling.NewScanner(scanCfg, tester, scanTable{tbl}, db)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(chips))
	for i := range ids {
		ids[i] = i
	}
	rep := scanner.ScanFleet(ids, 0)

	return &Fleet{Chips: chips, PM: pm, Binning: bn, DB: db, ScanReport: rep}, nil
}

// PeakDemand is the fleet's nominal full-load power draw: every chip
// at the top DVFS level's nominal voltage, loaded by the 1.4
// platform/cooling factor the sizing heuristics use. Wind traces are
// conventionally scaled against this figure (a mean of half PeakDemand
// gives the contention regime the paper's figures explore).
func (f *Fleet) PeakDemand() units.Watts {
	var full float64
	top := f.PM.Table.Top()
	for id := range f.Chips {
		full += float64(f.PM.NominalCPUPower(f.Chips[id].Alpha, f.Chips[id].Beta, top)) * 1.4
	}
	return units.Watts(full)
}

// Knowledge builds the regime for a scheme over this fleet.
func (f *Fleet) Knowledge(kind KnowledgeKind) (Knowledge, error) {
	switch kind {
	case KnowScan:
		return NewScanKnowledge(f.Chips, f.PM, f.DB, DefaultScanGuard)
	case KnowOracle:
		return NewOracleKnowledge(f.Chips, f.PM), nil
	default:
		return NewBinKnowledge(f.Chips, f.PM, f.Binning), nil
	}
}
