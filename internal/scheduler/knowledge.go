// Package scheduler is iScope's core: the variation-aware scheduling
// schemes of Table 2 (BinRan, BinEffi, ScanRan, ScanEffi, ScanFair),
// the knowledge abstraction separating what the datacenter *believes*
// about its hardware (factory bins vs in-cloud scan results) from the
// ground truth, and the macro-level supply-demand power matching loop
// that tracks the renewable budget with DVFS and buys the residual from
// the grid.
package scheduler

import (
	"fmt"
	"slices"

	"iscope/internal/binning"
	"iscope/internal/power"
	"iscope/internal/profiling"
	"iscope/internal/units"
	"iscope/internal/variation"
)

// Knowledge is what the facility scheduler knows about each processor.
// It determines both the physically applied supply voltage (the safe
// voltage the regime can certify) and the scheduler's power estimates.
type Knowledge interface {
	// Vdd is the supply voltage processor id is operated at for level l.
	Vdd(id, l int) units.Volts
	// EstPower is the scheduler's belief of processor id's CPU power at
	// level l (excluding cooling).
	EstPower(id, l int) units.Watts
	// EffRank is a static sort key: lower means the scheduler believes
	// the processor is more energy-efficient. Processors the regime
	// cannot distinguish share a rank.
	EffRank(id int) float64
	// Name identifies the regime ("Bin" or "Scan").
	Name() string
}

// BinKnowledge is the conventional regime: only the factory bin
// assignment is known. Every member of a bin runs at the bin's
// worst-case voltage and is believed to draw the bin's worst-member
// power, so chips within a bin are indistinguishable.
type BinKnowledge struct {
	bins *binning.Binning
	// repPower[bin][level] is the factory-certified (worst member)
	// CPU power of the bin.
	repPower [][]units.Watts
}

// NewBinKnowledge derives the regime from a factory binning. The
// per-bin representative power is the maximum member power at the bin
// voltage — the number the factory datasheet would print.
func NewBinKnowledge(chips []*variation.Chip, pm *power.Model, bins *binning.Binning) *BinKnowledge {
	k := &BinKnowledge{bins: bins, repPower: make([][]units.Watts, bins.NumBins())}
	for b := range k.repPower {
		k.repPower[b] = make([]units.Watts, pm.Table.NumLevels())
		for l := range k.repPower[b] {
			v := bins.Bins[b].VddPerLevel[l]
			var worst units.Watts
			for _, id := range bins.Bins[b].Members {
				ch := chips[id]
				if p := pm.CPUPower(ch.Alpha, ch.Beta, l, v); p > worst {
					worst = p
				}
			}
			k.repPower[b][l] = worst
		}
	}
	return k
}

// Vdd returns the bin's worst-case guaranteed voltage.
func (k *BinKnowledge) Vdd(id, l int) units.Volts { return k.bins.Vdd(id, l) }

// EstPower returns the bin's certified worst-member power.
func (k *BinKnowledge) EstPower(id, l int) units.Watts {
	return k.repPower[k.bins.BinOf(id)][l]
}

// EffRank returns the bin index: the only efficiency signal bins carry.
func (k *BinKnowledge) EffRank(id int) float64 { return float64(k.bins.BinOf(id)) }

// Name returns "Bin".
func (k *BinKnowledge) Name() string { return "Bin" }

// ScanKnowledge is the iScope regime: the scanner's profile database
// supplies each chip's own minimum voltage (plus a small in-cloud
// guardband), and per-node power metering supplies accurate power
// coefficients.
type ScanKnowledge struct {
	chips []*variation.Chip
	pm    *power.Model
	db    *profiling.DB
	// Guard is the in-cloud guardband added above the scanned MinVdd,
	// in volts. Much smaller than the factory guardband: periodic
	// re-scanning (Section III.C) tracks aging, so only measurement
	// granularity must be covered.
	Guard units.Volts
	rank  []float64

	// Vdd/EstPower are on the scheduler's hottest paths (level choice,
	// power accounting), so both are cached as flat chip×level tables
	// rebuilt only when the DB's write version moves: the steady-state
	// lookup is one atomic load and an index instead of an RWMutex round
	// trip and a power-model evaluation per call. The cached values are
	// computed by exactly the code the uncached path ran, so regimes
	// over a static DB are bit-identical with or without the cache.
	cacheVer uint64
	vddCache []units.Volts
	pwrCache []units.Watts
}

// DefaultScanGuard is the in-cloud guardband (one scan voltage step).
const DefaultScanGuard units.Volts = 0.0125

// NewScanKnowledge derives the regime from a scanned profile database.
func NewScanKnowledge(chips []*variation.Chip, pm *power.Model, db *profiling.DB, guard units.Volts) (*ScanKnowledge, error) {
	if db.NumChips() != len(chips) {
		return nil, fmt.Errorf("scheduler: DB tracks %d chips, fleet has %d", db.NumChips(), len(chips))
	}
	if guard < 0 {
		return nil, fmt.Errorf("scheduler: negative scan guard")
	}
	k := &ScanKnowledge{chips: chips, pm: pm, db: db, Guard: guard}
	k.refresh(db.Version())
	top := pm.Table.Top()
	k.rank = make([]float64, len(chips))
	for id := range chips {
		k.rank[id] = float64(k.EstPower(id, top)) / float64(pm.Table.Fmax())
	}
	return k, nil
}

// refresh rebuilds the cached voltage and power tables from the DB
// state at write-version ver, reading the DB's tables in place. A
// version moving before the read only means the next lookup refreshes
// again.
func (k *ScanKnowledge) refresh(ver uint64) {
	n, levels := len(k.chips), k.pm.Table.NumLevels()
	if k.vddCache == nil {
		k.vddCache = make([]units.Volts, n*levels)
		k.pwrCache = make([]units.Watts, n*levels)
	}
	k.db.ReadTables(func(minVdd []units.Volts, measured []bool) {
		for id := 0; id < n; id++ {
			ch := k.chips[id]
			for l := 0; l < levels; l++ {
				i := id*levels + l
				vnom := k.pm.Table.Levels[l].Vnom
				out := vnom
				if v := minVdd[i]; measured[i] && v > 0 {
					out = v + k.Guard
					if out > vnom {
						out = vnom
					}
				}
				k.vddCache[i] = out
				k.pwrCache[i] = k.pm.CPUPower(ch.Alpha, ch.Beta, l, out)
			}
		}
	})
	k.cacheVer = ver
}

// ensure revalidates the cache against the DB's write version. Cheap on
// the fast path (one atomic load); the rebuild runs only after a scan
// actually lands.
func (k *ScanKnowledge) ensure() {
	if v := k.db.Version(); v != k.cacheVer {
		k.refresh(v)
	}
}

// Vdd returns the scanned MinVdd plus the in-cloud guardband, capped at
// the level's nominal voltage; unprofiled levels fall back to nominal.
func (k *ScanKnowledge) Vdd(id, l int) units.Volts {
	k.ensure()
	return k.vddCache[id*k.pm.Table.NumLevels()+l]
}

// EstPower returns the metered power at the scanned operating voltage.
func (k *ScanKnowledge) EstPower(id, l int) units.Watts {
	k.ensure()
	return k.pwrCache[id*k.pm.Table.NumLevels()+l]
}

// EffRank returns estimated power per GHz at the top level.
func (k *ScanKnowledge) EffRank(id int) float64 { return k.rank[id] }

// Name returns "Scan".
func (k *ScanKnowledge) Name() string { return "Scan" }

// HybridKnowledge is the regime of a datacenter still being profiled:
// chips whose scan has completed use their measured MinVdd plus the
// in-cloud guardband; the rest still run on factory bin knowledge. As
// the opportunistic scanner works through the fleet, the regime
// converges from Bin to Scan — exactly the deployment story of Section
// III.C.
type HybridKnowledge struct {
	bin  *BinKnowledge
	scan *ScanKnowledge
	db   *profiling.DB
}

// NewHybridKnowledge builds the mixed regime over a (possibly empty)
// profile database that the scanner fills during operation.
func NewHybridKnowledge(chips []*variation.Chip, pm *power.Model, bins *binning.Binning, db *profiling.DB, guard units.Volts) (*HybridKnowledge, error) {
	scan, err := NewScanKnowledge(chips, pm, db, guard)
	if err != nil {
		return nil, err
	}
	return &HybridKnowledge{
		bin:  NewBinKnowledge(chips, pm, bins),
		scan: scan,
		db:   db,
	}, nil
}

// Vdd uses the scanned voltage once the chip is fully profiled.
func (k *HybridKnowledge) Vdd(id, l int) units.Volts {
	if _, ok := k.db.Lookup(id, l); ok {
		return k.scan.Vdd(id, l)
	}
	return k.bin.Vdd(id, l)
}

// EstPower uses metered power for profiled chips (ScanKnowledge's
// estimate reads the live DB), the bin datasheet otherwise.
func (k *HybridKnowledge) EstPower(id, l int) units.Watts {
	if _, ok := k.db.Lookup(id, l); ok {
		return k.scan.EstPower(id, l)
	}
	return k.bin.EstPower(id, l)
}

// EffRank is dynamic: profiled chips expose their true efficiency in
// the same power-per-GHz units as the binned estimate, so both
// interleave correctly. The scheduler re-sorts its preference order
// when profiles change.
func (k *HybridKnowledge) EffRank(id int) float64 {
	top := k.scan.pm.Table.Top()
	return float64(k.EstPower(id, top)) / float64(k.scan.pm.Table.Fmax())
}

// Name returns "Hybrid".
func (k *HybridKnowledge) Name() string { return "Hybrid" }

// OracleKnowledge is the perfect-information regime: every chip runs
// at its exact ground-truth minimum voltage with zero guardband, and
// power estimates are exact. Physically unattainable (any measurement
// needs margin), it lower-bounds the energy any profiling strategy
// could reach and so prices the scanner's residual guardband.
type OracleKnowledge struct {
	chips []*variation.Chip
	pm    *power.Model
	rank  []float64
}

// NewOracleKnowledge builds the perfect-information regime.
func NewOracleKnowledge(chips []*variation.Chip, pm *power.Model) *OracleKnowledge {
	k := &OracleKnowledge{chips: chips, pm: pm}
	top := pm.Table.Top()
	k.rank = make([]float64, len(chips))
	for id := range chips {
		k.rank[id] = float64(k.EstPower(id, top)) / float64(pm.Table.Fmax())
	}
	return k
}

// Vdd returns the chip's exact ground-truth minimum voltage.
func (k *OracleKnowledge) Vdd(id, l int) units.Volts {
	vnom := float64(k.pm.Table.Levels[l].Vnom)
	return units.Volts(k.chips[id].MinVdd(l, vnom, false))
}

// EstPower is exact.
func (k *OracleKnowledge) EstPower(id, l int) units.Watts {
	ch := k.chips[id]
	return k.pm.CPUPower(ch.Alpha, ch.Beta, l, k.Vdd(id, l))
}

// EffRank returns exact power per GHz at the top level.
func (k *OracleKnowledge) EffRank(id int) float64 { return k.rank[id] }

// Name returns "Oracle".
func (k *OracleKnowledge) Name() string { return "Oracle" }

// effOrder returns processor IDs sorted by a Knowledge's EffRank
// (ties broken by the provided tiebreak permutation, then by ID), the
// static preference order Effi policies walk. Ranks are computed once
// into (rank, position, id) keys, which are all distinct, so an
// unstable sort gives exactly the stable sort's order: tiebreak need
// not be a permutation (tests pass all-zero tiebreaks), and where
// (rank, position) ties the id decides, as insertion order would.
func effOrder(n int, k Knowledge, tiebreak []int) []int {
	pos := make([]int32, n)
	for i, id := range tiebreak {
		pos[id] = int32(i)
	}
	keys := make([]effKey, n)
	for id := range keys {
		keys[id] = effKey{rank: k.EffRank(id), pos: pos[id], id: int32(id)}
	}
	slices.SortFunc(keys, effCmp)
	out := make([]int, n)
	for i, key := range keys {
		out[i] = int(key.id)
	}
	return out
}
