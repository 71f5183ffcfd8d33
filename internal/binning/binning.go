// Package binning implements factory speed/efficiency binning, the
// conventional (non-profiled) source of hardware knowledge against which
// iScope's dynamic scanning is compared.
//
// As in the paper (Section V.B), processors are grouped into a small
// number of bins by their nominal power efficiency, "similar to the AMD
// Opteron 6300 series" (Table 1). Every processor in a bin must operate
// at the worst-case supply voltage of that bin (plus a factory
// guardband covering lifetime aging and temperature), and the scheduler
// can distinguish bins but not the chips within one.
package binning

import (
	"cmp"
	"fmt"
	"slices"

	"iscope/internal/power"
	"iscope/internal/units"
	"iscope/internal/variation"
)

// DefaultBins is the number of factory bins (Table 1 has three).
const DefaultBins = 3

// DefaultFactoryGuard is the fractional voltage guardband the factory
// adds above a chip's tested minimum to guarantee operation over the
// full lifetime and environmental range. It is deliberately larger than
// the in-cloud scanner's guardband: the factory must certify worst-case
// conditions that rarely occur, which is exactly the inefficiency the
// paper's Section II.B describes.
const DefaultFactoryGuard = 0.045

// Bin is one factory bin.
type Bin struct {
	Index   int   // 0 = most efficient
	Members []int // chip IDs
	// VddPerLevel is the bin's guaranteed operating voltage per DVFS
	// level: worst-member MinVdd raised by the factory guardband and
	// capped at the level's nominal voltage.
	VddPerLevel []units.Volts
	// WorstNominalPower is the bin's guaranteed (worst member) Eq-1
	// power at the top level — the only efficiency figure a Bin-schemes
	// scheduler has.
	WorstNominalPower units.Watts
}

// Binning is a complete factory assignment of a fleet.
type Binning struct {
	Bins    []Bin
	ChipBin []int // chip ID -> bin index
	guard   float64
	table   *power.Table
}

// Assign bins a fleet by nominal top-level power (ascending: bin 0 is
// the most efficient third). factoryGuard is the fractional voltage
// guardband; pass DefaultFactoryGuard for the paper's setup.
func Assign(chips []*variation.Chip, tbl *power.Table, nbins int, factoryGuard float64) (*Binning, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("binning: nbins must be positive, got %d", nbins)
	}
	if len(chips) == 0 {
		return nil, fmt.Errorf("binning: empty fleet")
	}
	if factoryGuard < 0 {
		return nil, fmt.Errorf("binning: negative factory guard %v", factoryGuard)
	}
	if nbins > len(chips) {
		nbins = len(chips)
	}

	// Sorting by (key, id) gives exactly the permutation a stable sort
	// by key gives, with each chip's key computed once.
	fmax := float64(tbl.Fmax())
	keyed := make([]keyedChip, len(chips))
	for id, ch := range chips {
		keyed[id] = keyedChip{key: ch.NominalPower(fmax), id: id}
	}
	slices.SortFunc(keyed, func(a, b keyedChip) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.id, b.id))
	})
	order := make([]int, len(chips))
	for i := range keyed {
		order[i] = keyed[i].id
	}

	levels := tbl.NumLevels()
	b := &Binning{
		Bins:    make([]Bin, nbins),
		ChipBin: make([]int, len(chips)),
		guard:   factoryGuard,
		table:   tbl,
	}
	for i := range b.Bins {
		lo := i * len(chips) / nbins
		hi := (i + 1) * len(chips) / nbins
		for _, id := range order[lo:hi] {
			b.ChipBin[id] = i
		}
		// Members are sorted by key, so the last is the worst.
		b.Bins[i] = Bin{
			Index:             i,
			Members:           order[lo:hi:hi],
			WorstNominalPower: units.Watts(keyed[hi-1].key),
		}
	}
	// Each bin's worst-member MinVdd per level, in one pass in chip-ID
	// order: a maximum does not depend on the order it is taken in.
	worst := make([]float64, nbins*levels)
	for id, ch := range chips {
		w := worst[b.ChipBin[id]*levels:][:levels]
		for l := range w {
			if v := ch.MinVdd(l, float64(tbl.Levels[l].Vnom), false); v > w[l] {
				w[l] = v
			}
		}
	}
	vdd := make([]units.Volts, nbins*levels)
	for i := range b.Bins {
		bin := &b.Bins[i]
		bin.VddPerLevel = vdd[i*levels : (i+1)*levels : (i+1)*levels]
		for l := range bin.VddPerLevel {
			vnom := float64(tbl.Levels[l].Vnom)
			v := worst[i*levels+l] * (1 + factoryGuard)
			if v > vnom {
				v = vnom
			}
			bin.VddPerLevel[l] = units.Volts(v)
		}
	}
	return b, nil
}

// keyedChip is a chip ID with its binning key, nominal top-level power.
type keyedChip struct {
	key float64
	id  int
}

// Vdd returns the factory-guaranteed operating voltage for chip id at
// DVFS level l.
func (b *Binning) Vdd(id, l int) units.Volts {
	return b.Bins[b.ChipBin[id]].VddPerLevel[l]
}

// BinOf returns the bin index of chip id.
func (b *Binning) BinOf(id int) int { return b.ChipBin[id] }

// NumBins returns the number of bins.
func (b *Binning) NumBins() int { return len(b.Bins) }
