package binning

import (
	"reflect"
	"sort"
	"testing"

	"iscope/internal/power"
	"iscope/internal/units"
	"iscope/internal/variation"
)

// assignOracle is the original Assign: a stable sort by nominal power
// that recomputes both keys on every comparison, then every bin's worst
// member per level taken bin by bin. Assign must match it exactly.
func assignOracle(chips []*variation.Chip, tbl *power.Table, nbins int, factoryGuard float64) *Binning {
	if nbins > len(chips) {
		nbins = len(chips)
	}
	order := make([]int, len(chips))
	for i := range order {
		order[i] = i
	}
	fmax := float64(tbl.Fmax())
	sort.SliceStable(order, func(a, b int) bool {
		return chips[order[a]].NominalPower(fmax) < chips[order[b]].NominalPower(fmax)
	})
	b := &Binning{
		Bins:    make([]Bin, nbins),
		ChipBin: make([]int, len(chips)),
		guard:   factoryGuard,
		table:   tbl,
	}
	for i := range b.Bins {
		lo := i * len(chips) / nbins
		hi := (i + 1) * len(chips) / nbins
		bin := Bin{
			Index:       i,
			Members:     append([]int(nil), order[lo:hi]...),
			VddPerLevel: make([]units.Volts, tbl.NumLevels()),
		}
		for l := range bin.VddPerLevel {
			vnom := float64(tbl.Levels[l].Vnom)
			worst := 0.0
			for _, id := range bin.Members {
				if v := chips[id].MinVdd(l, vnom, false); v > worst {
					worst = v
				}
			}
			v := worst * (1 + factoryGuard)
			if v > vnom {
				v = vnom
			}
			bin.VddPerLevel[l] = units.Volts(v)
		}
		for _, id := range bin.Members {
			b.ChipBin[id] = i
			if p := units.Watts(chips[id].NominalPower(fmax)); p > bin.WorstNominalPower {
				bin.WorstNominalPower = p
			}
		}
		b.Bins[i] = bin
	}
	return b
}

// tiedChips hand-builds a fleet in which most chips share one of three
// nominal powers, in an order that interleaves the ties, so the sort's
// tie-break decides bin boundaries and member order.
func tiedChips(n int) []*variation.Chip {
	chips := make([]*variation.Chip, n)
	for id := range chips {
		margin := 0.02 + 0.01*float64((id*7)%5)
		chips[id] = &variation.Chip{
			ID:    id,
			Alpha: 7.5,
			Beta:  float64(60 + 5*((id*5)%3)),
			Cores: []variation.Core{
				{Margins: []float64{margin, margin + 0.001, margin, margin + 0.002, margin}},
				{Margins: []float64{margin + 0.003, margin, margin + 0.001, margin, margin + 0.004}},
			},
		}
		if id%11 == 0 {
			chips[id].Alpha = 7.5 + float64(id%3)*0.25
		}
	}
	return chips
}

func TestAssignMatchesStableSortOracle(t *testing.T) {
	tbl := power.DefaultTable()
	// The multi-chunk fleets span several of Assign's pool tasks, so
	// their bins' worst MinVdd merges partial maxima.
	fleets := map[string][]*variation.Chip{
		"tied-1":                tiedChips(1),
		"tied-7":                tiedChips(7),
		"tied-100":              tiedChips(100),
		"tied-1001":             tiedChips(1001),
		"tied-multi-chunk":      tiedChips(3*assignChunk + 5),
		"generated":             fleet(t, 500, 4),
		"generated-multi-chunk": fleet(t, 2*assignChunk+7, 4),
	}
	for name, chips := range fleets {
		for _, nbins := range []int{1, 2, 3, 5, 8} {
			for _, guard := range []float64{0, DefaultFactoryGuard, 0.5} {
				got, err := Assign(chips, tbl, nbins, guard)
				if err != nil {
					t.Fatal(err)
				}
				if want := assignOracle(chips, tbl, nbins, guard); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d bins, guard %v: Assign differs from the stable-sort oracle", name, nbins, guard)
				}
			}
		}
	}
}
