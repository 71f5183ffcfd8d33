package scheduler

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"iscope/internal/variation"
)

// fleetHasher feeds a fleet's fields into SHA-256 as raw bits, so a
// digest moves when any float64 moves by one ulp.
type fleetHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (f *fleetHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fleetHasher) int(v int)     { f.u64(uint64(int64(v))) }
func (f *fleetHasher) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fleetHasher) bool(v bool) {
	if v {
		f.int(1)
	} else {
		f.int(0)
	}
}

func (f *fleetHasher) ints(vs []int) {
	f.int(len(vs))
	for _, v := range vs {
		f.int(v)
	}
}

func (f *fleetHasher) f64s(vs []float64) {
	f.int(len(vs))
	for _, v := range vs {
		f.f64(v)
	}
}

// fleetDigest hashes everything BuildFleet produces: every chip field,
// every bin, ChipBin, every profile-DB record, the scan report and the
// fleet's PeakDemand.
func fleetDigest(fl *Fleet) string {
	f := &fleetHasher{h: sha256.New()}
	f.int(len(fl.Chips))
	for _, ch := range fl.Chips {
		f.int(ch.ID)
		f.f64(ch.Alpha)
		f.f64(ch.Beta)
		f.int(len(ch.Cores))
		for i := range ch.Cores {
			c := &ch.Cores[i]
			f.f64s(c.Margins)
			f.f64(c.GPUPenalty)
			f.f64(c.SystematicZ)
		}
	}
	f.int(len(fl.Binning.Bins))
	for _, b := range fl.Binning.Bins {
		f.int(b.Index)
		f.ints(b.Members)
		f.int(len(b.VddPerLevel))
		for _, v := range b.VddPerLevel {
			f.f64(float64(v))
		}
		f.f64(float64(b.WorstNominalPower))
	}
	f.ints(fl.Binning.ChipBin)
	recs := fl.DB.Records()
	f.int(len(recs))
	for _, r := range recs {
		f.int(len(r.MinVdd))
		for _, v := range r.MinVdd {
			f.f64(float64(v))
		}
		for _, m := range r.Measured {
			f.bool(m)
		}
		f.f64(float64(r.LastScan))
		f.int(r.Scans)
	}
	rep := fl.ScanReport
	f.int(rep.Chips)
	f.int(rep.Points)
	f.f64(float64(rep.Energy))
	f.f64(float64(rep.Duration))
	f.f64(float64(fl.PeakDemand()))
	return hex.EncodeToString(f.h.Sum(nil))
}

// fleetDigestSpecs is the fleet grid the digests cover: three seeds ×
// four fleet sizes × seven configurations (the default, two other core
// counts, a grid narrower than the correlation kernel, a wide grid with
// a wider kernel, white noise and a noisy scan), plus one paper-scale
// 48,000-proc default fleet.
func fleetDigestSpecs() (names []string, specs []FleetSpec) {
	type variant struct {
		name string
		edit func(*FleetSpec)
	}
	vcfg := func(edit func(*variation.Config)) func(*FleetSpec) {
		return func(sp *FleetSpec) {
			c := variation.DefaultConfig(sp.Seed)
			edit(&c)
			sp.Variation = c
		}
	}
	variants := []variant{
		{"default", func(*FleetSpec) {}},
		{"cores=2", vcfg(func(c *variation.Config) { c.CoresPerChip = 2 })},
		{"cores=6", vcfg(func(c *variation.Config) { c.CoresPerChip = 6 })},
		{"grid=3", vcfg(func(c *variation.Config) { c.GridSize = 3 })},
		{"grid=16,corr=2", vcfg(func(c *variation.Config) { c.GridSize, c.CorrRange = 16, 2 })},
		{"corr=0", vcfg(func(c *variation.Config) { c.CorrRange = 0 })},
		{"noise=0.004", func(sp *FleetSpec) { sp.ScanNoise = 0.004 }},
	}
	for _, seed := range []uint64{1, 2, 3} {
		for _, procs := range []int{1, 7, 100, 4800} {
			for _, v := range variants {
				sp := DefaultFleetSpec(seed, procs)
				v.edit(&sp)
				names = append(names, fmt.Sprintf("seed=%d/procs=%d/%s", seed, procs, v.name))
				specs = append(specs, sp)
			}
		}
	}
	names = append(names, "seed=1/procs=48000/default")
	specs = append(specs, DefaultFleetSpec(1, 48000))
	return names, specs
}

// TestFleetDigestsGolden pins BuildFleet bit for bit: the SHA-256 of
// every fleet in fleetDigestSpecs, compared against
// testdata/fleet_digests.golden. Chips, bins, scan records and the
// scan report feed every scheduling decision, so a faster fleet build
// must reproduce them exactly. Regenerate with
//
//	go test ./internal/scheduler -run TestFleetDigestsGolden -update
//
// only for a change that is meant to alter the generated hardware, and
// say so where the change is recorded.
func TestFleetDigestsGolden(t *testing.T) {
	names, specs := fleetDigestSpecs()
	var log bytes.Buffer
	for i, sp := range specs {
		fl, err := BuildFleet(sp)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		fmt.Fprintf(&log, "%s %s\n", names[i], fleetDigest(fl))
	}
	path := filepath.Join("testdata", "fleet_digests.golden")
	if *update {
		if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — regenerate with: go test ./internal/scheduler -run TestFleetDigestsGolden -update (%v)", path, err)
	}
	if got := log.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("fleet bytes moved.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
