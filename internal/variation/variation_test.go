package variation

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.CoresPerChip = 0 },
		func(c *Config) { c.GridSize = 1 },
		func(c *Config) { c.NumLevels = 0 },
		func(c *Config) { c.MarginMin = 0.2; c.MarginMax = 0.1 },
		func(c *Config) { c.MarginMean = -0.1 },
		func(c *Config) { c.AlphaMean = 0 },
		func(c *Config) { c.BetaMean = -5 },
	}
	for i, mut := range cases {
		c := DefaultConfig(1)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustModel(t, DefaultConfig(42)).GenerateFleet(50)
	b := mustModel(t, DefaultConfig(42)).GenerateFleet(50)
	for i := range a {
		if a[i].Alpha != b[i].Alpha || a[i].Beta != b[i].Beta {
			t.Fatalf("chip %d coefficients differ between identically seeded models", i)
		}
		for c := range a[i].Cores {
			for l := range a[i].Cores[c].Margins {
				if a[i].Cores[c].Margins[l] != b[i].Cores[c].Margins[l] {
					t.Fatalf("chip %d core %d level %d margins differ", i, c, l)
				}
			}
		}
	}
}

func TestSeedChangesFleet(t *testing.T) {
	a := mustModel(t, DefaultConfig(1)).GenerateChip(0)
	b := mustModel(t, DefaultConfig(2)).GenerateChip(0)
	if a.Alpha == b.Alpha && a.Beta == b.Beta {
		t.Fatal("different seeds produced identical chip")
	}
}

func TestMarginsWithinBounds(t *testing.T) {
	cfg := DefaultConfig(7)
	chips := mustModel(t, cfg).GenerateFleet(200)
	for _, ch := range chips {
		for _, core := range ch.Cores {
			for _, m := range core.Margins {
				if m < cfg.MarginMin || m > cfg.MarginMax {
					t.Fatalf("margin %v outside [%v,%v]", m, cfg.MarginMin, cfg.MarginMax)
				}
			}
		}
	}
}

func TestAlphaBetaDistribution(t *testing.T) {
	cfg := DefaultConfig(11)
	chips := mustModel(t, cfg).GenerateFleet(3000)
	sumA, sumB := 0.0, 0.0
	for _, ch := range chips {
		sumA += ch.Alpha
		sumB += ch.Beta
	}
	meanA := sumA / float64(len(chips))
	meanB := sumB / float64(len(chips))
	if math.Abs(meanA-cfg.AlphaMean) > 0.05 {
		t.Errorf("alpha mean = %v, want ~%v", meanA, cfg.AlphaMean)
	}
	if math.Abs(meanB-cfg.BetaMean)/cfg.BetaMean > 0.03 {
		t.Errorf("beta mean = %v, want ~%v", meanB, cfg.BetaMean)
	}
}

func TestChipMarginIsWorstCore(t *testing.T) {
	chips := mustModel(t, DefaultConfig(3)).GenerateFleet(100)
	for _, ch := range chips {
		for l := 0; l < 5; l++ {
			min := math.Inf(1)
			for i := range ch.Cores {
				if v := ch.Cores[i].MarginAt(l, false); v < min {
					min = v
				}
			}
			if got := ch.MarginAt(l, false); got != min {
				t.Fatalf("chip margin %v != worst core %v", got, min)
			}
		}
	}
}

func TestMinVddRelation(t *testing.T) {
	ch := mustModel(t, DefaultConfig(5)).GenerateChip(0)
	vnom := 1.3
	got := ch.MinVdd(4, vnom, false)
	want := vnom * (1 - ch.MarginAt(4, false))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MinVdd = %v, want %v", got, want)
	}
	if got > vnom {
		t.Fatalf("MinVdd %v above nominal %v", got, vnom)
	}
}

func TestGPUOnReducesMargin(t *testing.T) {
	chips := mustModel(t, DefaultConfig(9)).GenerateFleet(100)
	for _, ch := range chips {
		for l := 0; l < 5; l++ {
			if ch.MarginAt(l, true) > ch.MarginAt(l, false) {
				t.Fatal("GPU-on margin exceeds GPU-off margin")
			}
		}
	}
}

func TestGPUPenaltyNeverNegativeMargin(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.GPUPenaltyMean = 0.5 // absurdly large penalty
	chips := mustModel(t, cfg).GenerateFleet(20)
	for _, ch := range chips {
		if ch.MarginAt(0, true) < 0 {
			t.Fatal("margin went negative under extreme GPU penalty")
		}
	}
}

func TestNominalPowerEq1(t *testing.T) {
	ch := &Chip{Alpha: 7.5, Beta: 65}
	got := ch.NominalPower(2.0)
	want := 7.5*8 + 65
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("NominalPower(2GHz) = %v, want %v", got, want)
	}
}

func TestSpatialCorrelationAdjacentVsOpposite(t *testing.T) {
	// Within-die systematic variation must correlate more strongly for
	// adjacent quadrants than predicted by independence.
	cfg := DefaultConfig(17)
	chips := mustModel(t, cfg).GenerateFleet(4000)
	var c01, c00, c11 float64 // covariance terms of cores 0 and 1 systematics
	for _, ch := range chips {
		a := ch.Cores[0].SystematicZ
		b := ch.Cores[1].SystematicZ
		c01 += a * b
		c00 += a * a
		c11 += b * b
	}
	corr := c01 / math.Sqrt(c00*c11)
	if corr < 0.1 {
		t.Errorf("adjacent-core systematic correlation = %v, want clearly positive", corr)
	}
}

func TestLeakageCorrelatedWithMargin(t *testing.T) {
	// High-systematic (high-margin) chips should have above-average
	// leakage; verify a positive correlation of beta with mean systematic.
	cfg := DefaultConfig(19)
	chips := mustModel(t, cfg).GenerateFleet(4000)
	var sx, sy, sxy, sxx, syy float64
	n := float64(len(chips))
	for _, ch := range chips {
		z := 0.0
		for i := range ch.Cores {
			z += ch.Cores[i].SystematicZ
		}
		z /= float64(len(ch.Cores))
		sx += z
		sy += ch.Beta
		sxy += z * ch.Beta
		sxx += z * z
		syy += ch.Beta * ch.Beta
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	corr := cov / math.Sqrt(vx*vy)
	if corr < 0.05 {
		t.Errorf("beta-systematic correlation = %v, want positive", corr)
	}
}

func TestNonQuadCoreCounts(t *testing.T) {
	for _, cores := range []int{1, 2, 8, 16} {
		cfg := DefaultConfig(23)
		cfg.CoresPerChip = cores
		ch := mustModel(t, cfg).GenerateChip(0)
		if len(ch.Cores) != cores {
			t.Fatalf("got %d cores, want %d", len(ch.Cores), cores)
		}
	}
}

func TestA10CalibrationMatchesFigure4(t *testing.T) {
	// Generate many 4-chip (16-core) experiments and check the aggregate
	// statistics reproduce Figure 4: GPU-off mean ~1.219 V with values in
	// ~[1.18, 1.26]; GPU-on mean ~1.232 V.
	var offAll, onAll []float64
	for trial := uint64(0); trial < 50; trial++ {
		m := mustModel(t, A10Config(1000+trial))
		chips := m.GenerateFleet(4)
		offAll = append(offAll, A10CoreMinVdd(chips, false)...)
		onAll = append(onAll, A10CoreMinVdd(chips, true)...)
	}
	meanOff := mean(offAll)
	meanOn := mean(onAll)
	if math.Abs(meanOff-1.219) > 0.004 {
		t.Errorf("GPU-off mean MinVdd = %.4f, want ~1.219", meanOff)
	}
	if math.Abs(meanOn-1.232) > 0.004 {
		t.Errorf("GPU-on mean MinVdd = %.4f, want ~1.232", meanOn)
	}
	lo, hi := minMax(offAll)
	if lo < 1.375*(1-0.140)-1e-9 || hi > 1.375*(1-0.085)+1e-9 {
		t.Errorf("GPU-off MinVdd range [%.4f, %.4f] escapes calibrated bounds", lo, hi)
	}
	if meanOn <= meanOff {
		t.Error("GPU-on mean MinVdd should exceed GPU-off mean")
	}
}

func TestA10SingleFleetRange(t *testing.T) {
	// One 16-core fleet should show visible spread (the paper's 60 mV
	// range is ~4x our sigma; require at least 15 mV here).
	m := mustModel(t, A10Config(77))
	v := A10CoreMinVdd(m.GenerateFleet(4), false)
	if len(v) != 16 {
		t.Fatalf("expected 16 cores, got %d", len(v))
	}
	lo, hi := minMax(v)
	if hi-lo < 0.015 {
		t.Errorf("16-core MinVdd spread = %.4f V, want >= 0.015", hi-lo)
	}
}

func TestFieldUnitVariance(t *testing.T) {
	f := NewCorrelatedField(8, 1.5)
	r := newTestRand(31)
	g, tmp := make([]float64, 64), make([]float64, 64)
	sum, sumsq, n := 0.0, 0.0, 0
	for trial := 0; trial < 2000; trial++ {
		f.Fill(r, g, tmp)
		for _, v := range g {
			sum += v
			sumsq += v * v
			n++
		}
	}
	meanV := sum / float64(n)
	varV := sumsq/float64(n) - meanV*meanV
	if math.Abs(meanV) > 0.03 {
		t.Errorf("field mean = %v, want ~0", meanV)
	}
	// Edge clamping inflates variance slightly above 1; allow [0.8, 1.6].
	if varV < 0.8 || varV > 1.6 {
		t.Errorf("field variance = %v, want ~1", varV)
	}
}

func TestFieldSpatialCorrelationDecays(t *testing.T) {
	f := NewCorrelatedField(16, 2)
	r := newTestRand(37)
	g, tmp := make([]float64, 256), make([]float64, 256)
	at := func(i, j int) float64 { return g[i*16+j] }
	var near, far, v0 float64
	trials := 3000
	for trial := 0; trial < trials; trial++ {
		f.Fill(r, g, tmp)
		v0 += at(4, 4) * at(4, 4)
		near += at(4, 4) * at(4, 5)
		far += at(4, 4) * at(12, 12)
	}
	nearCorr := near / v0
	farCorr := far / v0
	if nearCorr < 0.5 {
		t.Errorf("adjacent-cell correlation = %v, want > 0.5", nearCorr)
	}
	if math.Abs(farCorr) > 0.25 {
		t.Errorf("distant-cell correlation = %v, want near 0", farCorr)
	}
	if farCorr >= nearCorr {
		t.Errorf("correlation does not decay: near %v, far %v", nearCorr, farCorr)
	}
}

func TestWhiteNoiseField(t *testing.T) {
	f := NewCorrelatedField(8, 0)
	g, tmp := make([]float64, 64), make([]float64, 64)
	f.Fill(newTestRand(41), g, tmp)
	want := newTestRand(41)
	for i, v := range g {
		if w := want.Normal(0, 1); v != w {
			t.Fatalf("cell %d = %v, want the raw draw %v", i, v, w)
		}
	}
}

// quadrantGrid is a 4×4 field whose quadrants hold 1, 2, 3 and 4.
var quadrantGrid = []float64{
	1, 1, 2, 2,
	1, 1, 2, 2,
	3, 3, 4, 4,
	3, 3, 4, 4,
}

func TestQuadrantMeans(t *testing.T) {
	sys, cnt := make([]float64, 4), make([]int, 4)
	coreSystematics(quadrantGrid, 4, sys, cnt)
	if want := []float64{1, 2, 3, 4}; !slices.Equal(sys, want) {
		t.Fatalf("quadrant means = %v, want %v", sys, want)
	}
}

func TestRowStripes(t *testing.T) {
	g := quadrantGrid
	sys, cnt := make([]float64, 2), make([]int, 2)
	coreSystematics(g, 4, sys, cnt)
	if want := []float64{1.5, 3.5}; !slices.Equal(sys, want) {
		t.Fatalf("row stripes = %v, want %v", sys, want)
	}
	// More cores than rows leaves the unmapped stripes at zero.
	sys, cnt = make([]float64, 6), make([]int, 6)
	coreSystematics(g, 4, sys, cnt)
	if want := []float64{1.5, 1.5, 0, 3.5, 3.5, 0}; !slices.Equal(sys, want) {
		t.Fatalf("six stripes = %v, want %v", sys, want)
	}
}

func TestMarginPropertyNeverExceedsNominal(t *testing.T) {
	m := mustModel(t, DefaultConfig(51))
	chips := m.GenerateFleet(100)
	f := func(idx uint16, level uint8, vnomRaw uint8, gpu bool) bool {
		ch := chips[int(idx)%len(chips)]
		l := int(level) % 5
		vnom := 0.8 + float64(vnomRaw)/255.0 // [0.8, 1.8]
		v := ch.MinVdd(l, vnom, gpu)
		return v > 0 && v <= vnom
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
