// Package variation models manufacturing process variation (PV) in the
// style of the VARIUS framework: each die carries a spatially correlated
// systematic component plus an independent random component of
// threshold-voltage (Vth) deviation. From these the package derives the
// quantities the rest of iScope consumes:
//
//   - per-core voltage margin — the fraction of the nominal supply
//     voltage that the core can safely shed at each DVFS level (the
//     ground truth that the iScope scanner discovers experimentally);
//   - per-chip power-model coefficients alpha (dynamic) and beta
//     (static/leakage) for Eq-1 of the paper, p = alpha*f^3 + beta, with
//     leakage correlated to the Vth deviation (low-Vth dies are fast and
//     can undervolt further, but leak more).
//
// The package also ships an A10-5800K calibration profile reproducing
// the paper's Figure 4 measurements.
package variation

import (
	"fmt"
	"math"
	"sync"

	"iscope/internal/pool"
	"iscope/internal/rng"
)

// Config controls chip generation. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	Seed         uint64  // master seed for the variation streams
	CoresPerChip int     // cores per die (the paper's chips are quad-core)
	GridSize     int     // systematic-variation grid side per die
	CorrRange    float64 // correlation range in grid cells (VARIUS phi)

	// Voltage margin model. A core's margin is the fraction of nominal
	// Vdd it can shed while still operating correctly:
	//   margin = MarginMean + MarginSigmaSys*systematic
	//          + MarginSigmaRand*random + levelJitter,
	// clamped to [MarginMin, MarginMax].
	MarginMean      float64
	MarginSigmaSys  float64 // stddev of the systematic (correlated) part
	MarginSigmaRand float64 // stddev of the per-core random part
	MarginLevelJit  float64 // stddev of independent per-DVFS-level jitter
	MarginMin       float64
	MarginMax       float64

	// Power-model coefficients (paper Section V.B): alpha ~ N(7.5,0.75),
	// beta ~ Poisson(65).
	AlphaMean  float64
	AlphaSigma float64
	BetaMean   float64
	// LeakageCorr couples leakage to margin: beta is scaled by
	// (1 + LeakageCorr * systematicZ), so high-margin (fast, low-Vth)
	// dies leak more, as in silicon.
	LeakageCorr float64

	// GPUPenaltyMean/Sigma: absolute margin reduction when the chip's
	// integrated GPU is enabled (Section II.B / Figure 4B).
	GPUPenaltyMean  float64
	GPUPenaltySigma float64

	NumLevels int // number of DVFS levels margins are tabulated for
}

// DefaultConfig returns the datacenter-model parameters used throughout
// the evaluation (Section V.B).
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		CoresPerChip:    4,
		GridSize:        8,
		CorrRange:       1.5,
		MarginMean:      0.060,
		MarginSigmaSys:  0.012,
		MarginSigmaRand: 0.006,
		MarginLevelJit:  0.002,
		MarginMin:       0.0,
		MarginMax:       0.14,
		AlphaMean:       7.5,
		AlphaSigma:      0.75,
		BetaMean:        65,
		LeakageCorr:     0.08,
		GPUPenaltyMean:  0.0095,
		GPUPenaltySigma: 0.0025,
		NumLevels:       5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CoresPerChip <= 0:
		return fmt.Errorf("variation: CoresPerChip must be positive, got %d", c.CoresPerChip)
	case c.GridSize < 2:
		return fmt.Errorf("variation: GridSize must be >= 2, got %d", c.GridSize)
	case c.NumLevels <= 0:
		return fmt.Errorf("variation: NumLevels must be positive, got %d", c.NumLevels)
	case c.MarginMin > c.MarginMax:
		return fmt.Errorf("variation: MarginMin %v > MarginMax %v", c.MarginMin, c.MarginMax)
	case c.MarginMean < 0 || c.MarginMax >= 0.5:
		return fmt.Errorf("variation: margin parameters out of physical range")
	case c.AlphaMean <= 0 || c.BetaMean <= 0:
		return fmt.Errorf("variation: power coefficients must be positive")
	}
	return nil
}

// Core is one CPU core's ground-truth variation data.
type Core struct {
	// Margins[l] is the safe voltage-margin fraction at DVFS level l:
	// the core operates correctly at Vnom(l)*(1-Margins[l]).
	Margins []float64
	// GPUPenalty is subtracted from every margin when the chip's
	// integrated GPU is active.
	GPUPenalty float64
	// SystematicZ is the core's systematic variation z-score (exported
	// for analysis and tests).
	SystematicZ float64
}

// MarginAt returns the core's margin at level l with the GPU on or off.
func (c *Core) MarginAt(l int, gpuOn bool) float64 {
	m := c.Margins[l]
	if gpuOn {
		m -= c.GPUPenalty
	}
	if m < 0 {
		m = 0
	}
	return m
}

// Chip is one processor die. In the datacenter model a Chip is the
// schedulable unit ("CPU" in the paper's terms).
type Chip struct {
	ID    int
	Alpha float64 // dynamic power coefficient (W/GHz^3 at nominal voltage)
	Beta  float64 // static power at nominal voltage (W)
	Cores []Core
}

// MarginAt returns the chip-level safe margin at DVFS level l: the
// minimum across cores, because a shared supply must satisfy the worst
// core on the die.
func (ch *Chip) MarginAt(l int, gpuOn bool) float64 {
	m := math.Inf(1)
	for i := range ch.Cores {
		if v := ch.Cores[i].MarginAt(l, gpuOn); v < m {
			m = v
		}
	}
	return m
}

// MinVdd returns the chip's ground-truth minimum safe supply voltage at
// level l given that level's nominal voltage.
func (ch *Chip) MinVdd(l int, vnom float64, gpuOn bool) float64 {
	return vnom * (1 - ch.MarginAt(l, gpuOn))
}

// NominalPower returns alpha*f^3 + beta — Eq-1 of the paper evaluated at
// the nominal operating point (used for factory binning).
func (ch *Chip) NominalPower(fGHz float64) float64 {
	return ch.Alpha*fGHz*fGHz*fGHz + ch.Beta
}

// Model generates chips from a Config. A Model is not safe for
// concurrent use: it consumes one random stream and generates into
// scratch buffers it owns.
//
// Generating a chip has two halves. draw makes all of the chip's random
// draws, in the one order the stream has always been read in, and
// stores them; build turns the stored draws into the chip. Only draw
// touches the stream, so GenerateFleet draws chips in order on the
// calling goroutine while pool workers build earlier ones.
type Model struct {
	cfg   Config
	field *CorrelatedField
	r     *rng.Rand

	// stride is the number of values draw stores per chip.
	stride int
	// GenerateChip's one-chip draws and build scratch.
	draws []float64
	scr   scratch
}

// scratch is what build needs besides a chip's draws: the convolution's
// second buffer, and the per-core systematics with their cell counts.
type scratch struct {
	tmp []float64
	sys []float64
	cnt []int
}

func newScratch(cfg *Config) scratch {
	return scratch{
		tmp: make([]float64, cfg.GridSize*cfg.GridSize),
		sys: make([]float64, cfg.CoresPerChip),
		cnt: make([]int, cfg.CoresPerChip),
	}
}

// NewModel validates cfg and constructs a generator.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.GridSize
	stride := n*n + cfg.CoresPerChip*(cfg.NumLevels+2) + 2
	return &Model{
		cfg:    cfg,
		field:  NewCorrelatedField(n, cfg.CorrRange),
		r:      rng.Named(cfg.Seed, "variation"),
		stride: stride,
		draws:  make([]float64, stride),
		scr:    newScratch(&cfg),
	}, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// GenerateChip creates chip number id. Generation consumes the model's
// stream sequentially, so a fleet must be generated in one pass (use
// GenerateFleet); individual chips are still fully determined by
// (Config, generation order).
func (m *Model) GenerateChip(id int) *Chip {
	ch := &Chip{}
	m.draw(m.draws)
	m.build(ch, id, m.draws, make([]Core, m.cfg.CoresPerChip), make([]float64, m.cfg.CoresPerChip*m.cfg.NumLevels), &m.scr)
	return ch
}

// drawChunk is the number of chips GenerateFleet draws while the pool
// builds the previous chunk; buildBlock is the number of chips one pool
// task builds. Two chunks of draws are live at once, 190 KB each for
// the default 8×8 quad-core die.
const (
	drawChunk  = 256
	buildBlock = 16
)

// GenerateFleet creates n chips with IDs 0..n-1, exactly the chips n
// successive GenerateChip calls would make. The chips, their cores and
// their margins live in three slabs; every chip's Cores and every
// core's Margins is a full slice expression over its slab, so an
// append to one cannot reach a neighbour.
//
// The calling goroutine draws the chips chunk by chunk into a double
// buffer, while GOMAXPROCS pool workers build the previous chunk from
// its draws. A chip's build reads only its own draws, the immutable
// configuration and field, and the scratch of its pool task, so every
// worker count makes the same chips.
func (m *Model) GenerateFleet(n int) []*Chip {
	c, l, stride := m.cfg.CoresPerChip, m.cfg.NumLevels, m.stride
	chips := make([]*Chip, n)
	slab := make([]Chip, n)
	cores := make([]Core, n*c)
	margins := make([]float64, n*c*l)

	chunk := min(n, drawChunk)
	draws := make([]float64, 2*chunk*stride)
	scr := make([]scratch, (chunk+buildBlock-1)/buildBlock)
	for i := range scr {
		scr[i] = newScratch(&m.cfg)
	}
	var building sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		d := draws[lo/chunk%2*chunk*stride:][:chunk*stride]
		for i := lo; i < hi; i++ {
			m.draw(d[(i-lo)*stride:][:stride])
		}
		// The previous chunk's build reads the other half of draws; the
		// next chunk draws into it once that build is done.
		building.Wait()
		building.Add(1)
		go func() {
			defer building.Done()
			blocks := (hi - lo + buildBlock - 1) / buildBlock
			pool.Feed(nil, pool.Workers(0, blocks), blocks, func(b int) {
				for i := lo + b*buildBlock; i < min(lo+(b+1)*buildBlock, hi); i++ {
					chips[i] = &slab[i]
					m.build(chips[i], i, d[(i-lo)*stride:][:stride],
						cores[i*c:(i+1)*c:(i+1)*c], margins[i*c*l:(i+1)*c*l:(i+1)*c*l], &scr[b])
				}
			})
		}()
	}
	building.Wait()
	return chips
}

// draw makes one chip's random draws into d (stride long), in the order
// the stream has always been read in: the field's raw cells; then per
// core its random part, its level jitters and its GPU penalty; then
// alpha; then beta's Poisson draw.
func (m *Model) draw(d []float64) {
	cfg := &m.cfg
	nn := m.field.n * m.field.n
	m.field.draw(m.r, d[:nn])
	d = d[nn:]
	levels := cfg.NumLevels
	for c := 0; c < cfg.CoresPerChip; c++ {
		core := d[:levels+2]
		for j := 0; j <= levels; j++ {
			core[j] = m.r.Normal(0, 1) // the random part, then the level jitters
		}
		core[levels+1] = m.r.Normal(cfg.GPUPenaltyMean, cfg.GPUPenaltySigma)
		d = d[levels+2:]
	}
	d[0] = m.r.Normal(cfg.AlphaMean, cfg.AlphaSigma)
	d[1] = float64(m.r.Poisson(cfg.BetaMean))
}

// build fills ch as chip id from its draws d, as laid out by draw,
// handing it cores (CoresPerChip long) and margins
// (CoresPerChip×NumLevels) as backing storage. It smooths the field in
// place in d.
func (m *Model) build(ch *Chip, id int, d []float64, cores []Core, margins []float64, s *scratch) {
	cfg := &m.cfg
	nn := m.field.n * m.field.n
	grid := d[:nn]
	m.field.smooth(grid, s.tmp)
	sys := s.sys
	coreSystematics(grid, m.field.n, sys, s.cnt)
	d = d[nn:]

	meanSys := 0.0
	for _, v := range sys {
		meanSys += v
	}
	meanSys /= float64(len(sys))

	levels := cfg.NumLevels
	for i := range cores {
		core := d[:levels+2]
		ms := margins[i*levels : (i+1)*levels : (i+1)*levels]
		base := cfg.MarginMean +
			cfg.MarginSigmaSys*sys[i] +
			cfg.MarginSigmaRand*core[0]
		for l := range ms {
			v := base + cfg.MarginLevelJit*core[1+l]
			ms[l] = clamp(v, cfg.MarginMin, cfg.MarginMax)
		}
		cores[i] = Core{
			Margins:     ms,
			GPUPenalty:  math.Max(0, core[levels+1]),
			SystematicZ: sys[i],
		}
		d = d[levels+2:]
	}

	ch.ID = id
	ch.Cores = cores
	ch.Alpha = math.Max(0.1, d[0])
	leakScale := 1 + cfg.LeakageCorr*meanSys
	if leakScale < 0.2 {
		leakScale = 0.2
	}
	ch.Beta = math.Max(1, d[1]*leakScale)
}

// coreSystematics maps the n×n row-major field g to one systematic value
// per core in sys, using cnt (same length) as scratch. Quad-core dies
// use quadrant means; other core counts stripe the grid by rows. Cells
// are summed in row-major order.
func coreSystematics(g []float64, n int, sys []float64, cnt []int) {
	cores := len(sys)
	for c := range sys {
		sys[c] = 0
		cnt[c] = 0
	}
	h := n / 2
	for i := 0; i < n; i++ {
		c := i * cores / n
		for j := 0; j < n; j++ {
			if cores == 4 {
				c = 0
				if i >= h {
					c += 2
				}
				if j >= h {
					c++
				}
			}
			sys[c] += g[i*n+j]
			cnt[c]++
		}
	}
	for c := range sys {
		if cnt[c] > 0 {
			sys[c] /= float64(cnt[c])
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
