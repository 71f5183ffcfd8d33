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
type Model struct {
	cfg   Config
	field *CorrelatedField
	r     *rng.Rand

	// Per-chip scratch: the n×n field and its convolution buffer, and
	// the per-core systematics with their cell counts.
	grid, tmp []float64
	sys       []float64
	cnt       []int
}

// NewModel validates cfg and constructs a generator.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.GridSize
	return &Model{
		cfg:   cfg,
		field: NewCorrelatedField(n, cfg.CorrRange),
		r:     rng.Named(cfg.Seed, "variation"),
		grid:  make([]float64, n*n),
		tmp:   make([]float64, n*n),
		sys:   make([]float64, cfg.CoresPerChip),
		cnt:   make([]int, cfg.CoresPerChip),
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
	m.generate(ch, id, make([]Core, m.cfg.CoresPerChip), make([]float64, m.cfg.CoresPerChip*m.cfg.NumLevels))
	return ch
}

// GenerateFleet creates n chips with IDs 0..n-1. The chips, their cores
// and their margins live in three slabs; every chip's Cores and every
// core's Margins is a full slice expression over its slab, so an
// append to one cannot reach a neighbour.
func (m *Model) GenerateFleet(n int) []*Chip {
	c, l := m.cfg.CoresPerChip, m.cfg.NumLevels
	chips := make([]*Chip, n)
	slab := make([]Chip, n)
	cores := make([]Core, n*c)
	margins := make([]float64, n*c*l)
	for i := range chips {
		chips[i] = &slab[i]
		m.generate(chips[i], i, cores[i*c:(i+1)*c:(i+1)*c], margins[i*c*l:(i+1)*c*l:(i+1)*c*l])
	}
	return chips
}

// generate fills ch as chip id, handing it cores (CoresPerChip long) and
// margins (CoresPerChip×NumLevels) as backing storage. Draws come in a
// fixed order: the field, then per core its random part, its level
// jitters and its GPU penalty, then alpha, then beta's Poisson draw.
func (m *Model) generate(ch *Chip, id int, cores []Core, margins []float64) {
	cfg := &m.cfg
	m.field.Fill(m.r, m.grid, m.tmp)
	sys := m.sys
	coreSystematics(m.grid, m.field.n, sys, m.cnt)

	meanSys := 0.0
	for _, s := range sys {
		meanSys += s
	}
	meanSys /= float64(len(sys))

	levels := cfg.NumLevels
	for i := range cores {
		ms := margins[i*levels : (i+1)*levels : (i+1)*levels]
		base := cfg.MarginMean +
			cfg.MarginSigmaSys*sys[i] +
			cfg.MarginSigmaRand*m.r.Normal(0, 1)
		for l := range ms {
			v := base + cfg.MarginLevelJit*m.r.Normal(0, 1)
			ms[l] = clamp(v, cfg.MarginMin, cfg.MarginMax)
		}
		cores[i] = Core{
			Margins:     ms,
			GPUPenalty:  math.Max(0, m.r.Normal(cfg.GPUPenaltyMean, cfg.GPUPenaltySigma)),
			SystematicZ: sys[i],
		}
	}

	ch.ID = id
	ch.Cores = cores
	ch.Alpha = math.Max(0.1, m.r.Normal(cfg.AlphaMean, cfg.AlphaSigma))
	leakScale := 1 + cfg.LeakageCorr*meanSys
	if leakScale < 0.2 {
		leakScale = 0.2
	}
	ch.Beta = math.Max(1, float64(m.r.Poisson(cfg.BetaMean))*leakScale)
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
