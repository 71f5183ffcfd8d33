package variation

import (
	"math"
	"testing"

	"iscope/internal/rng"
)

// generateOracle is the original two-dimensional field generator: a
// freshly allocated [][]float64 per pass, the effective weights
// recomputed per field and one output at a time. Fill must match it
// bit for bit.
func generateOracle(f *CorrelatedField, r *rng.Rand) [][]float64 {
	n := f.n
	raw := make([][]float64, n)
	for i := range raw {
		raw[i] = make([]float64, n)
		for j := range raw[i] {
			raw[i][j] = r.Normal(0, 1)
		}
	}
	if f.radius == 0 {
		return raw
	}
	w := effectiveWeights(f.kernel, f.radius, n)
	tmp := convolveRowsOracle(raw, f.kernel, f.radius, w)
	return convolveColsOracle(tmp, f.kernel, f.radius, w)
}

func convolveRowsOracle(g [][]float64, k []float64, radius int, invNorm []float64) [][]float64 {
	n := len(g)
	out := make([][]float64, n)
	for i := range g {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			sum := 0.0
			for d := -radius; d <= radius; d++ {
				jj := clampIndex(j+d, n)
				sum += g[i][jj] * k[d+radius]
			}
			out[i][j] = sum * invNorm[j]
		}
	}
	return out
}

func convolveColsOracle(g [][]float64, k []float64, radius int, invNorm []float64) [][]float64 {
	n := len(g)
	out := make([][]float64, n)
	for i := range g {
		out[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			sum := 0.0
			for d := -radius; d <= radius; d++ {
				ii := clampIndex(i+d, n)
				sum += g[ii][j] * k[d+radius]
			}
			out[i][j] = sum * invNorm[i]
		}
	}
	return out
}

// TestFillMatchesOracle pins the flat, blocked convolution to the
// original generator bit for bit. The sizes run the 8-wide path, the
// one-output tail and their mixes (2, 3, 5: tail only; 8: 8; 9: 8+1;
// 12: 8+4; 16: 8+8), and the wider correlation ranges give kernels
// whose radius exceeds the grid, so taps clamp at both edges.
func TestFillMatchesOracle(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 9, 12, 16} {
		for _, corr := range []float64{0, 0.4, 1.5, 2, 4} {
			f := NewCorrelatedField(n, corr)
			got, tmp := make([]float64, n*n), make([]float64, n*n)
			a, b := newTestRand(uint64(100*n)+uint64(10*corr)), newTestRand(uint64(100*n)+uint64(10*corr))
			for trial := 0; trial < 20; trial++ {
				f.Fill(a, got, tmp)
				want := generateOracle(f, b)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if g, w := got[i*n+j], want[i][j]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("n=%d corr=%v trial %d: cell (%d,%d) = %v, oracle %v", n, corr, trial, i, j, g, w)
						}
					}
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d corr=%v: Fill consumed a different number of draws than the oracle", n, corr)
			}
		}
	}
}

// TestGenerateFleetMatchesChipByChip pins the pipelined fleet generator
// to GenerateChip: on twin models, GenerateFleet(n) must make exactly
// the chips GenerateChip(0…n−1) makes, bit for bit, and leave the
// stream at the same position. The sizes cover one chip, a partial
// first chunk, one exact chunk, one chip into the second chunk and a
// partial last chunk after several full ones; the configurations are
// those the fleet digests pin.
func TestGenerateFleetMatchesChipByChip(t *testing.T) {
	configs := map[string]func(*Config){
		"default":        func(*Config) {},
		"cores=2":        func(c *Config) { c.CoresPerChip = 2 },
		"cores=6":        func(c *Config) { c.CoresPerChip = 6 },
		"grid=3":         func(c *Config) { c.GridSize = 3 },
		"grid=16,corr=2": func(c *Config) { c.GridSize, c.CorrRange = 16, 2 },
		"corr=0":         func(c *Config) { c.CorrRange = 0 },
	}
	for name, edit := range configs {
		cfg := DefaultConfig(11)
		edit(&cfg)
		for _, n := range []int{1, drawChunk - 1, drawChunk, drawChunk + 1, 3*drawChunk + 5} {
			fleetModel, chipModel := mustModel(t, cfg), mustModel(t, cfg)
			fleet := fleetModel.GenerateFleet(n)
			if len(fleet) != n {
				t.Fatalf("%s: GenerateFleet(%d) made %d chips", name, n, len(fleet))
			}
			for id, got := range fleet {
				if want := chipModel.GenerateChip(id); !sameChip(got, want) {
					t.Fatalf("%s, n=%d: chip %d is %+v, GenerateChip made %+v", name, n, id, got, want)
				}
			}
			if fleetModel.r.Uint64() != chipModel.r.Uint64() {
				t.Fatalf("%s, n=%d: GenerateFleet left the stream elsewhere than GenerateChip", name, n)
			}
		}
	}
}

// sameChip reports whether a and b hold the same fields, comparing
// floats by their bits.
func sameChip(a, b *Chip) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.ID != b.ID || !same(a.Alpha, b.Alpha) || !same(a.Beta, b.Beta) || len(a.Cores) != len(b.Cores) {
		return false
	}
	for i := range a.Cores {
		ca, cb := &a.Cores[i], &b.Cores[i]
		if !same(ca.GPUPenalty, cb.GPUPenalty) || !same(ca.SystematicZ, cb.SystematicZ) || len(ca.Margins) != len(cb.Margins) {
			return false
		}
		for l := range ca.Margins {
			if !same(ca.Margins[l], cb.Margins[l]) {
				return false
			}
		}
	}
	return true
}
