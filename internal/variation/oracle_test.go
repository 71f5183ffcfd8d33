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
