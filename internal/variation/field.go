package variation

import (
	"math"

	"iscope/internal/rng"
)

// CorrelatedField generates spatially correlated Gaussian fields on an
// n×n grid, used to model the systematic (within-die, spatially
// correlated) component of process variation in the VARIUS style: raw
// white noise is smoothed with a Gaussian kernel whose radius sets the
// correlation range, then re-normalized to unit variance.
type CorrelatedField struct {
	n      int
	kernel []float64 // 1-D separable Gaussian kernel, length 2*radius+1
	radius int
	// inv[a] is 1/||w_a||_2, where w_a are the effective (clamp-folded)
	// kernel weights at output index a. It depends only on the kernel
	// and n, so it is computed once here rather than per field.
	inv []float64
}

// NewCorrelatedField builds a field generator for an n×n grid with a
// correlation range of corrRange grid cells (the Gaussian kernel's
// sigma). corrRange <= 0 degenerates to white noise.
func NewCorrelatedField(n int, corrRange float64) *CorrelatedField {
	f := &CorrelatedField{n: n}
	if corrRange <= 0 {
		f.kernel = []float64{1}
		return f
	}
	f.radius = int(math.Ceil(3 * corrRange))
	f.kernel = make([]float64, 2*f.radius+1)
	for i := range f.kernel {
		d := float64(i - f.radius)
		f.kernel[i] = math.Exp(-d * d / (2 * corrRange * corrRange))
	}
	f.inv = effectiveWeights(f.kernel, f.radius, n)
	return f
}

// N returns the grid side length.
func (f *CorrelatedField) N() int { return f.n }

// Fill draws one realization of the field into out: an n×n row-major
// grid of zero-mean unit-variance Gaussians with the configured spatial
// correlation. tmp is n×n scratch. Fill allocates nothing. It is draw
// followed by smooth; only draw reads the stream.
func (f *CorrelatedField) Fill(r *rng.Rand, out, tmp []float64) {
	f.draw(r, out)
	f.smooth(out, tmp)
}

// draw fills out with the field's n×n raw unit Gaussians. The grid is
// drawn row-major; with a kernel it is stored transposed (cell (i,j) at
// out[j*n+i]), so smooth's row pass reads contiguous lines.
func (f *CorrelatedField) draw(r *rng.Rand, out []float64) {
	n := f.n
	out = out[:n*n]
	if f.radius == 0 {
		for i := range out {
			out[i] = r.Normal(0, 1)
		}
		return
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[j*n+i] = r.Normal(0, 1)
		}
	}
}

// smooth turns draw's raw grid in out into the correlated field, in
// place, using tmp (n×n) as scratch; white noise is left as drawn.
//
// It is a separable convolution with edge clamping. Clamping folds
// out-of-range taps onto the border cells, so each output index gets
// its own effective weight vector; normalizing by the L2 norm of those
// effective weights makes every 1-D pass exactly variance-preserving
// for iid inputs. Rows are generated independently, so the column pass
// again sees independent unit-variance inputs down each column and the
// final field has unit variance everywhere.
func (f *CorrelatedField) smooth(out, tmp []float64) {
	if f.radius == 0 {
		return
	}
	n := f.n
	out, tmp = out[:n*n], tmp[:n*n]
	f.pass(tmp, out, 1, n) // rows: tmp[i][j] from cells (i, j-r..j+r)
	f.pass(out, tmp, n, 1) // columns: out[i][j] from tmp (i-r..i+r, j)
}

// pass convolves the lines of src (n×n, one contiguous line per index
// a) across lines: for every line a and position b it stores
//
//	dst[a*sa+b*sb] = (Σ_{d=-r..r} src[clamp(a+d)][b]·k[d+r]) · inv[a].
//
// Every output starts at 0, adds its tap products in order d = −r…r and
// takes one multiply by its weight, exactly as a one-output-at-a-time
// loop does; blocking eight outputs into register accumulators only
// interleaves the work of different outputs.
func (f *CorrelatedField) pass(dst, src []float64, sa, sb int) {
	n, r, k := f.n, f.radius, f.kernel
	for a := 0; a < n; a++ {
		w := f.inv[a]
		b := 0
		for ; b+8 <= n; b += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for d := -r; d <= r; d++ {
				line := src[clampIndex(a+d, n)*n+b:]
				line = line[:8:8]
				kk := k[d+r]
				s0 += line[0] * kk
				s1 += line[1] * kk
				s2 += line[2] * kk
				s3 += line[3] * kk
				s4 += line[4] * kk
				s5 += line[5] * kk
				s6 += line[6] * kk
				s7 += line[7] * kk
			}
			o := a*sa + b*sb
			dst[o] = s0 * w
			dst[o+sb] = s1 * w
			dst[o+2*sb] = s2 * w
			dst[o+3*sb] = s3 * w
			dst[o+4*sb] = s4 * w
			dst[o+5*sb] = s5 * w
			dst[o+6*sb] = s6 * w
			dst[o+7*sb] = s7 * w
		}
		for ; b < n; b++ {
			s := 0.0
			for d := -r; d <= r; d++ {
				s += src[clampIndex(a+d, n)*n+b] * k[d+r]
			}
			dst[a*sa+b*sb] = s * w
		}
	}
}

// effectiveWeights returns, for each output index j, 1/||w_j||_2 where
// w_j are the effective (clamp-folded) kernel weights at index j.
func effectiveWeights(k []float64, radius, n int) []float64 {
	inv := make([]float64, n)
	folded := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range folded {
			folded[i] = 0
		}
		for d := -radius; d <= radius; d++ {
			folded[clampIndex(j+d, n)] += k[d+radius]
		}
		ss := 0.0
		for _, w := range folded {
			ss += w * w
		}
		inv[j] = 1 / math.Sqrt(ss)
	}
	return inv
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
