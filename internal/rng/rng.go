// Package rng provides deterministic, named random streams and the
// statistical distributions used throughout the iScope simulator.
//
// Every stochastic element of the system (process variation, wind,
// workload synthesis, scheduling randomness) draws from its own stream,
// derived from a master seed and a stream name. This guarantees that
// (a) the same Config reproduces identical results, and (b) changing the
// amount of randomness consumed by one subsystem does not perturb any
// other subsystem.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Rand is a deterministic random stream. It wraps math/rand/v2's PCG
// generator and adds the distributions needed by the simulator.
//
// Rand implements encoding.BinaryMarshaler/BinaryUnmarshaler by
// delegating to the underlying PCG state, so a stream can be
// checkpointed mid-sequence and resumed bit-identically. None of the
// derived distributions cache state between draws, so the PCG state is
// the complete stream state.
type Rand struct {
	src *rand.Rand
	pcg *rand.PCG
}

// New returns a stream seeded directly with (seed, stream).
func New(seed, stream uint64) *Rand {
	pcg := rand.NewPCG(seed, stream)
	return &Rand{src: rand.New(pcg), pcg: pcg}
}

// MarshalBinary captures the stream's exact position.
func (r *Rand) MarshalBinary() ([]byte, error) { return r.pcg.MarshalBinary() }

// UnmarshalBinary rewinds (or fast-forwards) the stream to a captured
// position; subsequent draws replay exactly.
func (r *Rand) UnmarshalBinary(data []byte) error { return r.pcg.UnmarshalBinary(data) }

// Named derives a stream from a master seed and a human-readable name.
// Distinct names yield statistically independent streams.
func Named(seed uint64, name string) *Rand { return New(seed, streamOf(name)) }

// streamOf is the PCG stream id a name selects: its FNV-64a hash.
func streamOf(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}

// Split derives a child stream; child i of the same parent state is
// deterministic given the parent's construction parameters.
func (r *Rand) Split(name string) *Rand { return New(r.src.Uint64(), streamOf(name)) }

// SplitN derives n child streams at once: child i draws exactly what
// the i-th of n successive Split(name) calls would return. The children
// live in three slabs, so n streams cost three allocations, not 3n.
func (r *Rand) SplitN(name string, n int) []Rand {
	stream := streamOf(name)
	pcgs := make([]rand.PCG, n)
	srcs := make([]rand.Rand, n)
	out := make([]Rand, n)
	for i := range out {
		pcgs[i].Seed(r.src.Uint64(), stream)
		srcs[i] = *rand.New(&pcgs[i])
		out[i] = Rand{src: &srcs[i], pcg: &pcgs[i]}
	}
	return out
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform int in [0,n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uniform returns a uniform value in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a draw from N(mean, stddev²).
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// TruncNormal returns a draw from N(mean, stddev²) truncated to [lo,hi]
// by rejection; after 1000 rejections it clamps, so it always terminates.
func (r *Rand) TruncNormal(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 1000; i++ {
		v := r.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns a draw whose natural log is N(mu, sigma²).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns a draw from Exp(rate); mean is 1/rate.
func (r *Rand) Exponential(rate float64) float64 {
	return r.src.ExpFloat64() / rate
}

// Weibull returns a draw from Weibull(shape k, scale lambda) via the
// inverse-CDF method.
func (r *Rand) Weibull(k, lambda float64) float64 {
	u := r.src.Float64()
	// Guard against u == 0, where Log would produce +Inf.
	for u == 0 {
		u = r.src.Float64()
	}
	return lambda * math.Pow(-math.Log(u), 1/k)
}

// Poisson returns a draw from Poisson(mean). For small means it uses
// Knuth's product method; for large means a normal approximation with
// continuity correction, which is accurate to well under a count for the
// mean≈65 used by the static-power model.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.src.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := r.Normal(mean, math.Sqrt(mean))
	n := int(math.Round(v))
	if n < 0 {
		n = 0
	}
	return n
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// PermInto writes a random permutation of [0,len(dst)) into dst. It
// returns and consumes exactly what Perm(len(dst)) would, so the two
// are interchangeable without perturbing downstream draws. rand/v2's
// Perm is an identity fill followed by Shuffle, a Fisher–Yates loop
// that swaps through a closure and draws each index through the Source
// interface. PermInto runs the same loop with the swap inline, draws
// straight from the PCG, and skips the allocation.
func (r *Rand) PermInto(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j, ok := bounded(r.pcg.Uint64(), uint64(i+1))
		for !ok {
			j, ok = bounded(r.pcg.Uint64(), uint64(i+1))
		}
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// bounded reduces a uniform 64-bit draw x to [0,n), n > 0, as rand/v2's
// Uint64N does on a 64-bit platform: a mask when n is a power of two,
// otherwise the high word of x·n (Lemire's multiply-high reduction).
// ok is false when x·n's low word falls below 2⁶⁴ mod n, the zone that
// would bias the result; Uint64N then draws again, and so must the
// caller. rand/v2's 32-bit path is built to return the same sequence,
// so drawing until ok matches Uint64N on every platform. bounded makes
// no draw of its own so that it inlines into the caller's loop.
func bounded(x, n uint64) (v uint64, ok bool) {
	if n&(n-1) == 0 {
		return x & (n - 1), true
	}
	hi, lo := bits.Mul64(x, n)
	// 2⁶⁴ mod n is below n, so the division runs only when lo < n.
	return hi, lo >= n || lo >= -n%n
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// SampleInts returns k distinct uniform values from [0,n) in random
// order. It panics if k > n. For k close to n it shuffles; for small k
// it uses Floyd's algorithm to stay O(k).
func (r *Rand) SampleInts(n, k int) []int {
	if k > n {
		panic("rng: SampleInts k > n")
	}
	if k*3 >= n {
		p := r.Perm(n)
		return p[:k]
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
