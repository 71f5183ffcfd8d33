package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := Named(42, "wind")
	b := Named(42, "wind")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestNamedStreamsIndependent(t *testing.T) {
	a := Named(42, "wind")
	b := Named(42, "workload")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct names produced %d identical draws out of 1000", same)
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := Named(1, "x")
	b := Named(2, "x")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := Named(7, "parent").Split("child")
	b := Named(7, "parent").Split("child")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at %d", i)
		}
	}
}

// TestSplitNMatchesSplit: the slab of children draws what successive
// Split calls return, and leaves the parent where they would.
func TestSplitNMatchesSplit(t *testing.T) {
	a, b := Named(7, "parent"), Named(7, "parent")
	slab := a.SplitN("chip", 5)
	for i := range slab {
		one := b.Split("chip")
		for d := 0; d < 20; d++ {
			if got, want := slab[i].Normal(0, 1), one.Normal(0, 1); got != want {
				t.Fatalf("child %d draw %d: slab %v, Split %v", i, d, got, want)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitN left the parent at a different position than Split")
	}
}

func TestUniformRange(t *testing.T) {
	r := Named(1, "u")
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := Named(3, "norm")
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(7.5, 0.75)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-7.5) > 0.02 {
		t.Errorf("normal mean = %v, want ~7.5", mean)
	}
	if math.Abs(variance-0.75*0.75) > 0.02 {
		t.Errorf("normal variance = %v, want ~%v", variance, 0.75*0.75)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := Named(4, "trunc")
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(2.5, 5.0, 0.6, 3.5)
		if v < 0.6 || v > 3.5 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	// Mean far outside a tiny window: rejection will fail, must clamp.
	r := Named(5, "degenerate")
	v := r.TruncNormal(100, 1e-9, 0, 1)
	if v < 0 || v > 1 {
		t.Fatalf("degenerate TruncNormal escaped bounds: %v", v)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := Named(6, "poisson")
	for _, mean := range []float64{3, 15, 65, 200} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.02 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := Named(7, "poisnn")
	for i := 0; i < 10000; i++ {
		if r.Poisson(65) < 0 {
			t.Fatal("Poisson returned negative value")
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestWeibullMoments(t *testing.T) {
	r := Named(8, "weibull")
	// Weibull(k=2, lambda=8): mean = lambda * Gamma(1 + 1/2) = 8*sqrt(pi)/2.
	want := 8 * math.Sqrt(math.Pi) / 2
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(2, 8)
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("Weibull mean = %v, want ~%v", got, want)
	}
}

func TestExponentialMean(t *testing.T) {
	r := Named(9, "exp")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(0.25)
	}
	got := sum / n
	if math.Abs(got-4)/4 > 0.02 {
		t.Errorf("Exponential(0.25) mean = %v, want ~4", got)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := Named(10, "lognorm")
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(3, 1.5)
	}
	// Median of LogNormal(mu, sigma) is exp(mu).
	below := 0
	want := math.Exp(3)
	for _, v := range vals {
		if v < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestSampleIntsProperties(t *testing.T) {
	r := Named(11, "sample")
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleInts(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntsPanicsWhenKTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	Named(12, "p").SampleInts(3, 4)
}

func TestSampleIntsCoversRange(t *testing.T) {
	r := Named(13, "cover")
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		for _, v := range r.SampleInts(10, 3) {
			seen[v] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("SampleInts never produced some values: got %d/10", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := Named(14, "perm")
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestWeibullPositive(t *testing.T) {
	r := Named(15, "wpos")
	for i := 0; i < 10000; i++ {
		if v := r.Weibull(2, 8); v < 0 {
			t.Fatalf("Weibull negative: %v", v)
		}
	}
}

// PermInto must consume the stream exactly as Perm does: same
// permutation from the same state, and identical follow-up draws. The
// sizes cover the empty and one-entry cases, the power-of-two mask
// path at every step, and the paper's 4,800-proc fleet.
func TestPermIntoStreamEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 33, 64, 100, 1024, 4096, 4800} {
			a := New(seed, uint64(n))
			b := New(seed, uint64(n))
			want := a.Perm(n)
			got := make([]int, n)
			b.PermInto(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, n=%d: PermInto = %v, want %v", seed, n, got, want)
			}
			if au, bu := a.Uint64(), b.Uint64(); au != bu {
				t.Fatalf("seed %d, n=%d: streams diverged after permutation: %d vs %d", seed, n, au, bu)
			}
		}
	}
}

// Drawing until bounded accepts must return exactly what rand/v2's
// Uint64N returns from the same stream, rejections included: at 3<<62
// a quarter of the draws are rejected, at 1<<63+1 about half, and at
// MaxUint64 every draw reaches the threshold test.
func TestBoundedMatchesUint64N(t *testing.T) {
	sizes := []uint64{1, 2, 3, 5, 7, 64, 1000, 4800, 1 << 32, 1<<32 + 1, 1 << 62, 3 << 62, 1<<63 + 1, math.MaxUint64}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, n := range sizes {
			a := New(seed, n)
			b := New(seed, n)
			rejected := 0
			for k := 0; k < 200; k++ {
				got, ok := bounded(a.Uint64(), n)
				for ; !ok; rejected++ {
					got, ok = bounded(a.Uint64(), n)
				}
				if want := b.src.Uint64N(n); got != want {
					t.Fatalf("seed %d, n=%d, draw %d: bounded = %d, Uint64N = %d", seed, n, k, got, want)
				}
			}
			if au, bu := a.Uint64(), b.Uint64(); au != bu {
				t.Fatalf("seed %d, n=%d: streams diverged after 200 draws: %d vs %d", seed, n, au, bu)
			}
			if n == 3<<62 && rejected == 0 {
				t.Fatalf("seed %d, n=%d: no draw was rejected in 200", seed, n)
			}
		}
	}
}

func TestPermIntoAllocFree(t *testing.T) {
	r := New(1, 2)
	buf := make([]int, 96)
	allocs := testing.AllocsPerRun(100, func() { r.PermInto(buf) })
	if allocs != 0 {
		t.Fatalf("PermInto allocated %v per run, want 0", allocs)
	}
}

// BenchmarkPermInto draws one permutation of the paper's 4,800-proc
// fleet per op, as the Random policy does per arrival.
func BenchmarkPermInto(b *testing.B) {
	r := New(1, 2)
	buf := make([]int, 4800)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PermInto(buf)
	}
}
