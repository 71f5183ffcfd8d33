package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// fewer, and the percentile is one or two outliers rather than a tail.
const minTail = 10

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p * float64(n) / 100))
	return min(max(k, 1), n)
}

// beyond counts the samples strictly past the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentiles are the percentiles a tail may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile picks the highest percentile of n samples that still
// has at least minTail samples beyond it; ok is false when even the
// median has fewer.
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minTail {
			return p, true
		}
	}
	return 0, false
}

// latency is a set of per-call wall times.
type latency struct{ samples []float64 }

func (l *latency) add(d time.Duration) { l.samples = append(l.samples, d.Seconds()) }

// tail summarizes the samples at the median and at the wanted
// percentile, which must have at least minTail samples beyond it; the
// error names the highest percentile the count does support.
func (l *latency) tail(want float64) (p50, pWant float64, err error) {
	n := len(l.samples)
	best, ok := highestPercentile(n)
	if !ok || best < want {
		return 0, 0, fmt.Errorf("%d samples support only p%v, not p%v", n, best, want)
	}
	s := slices.Clone(l.samples)
	slices.Sort(s)
	return percentile(s, 50), percentile(s, want), nil
}

// callTail is one run's per-call latency at the median and at p99.
type callTail struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
}

func (l *latency) callTail() (callTail, error) {
	p50, p99, err := l.tail(99)
	return callTail{Samples: len(l.samples), P50: p50 * 1e3, P99: p99 * 1e3}, err
}

// tally counts self-checks and requests: everything attempted, and
// what failed. A failed request counts the same as a failed check.
type tally struct {
	attempted, failed int
	first             string
}

// check records one self-check; a false ok counts as a failure and the
// first failure's message is kept for the report.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if t.first == "" {
			t.first = fmt.Sprintf(format, args...)
		}
	}
}

// request records one call to the system under test.
func (t *tally) request(err error) {
	t.check(err == nil, "request failed: %v", err)
}

// failFrac is the failed share of everything attempted.
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// mean is the average of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func collect[T, V any](xs []T, f func(T) V) []V {
	out := make([]V, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// measure runs f for every input in order. How many inputs a run
// measures never depends on the clock, so its medians and means always
// cover the same inputs.
func measure[R any](inputs []int, f func(i int) (R, error)) ([]R, error) {
	runs := make([]R, 0, len(inputs))
	for _, i := range inputs {
		r, err := f(i)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}
