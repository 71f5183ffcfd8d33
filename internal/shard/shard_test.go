package shard

import (
	"sync/atomic"
	"testing"
)

func TestRangePartitions(t *testing.T) {
	for _, n := range []int{0, 1, 5, 7, 8, 16, 17, 100, 4800, 48000} {
		for _, k := range []int{1, 2, 3, 4, 7, 8, 16} {
			prev := 0
			for s := 0; s < k; s++ {
				lo, hi := Range(n, k, s)
				if lo != prev {
					t.Fatalf("n=%d k=%d s=%d: lo=%d, want %d (contiguous cover)", n, k, s, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d k=%d s=%d: hi=%d < lo=%d", n, k, s, hi, lo)
				}
				if n >= 2*cacheAlign*k && s > 0 && lo%cacheAlign != 0 {
					t.Fatalf("n=%d k=%d s=%d: interior boundary %d not %d-aligned", n, k, s, lo, cacheAlign)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d k=%d: shards cover [0,%d), want [0,%d)", n, k, prev, n)
			}
		}
	}
}

func TestPoolRunCoversAllIndices(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		p := NewPool(k)
		n := 10000
		marks := make([]int32, n)
		p.Run(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				marks[i]++
			}
		})
		p.Close()
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("k=%d: index %d visited %d times", k, i, m)
			}
		}
	}
}

func TestPoolRunInvokesEveryShard(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var hits atomic.Int64
	// n=0 gives every shard an empty range; the kernel must still run
	// once per shard (per-shard kernels rely on this).
	p.Run(0, func(s, lo, hi int) {
		if lo != 0 || hi != 0 {
			t.Errorf("shard %d: range [%d,%d), want empty", s, lo, hi)
		}
		hits.Add(1)
	})
	if hits.Load() != 4 {
		t.Fatalf("kernel ran %d times, want 4", hits.Load())
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // second close must not panic
	var nilPool *Pool
	nilPool.Close()
	if nilPool.Workers() != 1 {
		t.Fatalf("nil pool width = %d, want 1", nilPool.Workers())
	}
	NewPool(1).Close() // inline pool close is a no-op
}
