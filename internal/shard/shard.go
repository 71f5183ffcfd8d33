// Package shard is the deterministic data-parallel substrate the
// scheduler's fair-order pass runs on: fixed shard boundaries that
// depend only on (n, workers) and a pool of persistent worker
// goroutines with low-overhead dispatch.
//
// Which elements a shard owns depends only on the input size and the
// worker count — never on goroutine timing — so concurrency changes
// how long a call takes, never what it computes.
package shard

import "sync"

// cacheAlign is the shard-boundary alignment in elements: 8 eight-byte
// elements span one 64-byte cache line, so adjacent shards filling
// their own ranges of a flat array never write the same line.
const cacheAlign = 8

// Range returns shard s's half-open index range over [0, n) split into
// the given number of shards. When n is large enough, interior
// boundaries are rounded down to cacheAlign multiples so per-element
// writes from different shards stay on disjoint cache lines; tiny
// inputs use plain proportional bounds instead (aligning them would
// collapse most shards to empty). Either way the bounds are a pure
// function of (n, shards, s).
func Range(n, shards, s int) (lo, hi int) {
	if shards <= 1 {
		return 0, n
	}
	if n >= 2*cacheAlign*shards {
		lo = (s * n / shards) &^ (cacheAlign - 1)
		if s == shards-1 {
			return lo, n
		}
		return lo, ((s + 1) * n / shards) &^ (cacheAlign - 1)
	}
	lo = s * n / shards
	if s == shards-1 {
		return lo, n
	}
	return lo, (s + 1) * n / shards
}

// Pool runs kernels over fixed shards on persistent worker goroutines.
// Worker w always executes shard w, and the calling goroutine runs
// shard 0 inline, so a dispatch costs one channel send per extra
// worker and no goroutine creation. A pool with one worker runs
// everything inline and owns no goroutines at all.
//
// A Pool is not reentrant: Run and Close must be called from a single
// goroutine (the simulation event loop).
type Pool struct {
	workers int
	sig     []chan struct{}
	wg      sync.WaitGroup
	closed  bool

	// Dispatch arguments, published before the signal sends and read
	// by workers after the receive (channel happens-before).
	fn func(shard, lo, hi int)
	n  int
}

// NewPool creates a pool of the given width. Widths below 2 yield an
// inline-serial pool (no goroutines). Close must be called when the
// pool is no longer needed; an inline pool's Close is a no-op.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	p.sig = make([]chan struct{}, workers)
	for w := 1; w < workers; w++ {
		ch := make(chan struct{}, 1)
		p.sig[w] = ch
		go p.worker(w, ch)
	}
	return p
}

// Workers returns the pool width; a nil pool counts as serial.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

func (p *Pool) worker(w int, ch chan struct{}) {
	for range ch {
		lo, hi := Range(p.n, p.workers, w)
		p.fn(w, lo, hi)
		p.wg.Done()
	}
}

// Run executes fn once per shard over [0, n): worker w gets
// Range(n, workers, w), shard 0 runs on the calling goroutine, and Run
// returns after every shard has finished. fn is invoked for every
// shard even when its range is empty, so a kernel that keeps per-shard
// state sees every shard on every call.
func (p *Pool) Run(n int, fn func(shard, lo, hi int)) {
	if p == nil || p.workers == 1 {
		fn(0, 0, n)
		return
	}
	p.fn, p.n = fn, n
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.sig[w] <- struct{}{}
	}
	lo, hi := Range(n, p.workers, 0)
	fn(0, lo, hi)
	p.wg.Wait()
	p.fn = nil
}

// Close stops the worker goroutines. The pool must be idle; Run after
// Close panics (send on closed channel). Safe to call twice and on a
// nil or inline pool.
func (p *Pool) Close() {
	if p == nil || p.workers == 1 || p.closed {
		return
	}
	p.closed = true
	for w := 1; w < p.workers; w++ {
		close(p.sig[w])
	}
}
