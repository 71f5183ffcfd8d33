// Package pool is the one worker-pool idiom the repo uses for coarse
// task fan-out — feed item indices through a channel to a fixed set of
// goroutines, stop feeding on context cancellation, wait for in-flight
// work — extracted from its previously duplicated copies in
// internal/profiling (fleet scans) and internal/experiments (grid
// cells).
//
// This is deliberately the *coarse* pool: items are independent and
// arbitrarily sized, order of execution does not matter, and results
// are collected by the caller under its own lock. A single simulation
// runs on one goroutine; parallelism lives between independent runs.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a requested worker count for n items: positive
// values pass through, zero or less means GOMAXPROCS, and the result
// is capped at n and floored at one.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Feed runs fn(i) for every i in [0, n) on the given number of worker
// goroutines. Indices are handed out through an unbuffered channel;
// when ctx is canceled the remaining indices are abandoned, in-flight
// calls finish, and Feed returns after every started call has
// completed. A nil ctx never cancels. fn synchronizes its own access
// to shared state.
func Feed(ctx context.Context, workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return
			default:
			}
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case ch <- i:
		case <-done:
			break feed
		}
	}
	close(ch)
	wg.Wait()
}
