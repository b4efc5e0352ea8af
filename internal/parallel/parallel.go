// Package parallel provides the small worker-pool helper the scheme
// builders use to parallelize their per-node preprocessing loops (each
// node's table depends only on read-only shared state).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker count for n items: workers <= 0 selects
// GOMAXPROCS, and the result is clamped to [1, max(n, 1)].
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach invokes fn(i) for i in [0, n) across a pool of workers.
// workers <= 0 selects GOMAXPROCS. fn calls for distinct i may run
// concurrently; callers must ensure per-i writes are disjoint.
//
// Indices are dispatched in increasing order and dispatch stops once a
// call fails. The error returned is that of the lowest failing index,
// which is the one a sequential loop would return: every index below a
// dispatched one was dispatched too, so the outcome does not depend on
// the worker count or the schedule.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachWorker(n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach passing each call the index w in
// [0, Workers(n, workers)) of the worker running it, so callers can keep
// one scratch buffer per worker.
func ForEachWorker(n, workers int, fn func(w, i int) error) error {
	workers = Workers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		errIdx   = n
		firstErr error
	)
	work := func(w int) {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(w, i); err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	// The caller is worker 0, so a pool of k workers starts k-1
	// goroutines.
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	return firstErr
}
