package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var visited [100]int32
		err := ForEach(100, workers, func(i int) error {
			atomic.AddInt32(&visited[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range visited {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(50, 4, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := ForEach(0, 4, func(i int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachSequentialFallbackStopsEarly(t *testing.T) {
	boom := errors.New("stop")
	count := 0
	err := ForEach(100, 1, func(i int) error {
		count++
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || count != 6 {
		t.Fatalf("sequential mode: err=%v count=%d", err, count)
	}
}

func TestForEachStopsDispatchAfterError(t *testing.T) {
	const n = 10000
	boom := errors.New("boom")
	var calls atomic.Int64
	err := ForEach(n, 4, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Each of the other three workers finishes the call it holds and may
	// claim one more before it sees the failure; a producer that keeps
	// feeding indices runs all n.
	if c := calls.Load(); c >= n/10 {
		t.Fatalf("%d of %d calls ran after the first failure", c, n)
	}
}

func TestForEachReturnsLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 50; trial++ {
			err := ForEach(200, workers, func(i int) error {
				if i == 30 || i == 60 || i == 199 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 30" {
				t.Fatalf("workers=%d: got %v, want the error of index 30", workers, err)
			}
		}
	}
}

func TestForEachWorkerIndexInRange(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		nw := Workers(100, workers)
		var busy [64]atomic.Int32
		err := ForEachWorker(100, workers, func(w, i int) error {
			if w < 0 || w >= nw {
				return fmt.Errorf("worker index %d outside [0,%d)", w, nw)
			}
			// A worker index names one goroutine: never two calls at once.
			if busy[w].Add(1) != 1 {
				return fmt.Errorf("worker %d ran two calls at once", w)
			}
			busy[w].Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	if got := Workers(0, 4); got != 1 {
		t.Fatalf("Workers(0, 4) = %d, want 1", got)
	}
}
