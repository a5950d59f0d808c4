// Package fanout runs a handful of independent, CPU-heavy builds — one
// dataset each at server start-up, one shard each when a corpus is split —
// on every core the process may use.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(0) … fn(n-1) on at most GOMAXPROCS goroutines, the caller's
// among them, and returns once every started call has returned.  Each fn
// writes its result into the caller's slot i, so after a nil return the
// caller commits the results in input order.  After a failure no further
// index is started, and the error returned is that of the lowest failed
// index — a build's own error, never a sibling's.
func Do(n int, fn func(i int) error) error {
	return do(runtime.GOMAXPROCS(0), n, fn)
}

func do(width, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	worker := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(width, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
