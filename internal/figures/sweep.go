package figures

import (
	"errors"
	"fmt"
	"sync"
)

// sweepWorkers is the number of sweep points a figure may run concurrently.
// Each sweep point builds its own machine and runtime, so points share no
// simulation state; 1 (the default) reproduces the historical fully
// sequential behaviour.
var sweepWorkers = 1

// SetWorkers sets the per-figure sweep parallelism: how many independent
// sweep points (PE counts, policies, configurations) run concurrently on
// host threads. Figure tables are assembled from sweep results in index
// order after all points complete, so output is byte-identical for every
// worker count. n < 1 is treated as 1.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	sweepWorkers = n
}

// Workers returns the current sweep parallelism.
//
//charmvet:unreached test oracle: cmd/figures' usage test checks that a refused run leaves it unset
func Workers() int { return sweepWorkers }

// sweep evaluates fn for every point 0..n-1, up to sweepWorkers at a time,
// and returns the results in point order. A point that fails or panics does
// not abort the others: every point runs to completion, and the error (if
// any) joins one labeled entry per failed point, so a sweep over many PE
// counts reports exactly which configurations broke.
func sweep[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if sweepWorkers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = runPoint(i, fn)
		}
	} else {
		sem := make(chan struct{}, sweepWorkers)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				out[i], errs[i] = runPoint(i, fn)
			}(i)
		}
		wg.Wait()
	}
	return out, errors.Join(errs...)
}

// runPoint evaluates one sweep point and labels its error. Figure helpers
// return app errors; the recover is the guard for the runtime's own
// panics, which become a labeled error too.
func runPoint[T any](i int, fn func(i int) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep point %d: panic: %v", i, r)
		}
	}()
	out, err = fn(i)
	if err != nil {
		err = fmt.Errorf("sweep point %d: %w", i, err)
	}
	return out, err
}
