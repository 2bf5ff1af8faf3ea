// Package sweep runs independent experiment configurations
// concurrently on a bounded worker pool while preserving input order
// in the results. Simulations are deterministic and independent, so
// sweeps parallelize perfectly; the experiments package uses this to
// regenerate multi-cell figures at full CPU width.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
)

// Run evaluates fn over every config on up to `workers` goroutines
// (0 selects GOMAXPROCS) and returns results in input order. The
// first error wins and is returned after all workers drain; a panic
// in fn is recovered and reported as an error rather than tearing
// down the process.
func Run[C, R any](configs []C, workers int, fn func(C) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(configs) {
		workers = len(configs)
	}
	results := make([]R, len(configs))
	if len(configs) == 0 {
		return results, nil
	}
	type job struct{ idx int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	eval := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				setErr(fmt.Errorf("sweep: config %d panicked: %v", i, r))
			}
		}()
		out, err := fn(configs[i])
		if err != nil {
			setErr(fmt.Errorf("sweep: config %d: %w", i, err))
			return
		}
		results[i] = out
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				eval(j.idx)
			}
		}()
	}
	for i := range configs {
		jobs <- job{i}
	}
	close(jobs)
	wg.Wait()
	return results, firstErr
}
