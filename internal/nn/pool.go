package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file provides the shared compute substrate for all kernels:
//
//   - a persistent worker pool sized to runtime.GOMAXPROCS(0), shared
//     by every kernel invocation (no per-call goroutine spawn), and
//   - sync.Pool-backed float32 scratch buffers for a caller's
//     transient buffers (exec's loss gradient and Predict's
//     activations), so those allocate nothing in the steady state.
//
// Parallel kernels are written to be bit-identical to their serial
// counterparts: work is only split along axes whose per-element
// accumulation order is unchanged by chunking (batch rows for outputs
// written disjointly, weight rows/output channels for gradient
// accumulation). That makes the chunk count — and therefore the
// worker count — invisible in the results, which the exec runtime
// relies on for its serial-vs-parallel determinism guarantee.

// poolTask is one contiguous chunk of a ParallelFor.
type poolTask struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// workerPool is a fixed set of persistent worker goroutines draining a
// shared channel. The submitting goroutine always executes the final
// chunk itself, so a pool of size n runs at most n chunks of one call
// concurrently and a size-1 pool never touches the channel.
type workerPool struct {
	work chan poolTask
	size int
}

var activePool atomic.Pointer[workerPool]

func init() { SetWorkers(runtime.GOMAXPROCS(0)) }

// Workers reports the current kernel worker-pool size.
func Workers() int { return activePool.Load().size }

// SetWorkers replaces the shared worker pool with one of size n
// (clamped to ≥ 1). It exists for tests and benchmarks that need to
// force chunked execution on small machines or serial execution on
// large ones; it must not be called while kernels are running.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	p := &workerPool{size: n}
	if n > 1 {
		p.work = make(chan poolTask)
		for i := 0; i < n-1; i++ {
			go func() {
				for t := range p.work {
					t.fn(t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	}
	old := activePool.Swap(p)
	if old != nil && old.work != nil {
		close(old.work)
	}
}

// ParallelFor runs fn over [0, n) split into contiguous chunks of at
// least `grain` items fanned across the shared worker pool. The
// calling goroutine executes the last chunk itself and returns only
// when every chunk is done. With a size-1 pool, or when n fits in a
// single grain, fn runs inline with no synchronization at all.
//
// fn must be safe to run concurrently on disjoint ranges.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := activePool.Load()
	if p.size == 1 || n <= grain {
		fn(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > p.size {
		chunks = p.size
	}
	per := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo+per < n {
		hi := lo + per
		wg.Add(1)
		p.work <- poolTask{lo: lo, hi: hi, fn: fn, wg: &wg}
		lo = hi
	}
	fn(lo, n)
	wg.Wait()
}

// runsInline reports whether ParallelFor(n, grain, fn) would run fn
// on the calling goroutine alone. fn travels to the workers through a
// channel, so a closure passed to ParallelFor is heap-allocated where
// it is written even on a call that never fans out; the Dense kernels
// ask first and call their range function directly when they can.
func runsInline(n, grain int) bool {
	return n <= grain || activePool.Load().size == 1
}

// grainFor sizes ParallelFor chunks so each carries roughly 4M scalar
// operations when one item costs perItem operations: tiny layers stay
// serial, large ones fan out. A fan-out is a channel hand-off to a
// worker that has gone to sleep and a wake-up of the caller afterwards,
// ≈ 100 µs the pair on a two-CPU VM, and the vector kernels retire
// 10–20 operations a nanosecond: a chunk a tenth of this size cost more
// to hand over than to run (BenchmarkDenseStep -cpu 1,2, swap shape).
// The scalar kernels (conv, pool) are several times slower an operation
// and get chunks that much longer: the one constant errs on the side of
// not fanning out.
func grainFor(perItem int) int {
	const chunkOps = 1 << 22
	if perItem <= 0 {
		return chunkOps
	}
	g := chunkOps / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// scratch recycles float32 buffers across kernel calls. A sync.Pool
// holds pointers, so a buffer waits in it inside a *[]float32 box;
// the box a Get empties waits in boxes for the next Put, and a
// Get/Put round trip allocates nothing.
var scratch, boxes sync.Pool

// GetScratch returns a length-n buffer with undefined contents,
// drawn from the shared scratch pool. Pair with PutScratch.
func GetScratch(n int) []float32 {
	p, _ := scratch.Get().(*[]float32)
	if p == nil {
		return make([]float32, n)
	}
	s := *p
	*p = nil
	boxes.Put(p)
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// PutScratch recycles a buffer obtained from GetScratch. The caller
// must not retain the slice afterwards.
func PutScratch(s []float32) {
	if cap(s) == 0 {
		return
	}
	p, _ := boxes.Get().(*[]float32)
	if p == nil {
		p = new([]float32)
	}
	*p = s
	scratch.Put(p)
}
