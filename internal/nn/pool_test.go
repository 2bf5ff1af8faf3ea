package nn

import (
	"runtime"
	"testing"
)

// fillRand fills s with deterministic values in [-1, 1) from the same
// xorshift family as XavierInit.
func fillRand(s []float32, seed uint64) {
	rng := seed*2862933555777941757 + 3037000493
	for i := range s {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		s[i] = float32(rng>>11)/float32(1<<53)*2 - 1
	}
}

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 3, 8} {
		SetWorkers(workers)
		if Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", Workers(), workers)
		}
		counts := make([]int, 1000)
		ParallelFor(1000, 7, func(lo, hi int) {
			// Ranges are disjoint, so plain increments cannot race.
			for i := lo; i < hi; i++ {
				counts[i]++
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestParallelForEdgeCases(t *testing.T) {
	ParallelFor(0, 10, func(lo, hi int) { t.Error("fn called for n=0") })
	// grain=0 is clamped to 1, so a wide pool may split [0,5); the
	// ranges must still cover it exactly once.
	counts := make([]int, 5)
	ParallelFor(5, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i]++
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("grain=0: index %d visited %d times", i, c)
		}
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	for i := range s {
		s[i] = 1
	}
	PutScratch(s)
	if s := GetScratch(200); len(s) != 200 {
		t.Fatalf("len = %d after a smaller buffer was recycled", len(s))
	}
}

// runKernelOnce runs a forward+backward pass at the given worker count
// on deterministic data and returns every output buffer.
func runKernelOnce(k Kernel, workers, batch int) (y, dx, grad []float32) {
	SetWorkers(workers)
	params := make([]float32, k.ParamCount())
	fillRand(params, 11)
	x := make([]float32, batch*k.InSize())
	fillRand(x, 22)
	dy := make([]float32, batch*k.OutSize())
	fillRand(dy, 33)
	y = make([]float32, batch*k.OutSize())
	stash := make([]float32, batch*k.StashSize())
	k.Forward(params, x, y, stash, batch)
	dx = make([]float32, batch*k.InSize())
	grad = make([]float32, k.ParamCount())
	k.Backward(params, stash, dy, dx, grad, batch)
	return y, dx, grad
}

// TestParallelKernelsBitIdenticalToSerial is the kernel half of the
// executor's determinism guarantee: chunked execution must not change
// a single bit of any output or gradient. The Dense and Conv2D shapes
// are picked large enough that grainFor actually splits the work at 4
// workers; pooling is too cheap to fan out at any shape a test affords.
func TestParallelKernelsBitIdenticalToSerial(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	kernels := []struct {
		k     Kernel
		batch int
	}{
		{Dense{In: 600, Out: 500, ReLU: true}, 16},
		{Dense{In: 600, Out: 500}, 16},
		{Conv2D{Cin: 8, H: 32, W: 32, Cout: 16, K: 3, ReLU: true}, 8},
		{MaxPool2D{C: 8, H: 14, W: 14, P: 2}, 8},
	}
	for _, tc := range kernels {
		y1, dx1, g1 := runKernelOnce(tc.k, 1, tc.batch)
		y4, dx4, g4 := runKernelOnce(tc.k, 4, tc.batch)
		cmp := func(name string, a, b []float32) {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: %s[%d] differs: serial %v vs parallel %v",
						tc.k.Name(), name, i, a[i], b[i])
				}
			}
		}
		cmp("y", y1, y4)
		cmp("dx", dx1, dx4)
		cmp("grad", g1, g4)
	}
}
