package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// staleNaN is the bits of a NaN no arithmetic produces — a signalling
// payload, quieted to 0x7fe00001 by any operation that reads it — so a
// sum that started from a stale element shows in its bits.
const staleNaN = 0x7fa00001

// identical requires got and want to hold the same bits, NaN payloads
// included.
func identical(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", name, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i, got[i], g, want[i], w)
		}
	}
}

// stale returns n floats a reset gradient might hold: NaN, ±Inf and
// large finite values, none of them +0.
func stale(rng *rand.Rand, n int) []float32 {
	s := unaligned(rng, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = math.Float32frombits(staleNaN)
		case 1:
			s[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		default:
			s[i] = float32(rng.NormFloat64() * 1e30)
		}
	}
	return s
}

// TestBackwardResetMatchesBackwardOnZeros is the kernel half of the
// reset rule: a backward with Update.Reset into a gradient salted with
// NaN, ±Inf and huge values leaves the bits Backward leaves in a
// gradient of +0s —
// grad and dx alike — so it neither reads the stale bytes nor starts a
// sum anywhere but +0. The second half of a split run, as a later writer
// of the same step, accumulates on top: a reset backward over the first
// rows and Backward over the rest give the bits of one Backward on +0s.
// Dense on both kernel paths, widths off every multiple of 8, batches
// 0–6 and past one and two strips of termCap (with a column whose first
// strip is all zeros, so its first list of terms is empty), pool sizes 1
// and 2; Conv2D and MaxPool2D at batches 1–6.
func TestBackwardResetMatchesBackwardOnZeros(t *testing.T) {
	eachKernelPath(t, testBackwardResetMatchesBackwardOnZeros)
}

func testBackwardResetMatchesBackwardOnZeros(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(57))
	type draw struct {
		k     Kernel
		batch int
	}
	var draws []draw
	for _, shape := range [][2]int{{10, 17}, {33, 9}, {17, 100}, {5, 1}, {64, 13}, {129, 31}} {
		for _, batch := range []int{0, 1, 2, 3, 4, 5, 6, termCap + 1, 2*termCap + 3} {
			draws = append(draws, draw{Dense{In: shape[0], Out: shape[1], ReLU: batch%2 == 0}, batch})
		}
	}
	for batch := 1; batch <= 6; batch++ {
		draws = append(draws,
			draw{Conv2D{Cin: 2, H: 6, W: 7, Cout: 3, K: 3, ReLU: batch%2 == 0}, batch},
			draw{MaxPool2D{C: 2, H: 6, W: 4, P: 2}, batch})
	}
	for i, d := range draws {
		SetWorkers(1 + i%2)
		k, batch := d.k, d.batch
		in, out, st := k.InSize(), k.OutSize(), k.StashSize()
		params := unaligned(rng, k.ParamCount())
		saltWeights(rng, params, i)
		x := unaligned(rng, batch*in)
		salt(rng, x, 0.3, 0, negZero, float32(math.NaN()), float32(math.Inf(-1)))
		if batch > termCap && in > 1 {
			for r := 0; r < termCap; r++ {
				x[r*in+1] = 0 // column 1's first strip has no terms
			}
		}
		y, stash := unaligned(rng, batch*out), unaligned(rng, batch*st)
		k.Forward(params, x, y, stash, batch)
		dy := unaligned(rng, batch*out)
		salt(rng, dy, 0.2, 0, negZero)
		if k, ok := k.(Dense); ok && k.ReLU {
			maskBySign(dy, y)
		}
		name := fmt.Sprintf("%s batch %d workers %d", k.Name(), batch, Workers())

		wantDx, want := unaligned(rng, batch*in), unaligned(rng, k.ParamCount())
		k.Backward(params, stash, dy, wantDx, want, batch)
		dx, grad := stale(rng, batch*in), stale(rng, k.ParamCount())
		k.BackwardUpdate(params, stash, dy, dx, grad, batch, Update{Reset: true})
		identical(t, name+" grad", grad, want)
		identical(t, name+" dx", dx, wantDx)

		// A first writer over rows [0, cut), a later one over the rest.
		cut := batch / 2
		grad = stale(rng, k.ParamCount())
		k.BackwardUpdate(params, stash[:cut*st], dy[:cut*out], dx[:cut*in], grad, cut, Update{Reset: true})
		k.Backward(params, stash[cut*st:], dy[cut*out:], dx[cut*in:], grad, batch-cut)
		identical(t, fmt.Sprintf("%s split at %d: grad", name, cut), grad, want)
		identical(t, fmt.Sprintf("%s split at %d: dx", name, cut), dx, wantDx)
	}
}

// TestUpdateFormsLeaveGradientUntouched: the trainer's update forms,
// ApplySGD and AverageSGD, write the weights SGD writes and not one bit
// of the gradient, NaN payloads and -0 included, at every length from 0
// to 70 (every split between the vector blocks and the Go tail) and one
// past the Go loop's blocks. SGD itself still resets.
func TestUpdateFormsLeaveGradientUntouched(t *testing.T) {
	eachKernelPath(t, testUpdateFormsLeaveGradientUntouched)
}

func testUpdateFormsLeaveGradientUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	specials := []float32{math.Float32frombits(staleNaN), negZero, 0, float32(math.Inf(1)), 1e-45}
	lengths := []int{2*2048 + 37}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		lr := float32(rng.NormFloat64())
		w0, g0 := unaligned(rng, n), unaligned(rng, n)
		salt(rng, w0, 0.1, specials...)
		salt(rng, g0, 0.2, specials...)
		wantW, reset := append([]float32(nil), w0...), append([]float32(nil), g0...)
		SGD(wantW, reset, lr)
		identical(t, fmt.Sprintf("n=%d SGD's g", n), reset, make([]float32, n))

		w, g := append([]float32(nil), w0...), append([]float32(nil), g0...)
		ApplySGD(w, g, lr)
		identical(t, fmt.Sprintf("n=%d ApplySGD's w", n), w, wantW)
		identical(t, fmt.Sprintf("n=%d ApplySGD's g", n), g, g0)

		w, g = append([]float32(nil), w0...), append([]float32(nil), g0...)
		AverageSGD([][]float32{g}, [][]float32{w}, 0, n, 1, lr)
		identical(t, fmt.Sprintf("n=%d AverageSGD's g", n), g, g0)
	}
}

// TestReLUMasksBranchFreeOnBoundaryBits holds the two bit selects —
// maskBySign's "keep where x > 0" and the forward ReLU's "+0 where
// y < 0" — to the float comparisons they replaced, on the patterns where
// a select on the bits could go wrong: ±0, ±the smallest denormal, the
// largest finite values, ±Inf, the NaNs next to ±Inf and the all-ones
// NaN. A kept element keeps its bits, NaN payload included.
func TestReLUMasksBranchFreeOnBoundaryBits(t *testing.T) {
	patterns := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, // ±smallest denormal
		0x007fffff, 0x00800000, // largest denormal, smallest normal
		0x3f800000, 0xbf800000, // ±1
		0x7f7fffff, 0xff7fffff, // ±largest finite
		0x7f800000, 0xff800000, // ±Inf
		0x7f800001, 0xff800001, // NaNs next to ±Inf
		0x7fc00000, 0x7fffffff, 0xffffffff, // quiet NaN, all-ones NaNs
	}
	n := len(patterns)
	x := make([]float32, n)
	for i, b := range patterns {
		x[i] = math.Float32frombits(b)
	}
	for _, d := range []float32{3.5, negZero, math.Float32frombits(staleNaN)} {
		dx, want := make([]float32, n), make([]float32, n)
		for i, v := range x {
			dx[i] = d
			if v > 0 {
				want[i] = d
			}
		}
		maskBySign(dx, x)
		identical(t, fmt.Sprintf("maskBySign of %v", d), dx, want)
	}

	// The forward's ReLU sees the bias alone: a zero input adds no term.
	l := Dense{In: 1, Out: n, ReLU: true}
	params := append(make([]float32, n), x...) // W = 0, b = the patterns
	y, want := make([]float32, n), make([]float32, n)
	for i, v := range x {
		if want[i] = v; v < 0 {
			want[i] = 0
		}
	}
	l.Forward(params, []float32{0}, y, make([]float32, 1), 1)
	identical(t, "ReLU", y, want)
}

// TestBackwardApplyMatchesBackwardThenApplySGD holds the fused update to
// the two calls it replaces: a backward with Update.SGD leaves the
// weights and dx that Backward — or the reset backward — followed by
// ApplySGD leave, bit for bit, NaN payloads included. Dense on both
// kernel paths at pool sizes 1 and 2, widths off every multiple of 4, 8
// and 16 and one of them, batches 0–9, 63–65 and 131 (past two strips of
// termCap, and at In = 257 enough blocks of W to fan out), a gradient
// reset and one accumulated into, with ±0, NaN and ±Inf salted into the
// stash, dy, W and the old gradient; Conv2D and MaxPool2D beside them.
// A block of W updated before its dx is computed (on the vector path,
// where the four-row tile computes dx a block at a time), or an update
// applied on a strip of terms before the last, fails it.
func TestBackwardApplyMatchesBackwardThenApplySGD(t *testing.T) {
	eachKernelPath(t, testBackwardApplyMatchesBackwardThenApplySGD)
}

func testBackwardApplyMatchesBackwardThenApplySGD(t *testing.T) {
	defer SetWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(59))
	specials := []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	batches := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, termCap - 1, termCap, termCap + 1, 2*termCap + 3}
	var ks []Kernel
	for _, shape := range [][2]int{{10, 17}, {33, 9}, {17, 100}, {5, 1}, {64, 13}, {21, 70}, {257, 100}} {
		ks = append(ks, Dense{In: shape[0], Out: shape[1], ReLU: shape[0]%2 == 1})
	}
	ks = append(ks, Conv2D{Cin: 2, H: 6, W: 7, Cout: 3, K: 3, ReLU: true}, MaxPool2D{C: 2, H: 6, W: 4, P: 2})
	draw := 0
	for _, k := range ks {
		for _, batch := range batches {
			if _, ok := k.(Dense); !ok && batch > 9 {
				continue
			}
			for _, reset := range []bool{true, false} {
				draw++
				SetWorkers(1 + draw%2)
				in, out, st, np := k.InSize(), k.OutSize(), k.StashSize(), k.ParamCount()
				params := unaligned(rng, np)
				salt(rng, params, 0.02, specials...)
				// Zeros are common in x and dy, NaN and ±Inf rare enough to
				// leave most sums finite: a wrong update must show.
				x := unaligned(rng, batch*in)
				salt(rng, x, 0.3, 0, negZero)
				sprinkle(rng, x, specials[2:])
				y, stash := unaligned(rng, batch*out), unaligned(rng, batch*st)
				k.Forward(params, x, y, stash, batch)
				dy := unaligned(rng, batch*out)
				salt(rng, dy, 0.2, 0, negZero)
				sprinkle(rng, dy, specials[2:])
				if k, ok := k.(Dense); ok && k.ReLU {
					maskBySign(dy, y)
				}
				old := stale(rng, np)
				if !reset {
					salt(rng, old, 0.02, append(specials, math.Float32frombits(staleNaN))...)
				}
				lr := float32(rng.NormFloat64())
				name := fmt.Sprintf("%s batch %d reset %v workers %d", k.Name(), batch, reset, Workers())

				wantW, wantDx, g := append([]float32(nil), params...), stale(rng, batch*in), append([]float32(nil), old...)
				if reset {
					k.BackwardUpdate(wantW, stash, dy, wantDx, g, batch, Update{Reset: true})
				} else {
					k.Backward(wantW, stash, dy, wantDx, g, batch)
				}
				ApplySGD(wantW, g[:np], lr)

				w, dx, g := append([]float32(nil), params...), stale(rng, batch*in), append([]float32(nil), old...)
				k.BackwardUpdate(w, stash, dy, dx, g, batch, Update{Reset: reset, SGD: true, LR: lr})
				identical(t, name+" W", w, wantW)
				identical(t, name+" dx", dx, wantDx)
			}
		}
	}
}

// sprinkle overwrites about three elements of s, at least one, with
// draws from specials.
func sprinkle(rng *rand.Rand, s []float32, specials []float32) {
	for range min(len(s), 3) {
		s[rng.Intn(len(s))] = specials[rng.Intn(len(specials))]
	}
}
