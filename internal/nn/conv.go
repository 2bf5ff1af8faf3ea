package nn

import (
	"fmt"
	"math"
)

// Kernel is a trainable layer operating on caller-provided flat
// buffers: the contract between real models and the exec runtime's
// coherent virtual memory. All sizes are float32 counts per sample.
//
// ReLU's derivative is applied where the rectified value is stashed,
// not where it is produced: a kernel that writes dx zeroes it wherever
// its stashed input is not > 0. The precondition is that a kernel asked
// for dx reads a rectified input — the output of a ReLU Dense or
// Conv2D, or of a MaxPool2D over one. exec.NewTrainer rejects a stack
// that breaks it.
type Kernel interface {
	Name() string
	ParamCount() int
	InSize() int
	OutSize() int
	// StashSize is what Forward records per sample for Backward: the
	// layer input (pool argmaxes are recomputed from it).
	StashSize() int
	// FLOPsPerSample estimates forward cost for the simulator-backed
	// graph.
	FLOPsPerSample() float64
	Forward(params, x, y, stash []float32, batch int)
	// Backward accumulates parameter gradients into grad and, when dx
	// is not nil, writes the input gradient into it. dy is the gradient
	// with respect to the pre-activation: a ReLU kernel's consumer has
	// already masked it. dx leaves masked by the sign of the stash.
	Backward(params, stash, dy, dx, grad []float32, batch int)
	// BackwardUpdate is Backward with what a training step does around
	// the gradient, u: its sums started at +0, its update applied to
	// params (Update).
	BackwardUpdate(params, stash, dy, dx, grad []float32, batch int, u Update)
}

// Update is what a backward does with the parameter gradient besides
// adding the batch's terms to it.
type Update struct {
	// Reset starts every sum at +0 instead of at its element of grad,
	// whose old bytes are never read. It leaves the bits Backward leaves
	// on a grad of +0s, so the first backward of a step to write a
	// gradient overwrites it and the update before needs no reset
	// (DESIGN.md §9, "Known-zero pages").
	Reset bool
	// SGD applies w -= LR·g to the parameters once the gradient g is
	// complete, with the bits ApplySGD gives after the backward. grad's
	// bytes are unspecified afterwards — a Dense layer never stores the
	// last of them — so the caller holds it reset, as after ApplySGD.
	SGD bool
	LR  float32
}

// Interface conformance.
var (
	_ Kernel = Dense{}
	_ Kernel = Conv2D{}
	_ Kernel = MaxPool2D{}
)

// Name implements Kernel for Dense.
func (l Dense) Name() string { return fmt.Sprintf("dense%dx%d", l.In, l.Out) }

// InSize implements Kernel.
func (l Dense) InSize() int { return l.In }

// OutSize implements Kernel.
func (l Dense) OutSize() int { return l.Out }

// StashSize implements Kernel.
func (l Dense) StashSize() int { return l.StashCount() }

// FLOPsPerSample implements Kernel (multiply-accumulate = 2 FLOPs).
func (l Dense) FLOPsPerSample() float64 { return 2 * float64(l.In) * float64(l.Out) }

// Conv2D is a 2-D convolution over NCHW-flattened samples with unit
// stride and no padding (valid), optionally followed by ReLU.
// Weights are laid out [Cout, Cin, K, K] then bias [Cout].
type Conv2D struct {
	Cin, H, W int // input planes and spatial size
	Cout, K   int // filters and (square) kernel size
	ReLU      bool
}

// OutH and OutW are the valid-convolution output spatial sizes.
func (c Conv2D) OutH() int { return c.H - c.K + 1 }

// OutW is the output width.
func (c Conv2D) OutW() int { return c.W - c.K + 1 }

// Name implements Kernel.
func (c Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%dx%d-%df", c.Cin, c.H, c.W, c.Cout)
}

// ParamCount implements Kernel.
func (c Conv2D) ParamCount() int { return c.Cout*c.Cin*c.K*c.K + c.Cout }

// InSize implements Kernel.
func (c Conv2D) InSize() int { return c.Cin * c.H * c.W }

// OutSize implements Kernel.
func (c Conv2D) OutSize() int { return c.Cout * c.OutH() * c.OutW() }

// StashSize implements Kernel.
func (c Conv2D) StashSize() int { return c.InSize() }

// FLOPsPerSample implements Kernel.
func (c Conv2D) FLOPsPerSample() float64 {
	return 2 * float64(c.Cout) * float64(c.OutH()) * float64(c.OutW()) * float64(c.Cin) * float64(c.K*c.K)
}

func (c Conv2D) validate() {
	if c.Cin <= 0 || c.Cout <= 0 || c.K <= 0 || c.OutH() <= 0 || c.OutW() <= 0 {
		panic(fmt.Sprintf("nn: invalid conv shape %+v", c))
	}
}

// Forward implements Kernel. Samples write disjoint output slices, so
// batch chunking is bit-identical to the serial loop.
func (c Conv2D) Forward(params, x, y, stash []float32, batch int) {
	c.validate()
	copy(stash, x[:batch*c.InSize()])
	oh, ow := c.OutH(), c.OutW()
	w := params[:c.Cout*c.Cin*c.K*c.K]
	bias := params[c.Cout*c.Cin*c.K*c.K:]
	ParallelFor(batch, grainFor(int(c.FLOPsPerSample())), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			xs := x[b*c.InSize() : (b+1)*c.InSize()]
			ys := y[b*c.OutSize() : (b+1)*c.OutSize()]
			for co := 0; co < c.Cout; co++ {
				for i := 0; i < oh; i++ {
					for j := 0; j < ow; j++ {
						sum := bias[co]
						for ci := 0; ci < c.Cin; ci++ {
							for kh := 0; kh < c.K; kh++ {
								xRow := xs[ci*c.H*c.W+(i+kh)*c.W+j:]
								wRow := w[((co*c.Cin+ci)*c.K+kh)*c.K:]
								for kw := 0; kw < c.K; kw++ {
									sum += xRow[kw] * wRow[kw]
								}
							}
						}
						ys[co*oh*ow+i*ow+j] = sum
					}
				}
			}
		}
	})
	if c.ReLU {
		for i := 0; i < batch*c.OutSize(); i++ {
			if y[i] < 0 {
				y[i] = 0
			}
		}
	}
}

// Backward implements Kernel.
//
// Like Dense.Backward, the pass is phased for the worker pool without
// changing accumulation order: gw/gb chunk over output channels (each
// channel owns its slice of gw and its gb entry, accumulating samples
// and positions in serial order), dx chunks over the batch (samples
// write disjoint dx slices).
func (c Conv2D) Backward(params, stash, dy, dx, grad []float32, batch int) {
	c.validate()
	checkBackward("Conv2D", params, stash, dy, dx, grad, batch, c.ParamCount(), c.InSize(), c.OutSize())
	oh, ow := c.OutH(), c.OutW()
	w := params[:c.Cout*c.Cin*c.K*c.K]
	gw := grad[:c.Cout*c.Cin*c.K*c.K]
	gb := grad[c.Cout*c.Cin*c.K*c.K:]

	// Weight and bias gradients, chunked over output channels.
	chanCost := 2 * oh * ow * c.Cin * c.K * c.K
	ParallelFor(c.Cout, grainFor(batch*chanCost), func(clo, chi int) {
		for b := 0; b < batch; b++ {
			xs := stash[b*c.InSize() : (b+1)*c.InSize()]
			ds := dy[b*c.OutSize() : (b+1)*c.OutSize()]
			for co := clo; co < chi; co++ {
				for i := 0; i < oh; i++ {
					for j := 0; j < ow; j++ {
						d := ds[co*oh*ow+i*ow+j]
						if d == 0 {
							continue
						}
						gb[co] += d
						for ci := 0; ci < c.Cin; ci++ {
							for kh := 0; kh < c.K; kh++ {
								xRow := xs[ci*c.H*c.W+(i+kh)*c.W+j:]
								gRow := gw[((co*c.Cin+ci)*c.K+kh)*c.K:]
								for kw := 0; kw < c.K; kw++ {
									gRow[kw] += d * xRow[kw]
								}
							}
						}
					}
				}
			}
		}
	})
	// Input gradient, chunked over the batch.
	if dx == nil {
		return
	}
	clear(dx[:batch*c.InSize()])
	ParallelFor(batch, grainFor(chanCost*c.Cout), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			ds := dy[b*c.OutSize() : (b+1)*c.OutSize()]
			dxs := dx[b*c.InSize() : (b+1)*c.InSize()]
			for co := 0; co < c.Cout; co++ {
				for i := 0; i < oh; i++ {
					for j := 0; j < ow; j++ {
						d := ds[co*oh*ow+i*ow+j]
						if d == 0 {
							continue
						}
						for ci := 0; ci < c.Cin; ci++ {
							for kh := 0; kh < c.K; kh++ {
								wRow := w[((co*c.Cin+ci)*c.K+kh)*c.K:]
								for kw := 0; kw < c.K; kw++ {
									dxs[ci*c.H*c.W+(i+kh)*c.W+j+kw] += d * wRow[kw]
								}
							}
						}
					}
				}
			}
		}
	})
	maskBySign(dx[:batch*c.InSize()], stash)
}

// MaxPool2D is a non-overlapping P×P max pool over NCHW samples
// (H and W must be divisible by P). It has no parameters; argmax
// positions are recomputed in backward from the stashed input.
type MaxPool2D struct {
	C, H, W int
	P       int
}

// Name implements Kernel.
func (p MaxPool2D) Name() string { return fmt.Sprintf("pool%d@%dx%dx%d", p.P, p.C, p.H, p.W) }

// ParamCount implements Kernel.
func (p MaxPool2D) ParamCount() int { return 0 }

// InSize implements Kernel.
func (p MaxPool2D) InSize() int { return p.C * p.H * p.W }

// OutSize implements Kernel.
func (p MaxPool2D) OutSize() int { return p.C * (p.H / p.P) * (p.W / p.P) }

// StashSize implements Kernel.
func (p MaxPool2D) StashSize() int { return p.InSize() }

// FLOPsPerSample implements Kernel (comparisons).
func (p MaxPool2D) FLOPsPerSample() float64 { return float64(p.InSize()) }

func (p MaxPool2D) validate() {
	if p.C <= 0 || p.P <= 0 || p.H%p.P != 0 || p.W%p.P != 0 {
		panic(fmt.Sprintf("nn: invalid pool shape %+v", p))
	}
}

// Forward implements Kernel.
func (p MaxPool2D) Forward(_, x, y, stash []float32, batch int) {
	p.validate()
	copy(stash, x[:batch*p.InSize()])
	oh, ow := p.H/p.P, p.W/p.P
	ParallelFor(batch, grainFor(p.InSize()), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			xs := x[b*p.InSize() : (b+1)*p.InSize()]
			ys := y[b*p.OutSize() : (b+1)*p.OutSize()]
			for c := 0; c < p.C; c++ {
				for i := 0; i < oh; i++ {
					for j := 0; j < ow; j++ {
						best := xs[c*p.H*p.W+(i*p.P)*p.W+j*p.P]
						for di := 0; di < p.P; di++ {
							for dj := 0; dj < p.P; dj++ {
								v := xs[c*p.H*p.W+(i*p.P+di)*p.W+j*p.P+dj]
								if v > best {
									best = v
								}
							}
						}
						ys[c*oh*ow+i*ow+j] = best
					}
				}
			}
		}
	})
}

// BackwardUpdate implements Kernel: with u.Reset it clears grad, once
// every operand has been checked, and accumulates into the zeros; with
// u.SGD, ApplySGD follows.
func (c Conv2D) BackwardUpdate(params, stash, dy, dx, grad []float32, batch int, u Update) {
	c.validate()
	checkBackward("Conv2D", params, stash, dy, dx, grad, batch, c.ParamCount(), c.InSize(), c.OutSize())
	n := c.ParamCount()
	if u.Reset {
		clear(grad[:n])
	}
	c.Backward(params, stash, dy, dx, grad, batch)
	if u.SGD {
		sgd("BackwardUpdate", params[:n], grad[:n], u.LR, false)
	}
}

// BackwardUpdate implements Kernel: a pool has no gradient to reset and
// no parameter to update.
func (p MaxPool2D) BackwardUpdate(params, stash, dy, dx, grad []float32, batch int, _ Update) {
	p.Backward(params, stash, dy, dx, grad, batch)
}

// Backward implements Kernel: the gradient routes to the argmax
// element of each window (first-found on ties, matching Forward). A
// pool has no ReLU of its own, but it stashes the rectified value, so
// it masks dx like any other kernel.
func (p MaxPool2D) Backward(_, stash, dy, dx, _ []float32, batch int) {
	p.validate()
	if dx == nil {
		return
	}
	oh, ow := p.H/p.P, p.W/p.P
	clear(dx[:batch*p.InSize()])
	ParallelFor(batch, grainFor(p.InSize()), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			xs := stash[b*p.InSize() : (b+1)*p.InSize()]
			ds := dy[b*p.OutSize() : (b+1)*p.OutSize()]
			dxs := dx[b*p.InSize() : (b+1)*p.InSize()]
			for c := 0; c < p.C; c++ {
				for i := 0; i < oh; i++ {
					for j := 0; j < ow; j++ {
						bi, bj := 0, 0
						best := xs[c*p.H*p.W+(i*p.P)*p.W+j*p.P]
						for di := 0; di < p.P; di++ {
							for dj := 0; dj < p.P; dj++ {
								v := xs[c*p.H*p.W+(i*p.P+di)*p.W+j*p.P+dj]
								if v > best {
									best, bi, bj = v, di, dj
								}
							}
						}
						dxs[c*p.H*p.W+(i*p.P+bi)*p.W+j*p.P+bj] += ds[c*oh*ow+i*ow+j]
					}
				}
			}
		}
	})
	maskBySign(dx[:batch*p.InSize()], stash)
}

// InitKernel initializes a kernel's parameters: Xavier for anything
// with weights, a no-op otherwise.
func InitKernel(k Kernel, params []float32, seed uint64) {
	n := k.ParamCount()
	if n == 0 {
		return
	}
	limit := xavierLimit(k.InSize(), k.OutSize())
	rng := seed*2862933555777941757 + 3037000493
	// Heuristic: the trailing OutSize-or-fewer entries are biases for
	// our kernels; Conv2D bias is Cout and Dense bias is Out. We zero
	// the bias region exactly per kernel type.
	biases := 0
	switch kk := k.(type) {
	case Dense:
		biases = kk.Out
	case Conv2D:
		biases = kk.Cout
	}
	for i := 0; i < n-biases; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		u := float32(rng>>11) / float32(1<<53)
		params[i] = (2*u - 1) * limit
	}
	for i := n - biases; i < n; i++ {
		params[i] = 0
	}
}

func xavierLimit(fanIn, fanOut int) float32 {
	return float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
}
