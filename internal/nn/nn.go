// Package nn implements real float32 neural-network math on plain
// slices: dense layers, ReLU, softmax cross-entropy, and SGD/Adam
// optimizers. It deliberately operates on caller-provided buffers so
// the exec runtime can place those buffers in capacity-limited
// virtual device memory and move them through Harmony's coherent
// virtual memory — the kernels never allocate parameter or activation
// storage themselves.
//
// The stash holds only each layer's input, and nothing is recomputed
// from it: ReLU's derivative is applied by the layer above, which
// zeroes its input gradient wherever the input it stashed — this
// layer's rectified output — is not positive (Kernel.Backward;
// DESIGN.md §7, "Where ReLU's derivative is applied"). So a backward
// pass costs the two forwards the cost model charges
// (models.BwdFLOPsFactor).
//
// The Dense inner loops have two implementations with one result: the
// Go register tiles in this file, which every GOARCH builds, and AVX2
// assembly (kernels_amd64.s) that amd64 dispatches to when the CPU and
// the OS support it. Both match the scalar oracle in nn_test.go bit for
// bit (DESIGN.md §7). The race detector cannot see what assembly loads
// and stores, so a -race build never dispatches to it: `go test -race`
// checks the kernels' memory discipline on the instrumented Go tiles,
// and the plain `go test` run is the one that exercises the vector
// path.
package nn

import (
	"fmt"
	"math"
)

// Dense is a fully connected layer y = relu?(x·W + b) with row-major
// W of shape [In, Out].
type Dense struct {
	In, Out int
	// ReLU applies the nonlinearity; the final layer of a classifier
	// leaves it off (softmax cross-entropy handles the output).
	ReLU bool
}

// ParamCount is the number of float32 parameters (weights + bias).
func (l Dense) ParamCount() int { return l.In*l.Out + l.Out }

// StashCount is the floats stashed per sample (the layer input).
func (l Dense) StashCount() int { return l.In }

// Forward computes y[batch,Out] from x[batch,In] using params
// (weights then bias) and records x into stash. Panics on size
// mismatches: these are programming errors in the buffer plumbing,
// not runtime conditions.
func (l Dense) Forward(params, x, y, stash []float32, batch int) {
	l.check("Forward", params, x, y, batch)
	if len(stash) < batch*l.In {
		panic(fmt.Sprintf("nn: stash %d < %d", len(stash), batch*l.In))
	}
	copy(stash, x[:batch*l.In])
	// Rows of the batch are independent and write disjoint slices of
	// y, so chunking over rows is bit-identical to the serial loop.
	if grain := grainFor(2 * l.In * l.Out); runsInline(batch, grain) {
		l.forwardRows(params, x, y, 0, batch)
	} else {
		ParallelFor(batch, grain, func(lo, hi int) { l.forwardRows(params, x, y, lo, hi) })
	}
}

func (l Dense) forwardRows(params, x, y []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		yi := y[i*l.Out : (i+1)*l.Out]
		copy(yi, params[l.In*l.Out:])
		axpyRows(yi, params[:l.In*l.Out], x[i*l.In:(i+1)*l.In], 1)
		if l.ReLU {
			for j, v := range yi {
				if v < 0 {
					yi[j] = 0
				}
			}
		}
	}
}

// Backward implements Kernel: it accumulates parameter gradients into
// grad and computes dx[batch,In] given dy[batch,Out], the gradient with
// respect to the pre-activation, and the stashed input. dx may be nil
// for the first layer.
//
// The pass is split into phases so each can fan across the worker
// pool without changing any element's accumulation order: dx is
// row-disjoint over the batch, while gw chunks over weight rows, each
// row still accumulating the batch in order. The results are
// bit-identical to a serial run.
func (l Dense) Backward(params, stash, dy, dx, grad []float32, batch int) {
	nw := l.In * l.Out
	stash = stash[:batch*l.In]
	gw := grad[:nw]
	gb := grad[nw : nw+l.Out]
	// Bias gradient: each column sums the batch in order. It is 1/In of
	// the pass's work, so it does not fan out.
	for i := 0; i < batch; i++ {
		for j, dv := range dy[i*l.Out : (i+1)*l.Out] {
			gb[j] += dv
		}
	}
	// Weight gradient: chunk over weight rows k (the input dimension);
	// each gw row accumulates the batch in order.
	if grain := grainFor(2 * batch * l.Out); runsInline(l.In, grain) {
		l.weightGradRows(stash, dy, gw, 0, l.In)
	} else {
		ParallelFor(l.In, grain, func(lo, hi int) { l.weightGradRows(stash, dy, gw, lo, hi) })
	}
	// Input gradient: rows are disjoint over the batch.
	if dx == nil {
		return
	}
	if grain := grainFor(2 * nw); runsInline(batch, grain) {
		l.inputGradRows(params, dy, dx, 0, batch)
	} else {
		ParallelFor(batch, grain, func(lo, hi int) { l.inputGradRows(params, dy, dx, lo, hi) })
	}
	maskBySign(dx[:batch*l.In], stash)
}

func (l Dense) weightGradRows(stash, dy, gw []float32, lo, hi int) {
	for k := lo; k < hi; k++ {
		axpyRows(gw[k*l.Out:(k+1)*l.Out], dy, stash[k:], l.In)
	}
}

// maskBySign zeroes dx wherever the stashed input x is not > 0: the
// derivative of the ReLU that produced x, which Kernel.Backward applies
// on the consumer's side. A ReLU writes +0 or leaves its input, so
// x > 0 exactly where that layer's pre-activation was > 0, ±0 and NaN
// included, and a zeroed element is the +0 the producer's own mask
// would have written.
func maskBySign(dx, x []float32) {
	x = x[:len(dx)]
	for i, v := range x {
		if !(v > 0) {
			dx[i] = 0
		}
	}
}

func (l Dense) inputGradRows(params, dy, dx []float32, lo, hi int) {
	n := l.Out
	// The vector tiles leave Σ_{j<n4} W[k,j]·d[i,j] in dx[i,k] for k < k8.
	k8, n4 := 0, 0
	if useAVX2 && l.In >= 8 && n >= 4 && lo < hi {
		k8, n4 = l.In&^7, n&^3
		w, d, out := params[:l.In*n], dy[lo*n:hi*n], dx[lo*l.In:hi*l.In]
		i := 0
		for ; i+4 <= hi-lo; i += 4 {
			dx4AVX2(&out[i*l.In], &w[0], &d[i*n], k8, n4, l.In, n)
		}
		for ; i < hi-lo; i++ {
			dx1AVX2(&out[i*l.In], &w[0], &d[i*n], k8, n4, n)
		}
	}
	for i := lo; i < hi; i++ {
		d := dy[i*n : (i+1)*n]
		dxi := dx[i*l.In : (i+1)*l.In]
		// A sum the vector tiles began goes on from where it stands.
		for k := 0; k < k8 && n4 < n; k++ {
			s := dxi[k]
			for j, wv := range params[k*n+n4 : (k+1)*n] {
				s += wv * d[n4+j]
			}
			dxi[k] = s
		}
		k := k8
		for ; k+4 <= len(dxi); k += 4 {
			r := params[k*n : (k+4)*n]
			dxi[k], dxi[k+1], dxi[k+2], dxi[k+3] = dot4(d, r[:n], r[n:2*n], r[2*n:3*n], r[3*n:])
		}
		for ; k < len(dxi); k++ {
			dxi[k] = dot(d, params[k*n:(k+1)*n])
		}
	}
}

// The micro-kernels below are register tiles of the loops they
// replaced (kept as the oracle in nn_test.go). A tile changes which
// elements are in flight together, never the order in which one
// element's terms are added, and every accumulate keeps the oracle's
// single `s += a*b` shape, so the results are the same bits on every
// target, with or without fused multiply-add. Where useAVX2 is set,
// axpy4, axpy and inputGradRows hand the whole-vector prefix of their
// loop to the assembly and run the rest themselves, in order. DESIGN.md
// §7 has the argument in full.

// axpyRows adds coef[t*stride]·rows[t*len(dst):(t+1)*len(dst)] to dst
// for t = 0, 1, … to the end of coef, in order, skipping zero
// coefficients. A skipped term is not a no-op to add (dst + 0·w is not
// dst for w = ±Inf or NaN, nor for dst = -0), so the four rows of a
// tile are the next four non-zero terms, not the next four rows.
func axpyRows(dst, rows, coef []float32, stride int) {
	n := len(dst)
	var r [4][]float32
	var c [4]float32
	m := 0
	for t, off := 0, 0; off < len(coef); t, off = t+1, off+stride {
		cv := coef[off]
		if cv == 0 {
			continue
		}
		r[m], c[m] = rows[t*n:(t+1)*n], cv
		if m++; m == 4 {
			axpy4(dst, r[0], r[1], r[2], r[3], c[0], c[1], c[2], c[3])
			m = 0
		}
	}
	for t := 0; t < m; t++ {
		axpy(dst, r[t], c[t])
	}
}

// axpy4 is dst += c0·r0, then c1·r1, c2·r2, c3·r3, with one load and
// one store of dst for the four.
func axpy4(dst, r0, r1, r2, r3 []float32, c0, c1, c2, c3 float32) {
	r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
	if n := len(dst) &^ 7; useAVX2 && n > 0 {
		axpy4AVX2(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], n, c0, c1, c2, c3)
		dst, r0, r1, r2, r3 = dst[n:], r0[n:], r1[n:], r2[n:], r3[n:]
	}
	for j, s := range dst {
		s += c0 * r0[j]
		s += c1 * r1[j]
		s += c2 * r2[j]
		s += c3 * r3[j]
		dst[j] = s
	}
}

func axpy(dst, r []float32, c float32) {
	r = r[:len(dst)]
	if n := len(dst) &^ 7; useAVX2 && n > 0 {
		axpyAVX2(&dst[0], &r[0], n, c)
		dst, r = dst[n:], r[n:]
	}
	for j, s := range dst {
		s += c * r[j]
		dst[j] = s
	}
}

// dot4 is four dot products against d at once: each sums j in order
// in its own accumulator, the four sharing the loads of d and
// overlapping their add latencies.
func dot4(d, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float32) {
	r0, r1, r2, r3 = r0[:len(d)], r1[:len(d)], r2[:len(d)], r3[:len(d)]
	for j, dv := range d {
		s0 += r0[j] * dv
		s1 += r1[j] * dv
		s2 += r2[j] * dv
		s3 += r3[j] * dv
	}
	return
}

func dot(d, r []float32) (s float32) {
	r = r[:len(d)]
	for j, dv := range d {
		s += r[j] * dv
	}
	return
}

func (l Dense) check(op string, params, x, y []float32, batch int) {
	if len(params) < l.ParamCount() {
		panic(fmt.Sprintf("nn: %s params %d < %d", op, len(params), l.ParamCount()))
	}
	if len(x) < batch*l.In || len(y) < batch*l.Out {
		panic(fmt.Sprintf("nn: %s buffer sizes x=%d y=%d batch=%d in=%d out=%d",
			op, len(x), len(y), batch, l.In, l.Out))
	}
}

// SoftmaxXent computes mean cross-entropy loss over the batch and the
// gradient w.r.t. logits (written into dlogits, same shape).
func SoftmaxXent(logits []float32, labels []int, dlogits []float32, batch, classes int) float32 {
	if len(logits) < batch*classes || len(dlogits) < batch*classes || len(labels) < batch {
		panic("nn: SoftmaxXent buffer sizes")
	}
	var loss float64
	for i := 0; i < batch; i++ {
		li := logits[i*classes : (i+1)*classes]
		di := dlogits[i*classes : (i+1)*classes]
		maxv := li[0]
		for _, v := range li {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range li {
			e := math.Exp(float64(v - maxv))
			di[j] = float32(e)
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		p := float64(di[y]) / sum
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		inv := float32(1.0 / sum / float64(batch))
		for j := range di {
			di[j] *= inv
		}
		di[y] -= 1.0 / float32(batch)
	}
	return float32(loss / float64(batch))
}

// SGD applies w -= lr·g and zeroes the gradient buffer: every element
// of g is +0 on return, which internal/exec relies on to never move a
// just-applied gradient (VM.MarkZero). Any optimizer added beside these
// two owes the same reset.
func SGD(w, g []float32, lr float32) {
	g = g[:len(w)]
	for i := range w {
		w[i] -= lr * g[i]
		g[i] = 0
	}
}

// Adam applies one Adam step with bias correction; m and v are the
// first and second moment buffers (the optimizer state K of the
// paper's swap model). step is 1-based. The gradient buffer is
// zeroed, matching the "Reset dW′" of Fig. 5(a).
func Adam(w, g, m, v []float32, lr, beta1, beta2, eps float32, step int) {
	if len(m) < len(w) || len(v) < len(w) {
		panic("nn: Adam state buffers too small")
	}
	b1c := 1 - float32(math.Pow(float64(beta1), float64(step)))
	b2c := 1 - float32(math.Pow(float64(beta2), float64(step)))
	for i := range w {
		gi := g[i]
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		mh := m[i] / b1c
		vh := v[i] / b2c
		w[i] -= lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
		g[i] = 0
	}
}

// XavierInit fills params with deterministic Xavier-uniform weights
// (bias zero) using an xorshift PRNG seeded per layer — reproducible
// without touching math/rand's global state.
func XavierInit(l Dense, params []float32, seed uint64) {
	limit := float32(math.Sqrt(6.0 / float64(l.In+l.Out)))
	rng := seed*2862933555777941757 + 3037000493
	for i := 0; i < l.In*l.Out; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		// Map to [-limit, limit).
		u := float32(rng>>11) / float32(1<<53)
		params[i] = (2*u - 1) * limit
	}
	for i := l.In * l.Out; i < l.ParamCount(); i++ {
		params[i] = 0
	}
}

// Argmax returns the index of the max element of row i in a
// [rows, cols] matrix.
func Argmax(data []float32, i, cols int) int {
	best, bv := 0, data[i*cols]
	for j := 1; j < cols; j++ {
		if v := data[i*cols+j]; v > bv {
			best, bv = j, v
		}
	}
	return best
}
