// Package nn implements real float32 neural-network math on plain
// slices: dense layers, ReLU, softmax cross-entropy, SGD/Adam
// optimizers, the average across data-parallel replicas and that
// average with SGD applied in the same pass. It deliberately operates
// on caller-provided buffers so the exec runtime can place those
// buffers in capacity-limited virtual device memory and move them
// through Harmony's coherent virtual memory — the kernels never
// allocate parameter or activation storage themselves.
//
// The stash holds only each layer's input, and nothing is recomputed
// from it: ReLU's derivative is applied by the layer above, which
// zeroes its input gradient wherever the input it stashed — this
// layer's rectified output — is not positive (Kernel.Backward;
// DESIGN.md §7, "Where ReLU's derivative is applied"). So a backward
// pass costs the two forwards the cost model charges
// (models.BwdFLOPsFactor).
//
// A gradient is reset by being overwritten, not cleared: the first
// backward of a step to write it sums from +0 (Update.Reset) and never
// reads the bytes the last update left, so the trainer's update forms
// (ApplySGD, AverageSGD, a backward with Update.SGD) leave the gradient
// as it was or never store it. SGD and Adam still store the +0s, for a
// caller that accumulates into the same buffer again (DESIGN.md §9,
// "Known-zero pages").
//
// The Dense inner loops, SGD, Average (the all-reduce across replicas)
// and AverageSGD have two implementations with one result: the Go loops
// in this file, which every GOARCH builds, and AVX2 assembly
// (kernels_amd64.s) that amd64 dispatches to when the CPU and the OS
// support it. Both match the scalar oracles in nn_test.go bit for bit
// (DESIGN.md §7). The race detector cannot see what assembly loads
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

// forwardRows is blocked for the cache: it takes the rows of W fwdRows
// at a time and applies each block to fwdBatch batch rows before the
// next, so a block of W is read once per fwdBatch rows rather than once
// per row. With Out = 512 the block is 32 KiB and the rows' outputs
// 16 KiB, which a 48 KiB L1 holds together.
const (
	fwdRows  = 16
	fwdBatch = 8
)

func (l Dense) forwardRows(params, x, y []float32, lo, hi int) {
	n := l.Out
	w, b := params[:l.In*n], params[l.In*n:l.ParamCount()]
	var off [fwdRows]int
	var c [fwdRows]float32
	for r0 := lo; r0 < hi; r0 += fwdBatch {
		r1 := min(r0+fwdBatch, hi)
		for i := r0; i < r1; i++ {
			copy(y[i*n:(i+1)*n], b)
		}
		for k0 := 0; k0 < l.In; k0 += fwdRows {
			k1 := min(k0+fwdRows, l.In)
			for i := r0; i < r1; i++ {
				m := gather(off[:k1-k0], c[:], x[i*l.In+k0:], 1, n)
				axpyTerms(y[i*n:(i+1)*n], w[k0*n:k1*n], off[:m], c[:m], false, nil, 0)
			}
		}
		if ys := y[r0*n : r1*n]; l.ReLU {
			for j, v := range ys {
				b := math.Float32bits(v)
				ys[j] = math.Float32frombits(b &^ positive(b^signBit))
			}
		}
	}
}

// Backward implements Kernel: it accumulates parameter gradients into
// grad and computes dx[batch,In] given dy[batch,Out], the gradient with
// respect to the pre-activation, and the stashed input. dx may be nil
// for the first layer.
//
// The pass runs in blocks of W's rows (backwardBlocks) that fan across
// the worker pool without changing any element's accumulation order:
// a block owns its rows of W and gw and its columns of dx, and each gw
// row still accumulates the batch in order. The results are
// bit-identical to a serial run. An operand too short for batch panics
// before anything is written (checkBackward).
func (l Dense) Backward(params, stash, dy, dx, grad []float32, batch int) {
	l.BackwardUpdate(params, stash, dy, dx, grad, batch, Update{})
}

// BackwardUpdate implements Kernel. With u.Reset the weight gradient's
// first strip of terms stores its sums over grad instead of adding them
// to it, and a row with no terms there stores +0s. With u.SGD the
// weight gradient's last strip of terms updates W instead of being
// stored, so each row of W is read and written once (backwardBlocks).
func (l Dense) BackwardUpdate(params, stash, dy, dx, grad []float32, batch int, u Update) {
	checkBackward("Dense", params, stash, dy, dx, grad, batch, l.ParamCount(), l.In, l.Out)
	nw := l.In * l.Out
	l.biasGrad(dy, grad[nw:nw+l.Out], batch, u.Reset)
	if batch == 0 { // no strip of terms starts the weight sums or ends in the update
		if u.Reset {
			clear(grad[:nw])
		}
		if u.SGD {
			sgd("BackwardUpdate", params[:l.ParamCount()], grad, u.LR, false)
		}
		return
	}
	if u.SGD {
		sgd("BackwardUpdate", params[nw:nw+l.Out], grad[nw:nw+l.Out], u.LR, false)
	}
	l.backwardBlocks(params[:nw], stash[:batch*l.In], dy, dx, grad[:nw], batch, u)
}

// biasGrad sums the batch of dy into gb, each column in row order, from
// +0 with reset set. It is 1/In of the pass's work, so it does not fan
// out.
func (l Dense) biasGrad(dy, gb []float32, batch int, reset bool) {
	if reset {
		clear(gb)
	}
	for i := 0; i < batch; i++ {
		for j, dv := range dy[i*l.Out : (i+1)*l.Out] {
			gb[j] += dv
		}
	}
}

// blockRows is how many rows of W one block of backwardBlocks takes: a
// multiple of 8, so a block's rows split between dx4AVX2 and the Go loop
// as the whole matrix's do, and small enough that the block stays in L1
// from its dx to its update (EXPERIMENTS.md, "The update inside the
// backward").
const blockRows = 8

// backwardBlocks is the weight and input gradient of batch ≥ 1 rows. It
// takes W in blocks of blockRows rows; for each block it computes the
// four-row tiles' dx at those k from the old rows, masked, then the
// rows' weight gradient, whose last strip of terms, with u.SGD,
// subtracts lr·sum from W where it would have stored the sum, so the
// gradient's last bytes are never stored. The rows the tile leaves (all
// of them on the Go tiles) compute their dx whole first, from the old
// W, since the k a one-row group takes together span blocks; they are
// disjoint over the batch, so they fan out. Each element of dx, gw and
// W gets the operations Backward then ApplySGD give it, in the same
// order and by the same code, so the bits are theirs, NaN payloads
// included. Blocks read and write disjoint rows of W and gw and
// disjoint columns of dx, so they fan out over the pool.
func (l Dense) backwardBlocks(w, stash, dy, dx, gw []float32, batch int, u Update) {
	tiled := 0 // the rows whose dx the blocks compute
	if dx != nil {
		if l.tiles4() {
			tiled = batch &^ 3
		}
		if grain := grainFor(2 * l.In * l.Out); runsInline(batch-tiled, grain) {
			l.inputGradRows(w, stash, dy, dx, tiled, batch, 0, l.In)
		} else {
			ParallelFor(batch-tiled, grain, func(lo, hi int) { l.inputGradRows(w, stash, dy, dx, tiled+lo, tiled+hi, 0, l.In) })
		}
	}
	blocks := (l.In + blockRows - 1) / blockRows
	if grain := grainFor(4 * batch * blockRows * l.Out); runsInline(blocks, grain) {
		l.gradBlocks(w, stash, dy, dx, gw, batch, tiled, u, 0, blocks)
	} else {
		ParallelFor(blocks, grain, func(lo, hi int) { l.gradBlocks(w, stash, dy, dx, gw, batch, tiled, u, lo, hi) })
	}
}

func (l Dense) gradBlocks(w, stash, dy, dx, gw []float32, batch, tiled int, u Update, lo, hi int) {
	var wu []float32 // the W the last strip updates
	if u.SGD {
		wu = w
	}
	for b := lo; b < hi; b++ {
		k0, k1 := b*blockRows, min((b+1)*blockRows, l.In)
		l.inputGradRows(w, stash, dy, dx, 0, tiled, k0, k1)
		l.weightGradRows(stash, dy, gw, wu, batch, u.Reset, u.LR, k0, k1)
	}
}

// weightGradRows accumulates gw rows [lo, hi): gw[k,j] += x[i,k]·d[i,j]
// for ascending i, zero x skipped — from +0 rather than from gw when
// reset is set. Each row takes the batch in strips of termCap rows, one
// list of terms a strip, strip after strip, so every element still adds
// its terms in ascending i, and only the first strip starts from +0.
// With w set, the last strip applies SGD to W's rows instead of storing
// the sums (axpyTerms). (Tiling the columns, so that a strip of dY stays
// in L1 across weight rows, did not pay: EXPERIMENTS.md, "Cache-blocking
// the Dense loops".)
func (l Dense) weightGradRows(stash, dy, gw, w []float32, batch int, reset bool, lr float32, lo, hi int) {
	n := l.Out
	var off [termCap]int
	var c [termCap]float32
	for i0 := 0; i0 < batch; i0 += termCap {
		i1 := min(i0+termCap, batch)
		for k := lo; k < hi; k++ {
			var wk []float32
			if w != nil && i1 == batch {
				wk = w[k*n : (k+1)*n]
			}
			m := gather(off[:i1-i0], c[:], stash[i0*l.In+k:], l.In, n)
			axpyTerms(gw[k*n:(k+1)*n], dy[i0*n:i1*n], off[:m], c[:m], reset && i0 == 0, wk, lr)
		}
	}
}

// maskBySign zeroes dx wherever the stashed input x is not > 0: the
// derivative of the ReLU that produced x, which Kernel.Backward applies
// on the consumer's side. A ReLU writes +0 or leaves its input, so
// x > 0 exactly where that layer's pre-activation was > 0, ±0 and NaN
// included, and a zeroed element is the +0 the producer's own mask
// would have written. The mask is a select on the bits, not a branch:
// about half of a hidden layer's inputs are masked, in no order a
// branch predictor could learn.
func maskBySign(dx, x []float32) {
	x = x[:len(dx)]
	for i, v := range x {
		dx[i] = math.Float32frombits(math.Float32bits(dx[i]) & positive(math.Float32bits(v)))
	}
}

// signBit is a float32's sign: b^signBit is the bits of -v.
const signBit = 1 << 31

// positive is all ones where b is the bits of a float32 > 0 and 0
// elsewhere, without a branch. Those are 1 (the smallest denormal)
// through 0x7f800000 (+Inf): ±0, NaN of either sign and every negative
// lie outside. So b-1 is below 0x7f800000 for them alone, compared as
// unsigned numbers by the borrow of a 64-bit subtraction.
// positive(b^signBit) is the mask of v < 0, ReLU's.
func positive(b uint32) uint32 {
	return uint32(int64(uint64(b-1)-0x7f800000) >> 63)
}

// inputGradRows computes dx for batch rows [lo, hi) at k in [k0, k1):
// dx[i,k] = Σ_j W[k,j]·dy[i,j] where the stashed input x[i,k] is > 0,
// and +0 where it is not, the mask of maskBySign. On the vector path the
// four-row tile computes its rows densely and masks them afterwards: its
// rows share each transposed block of W, and the union of their four
// masks keeps most k. Every other row — the last one to three of a
// chunk, and every row on the Go tiles — computes only the elements its
// mask keeps. Which path a row takes depends on its place in [lo, hi)
// alone, not on [k0, k1).
func (l Dense) inputGradRows(w, stash, dy, dx []float32, lo, hi, k0, k1 int) {
	n, in := l.Out, l.In
	i := lo
	if l.tiles4() {
		for ; i+4 <= hi; i += 4 {
			l.inputGrad4(w[k0*n:], dy[i*n:(i+4)*n], dx[i*in+k0:], k1-k0)
		}
		for r := lo; r < i; r++ {
			maskBySign(dx[r*in+k0:r*in+k1], stash[r*in+k0:])
		}
	}
	for ; i < hi; i++ {
		l.activeInputGrad(w[k0*n:], stash[i*in+k0:i*in+k1], dy[i*n:(i+1)*n], dx[i*in+k0:i*in+k1])
	}
}

// tiles4 reports whether dx rows go through the four-row vector tile.
func (l Dense) tiles4() bool { return useAVX2 && l.In >= 8 && l.Out >= 4 }

// inputGrad4 computes four batch rows of dx densely at the nk k whose
// rows of W start w: dx4AVX2 sums the whole 8k × 4j blocks, and the Go
// loop continues those sums over the last j and computes the k past the
// last block whole. The rows of dx are l.In apart.
func (l Dense) inputGrad4(w, d, dx []float32, nk int) {
	n := l.Out
	k8, n4 := nk&^7, n&^3
	dx4AVX2(&dx[0], &w[0], &d[0], k8, n4, l.In, n)
	for r := 0; r < 4; r++ {
		dr, dxr := d[r*n:(r+1)*n], dx[r*l.In:r*l.In+nk]
		// A sum the vector tile began goes on from where it stands.
		for k := 0; k < k8 && n4 < n; k++ {
			s := dxr[k]
			for j, wv := range w[k*n+n4 : (k+1)*n] {
				s += wv * dr[n4+j]
			}
			dxr[k] = s
		}
		k := k8
		for ; k+4 <= nk; k += 4 {
			w4 := w[k*n : (k+4)*n]
			dxr[k], dxr[k+1], dxr[k+2], dxr[k+3] = dot4(dr, w4[:n], w4[n:2*n], w4[2*n:3*n], w4[3*n:])
		}
		for ; k < nk; k++ {
			dxr[k] = dot(dr, w[k*n:(k+1)*n])
		}
	}
}

// activeInputGrad computes one batch row of dx where the stashed input
// x is > 0 and stores +0 everywhere else, never computing a masked
// element. It collects the active k in order and hands them on in
// groups: sixteen to dxGathered on the vector path, four to dot4 on the
// Go tiles, the last group short.
func (l Dense) activeInputGrad(w, x, d, dx []float32) {
	n := l.Out
	vec := useAVX2 && n >= 4
	var ks [16]int
	m := 0
	for k, xv := range x {
		if !(xv > 0) {
			dx[k] = 0
			continue
		}
		ks[m] = k
		m++
		switch {
		case vec && m == 16:
			dxGathered(w, d, dx, &ks, m)
			m = 0
		case !vec && m == 4:
			k0, k1, k2, k3 := ks[0]*n, ks[1]*n, ks[2]*n, ks[3]*n
			dx[ks[0]], dx[ks[1]], dx[ks[2]], dx[ks[3]] = dot4(d, w[k0:k0+n], w[k1:k1+n], w[k2:k2+n], w[k3:k3+n])
			m = 0
		}
	}
	if vec && m > 0 {
		dxGathered(w, d, dx, &ks, m)
		return
	}
	for _, k := range ks[:m] {
		dx[k] = dot(d, w[k*n:(k+1)*n])
	}
}

// dxGathered computes dx[k] for the first m ≤ 16 k of ks: dxGatherAVX2
// sums the whole blocks of four j for sixteen rows of W — a short group
// repeats its last row in the lanes it leaves over, and those sums are
// dropped — and each kept sum goes on over the last one to three j, in
// order.
func dxGathered(w, d, dx []float32, ks *[16]int, m int) {
	n := len(d)
	n4 := n &^ 3
	var rows [16]int
	for t := range rows {
		rows[t] = ks[min(t, m-1)] * n
	}
	var sums [16]float32
	dxGatherAVX2(&sums, &w[0], &rows, &d[0], n4)
	for t, k := range ks[:m] {
		s := sums[t]
		for j, wv := range w[k*n+n4 : (k+1)*n] {
			s += wv * d[n4+j]
		}
		dx[k] = s
	}
}

// The micro-kernels below are register tiles of the loops they
// replaced (kept as the oracle in nn_test.go). A tile changes which
// elements are in flight together, never the order in which one
// element's terms are added, and every accumulate keeps the oracle's
// single `s += a*b` shape, so the results are the same bits on every
// target, with or without fused multiply-add. Where useAVX2 is set,
// axpyTerms, inputGrad4 and dxGathered hand the whole-vector prefix of
// their loop to the assembly and run the rest themselves, in order.
// DESIGN.md §7 has the argument in full.

// termCap is the longest strip of coefficients one gather compacts.
const termCap = 64

// gather compacts the strip coef[t*stride], t < len(off), len(off) ≥ 1,
// into the terms axpyTerms applies: its non-zero coefficients in order
// into c, each with t*rowLen, the offset of its row, into off. It
// returns how many it kept. A zero term is not a no-op to add (dst + 0·w
// is not dst for w = ±Inf or NaN, nor for dst = -0), so it is left out,
// and without a branch on the value: every coefficient is written at
// the next free slot, and the count moves on by one unless it is ±0.
func gather(off []int, c, coef []float32, stride, rowLen int) int {
	c, coef = c[:len(off)], coef[:(len(off)-1)*stride+1]
	m := 0
	for t := range off {
		v := coef[t*stride]
		off[m], c[m] = t*rowLen, v
		u := math.Float32bits(v) << 1
		m += int((u | -u) >> 31)
	}
	return m
}

// axpyTerms adds c[t]·rows[off[t]+j] to dst[j] for t = 0, 1, … in order,
// with one load and one store of each dst element for the whole list.
// With fresh set each sum starts at +0 instead of at dst[j], which is
// stored over and never read, and an empty list stores +0s. With w set,
// a sum s is not stored to dst: w[j] -= lr·s is, SGD's statement, and
// dst keeps what it held. Every off[t]+len(dst) is at most len(rows).
func axpyTerms(dst, rows []float32, off []int, c []float32, fresh bool, w []float32, lr float32) {
	if len(off) == 0 && w == nil {
		if fresh {
			clear(dst)
		}
		return
	}
	c = c[:len(off)]
	if w != nil {
		w = w[:len(dst)]
	}
	if n := len(dst) &^ 7; useAVX2 && n > 0 && len(off) > 0 {
		var wp *float32
		if w != nil {
			wp, w = &w[0], w[n:]
		}
		axpyTermsAVX2(&dst[0], &rows[0], &off[0], &c[0], len(off), n, fresh, wp, lr)
		dst, rows = dst[n:], rows[n:]
	}
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		d := dst[j : j+4 : j+4]
		var s0, s1, s2, s3 float32
		if !fresh {
			s0, s1, s2, s3 = d[0], d[1], d[2], d[3]
		}
		for t, o := range off {
			r, v := rows[o+j:o+j+4:o+j+4], c[t]
			s0 += v * r[0]
			s1 += v * r[1]
			s2 += v * r[2]
			s3 += v * r[3]
		}
		if w == nil {
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
			continue
		}
		u := w[j : j+4 : j+4]
		u[0] -= lr * s0
		u[1] -= lr * s1
		u[2] -= lr * s2
		u[3] -= lr * s3
	}
	for ; j < len(dst); j++ {
		var s float32
		if !fresh {
			s = dst[j]
		}
		for t, o := range off {
			s += c[t] * rows[o+j]
		}
		if w == nil {
			dst[j] = s
		} else {
			w[j] -= lr * s
		}
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

// checkBackward panics unless every operand of a Backward over batch
// rows of a kernel with np parameters, in inputs and out outputs a
// sample is long enough: it runs before the pass writes anything, so a
// short buffer leaves grad and dx as they were. dx may be nil.
func checkBackward(kind string, params, stash, dy, dx, grad []float32, batch, np, in, out int) {
	if len(params) < np || len(grad) < np || len(stash) < batch*in || len(dy) < batch*out ||
		dx != nil && len(dx) < batch*in {
		panic(fmt.Sprintf("nn: %s.Backward buffer sizes params=%d grad=%d (need %d) stash=%d dx=%d (need %d) dy=%d (need %d), batch %d",
			kind, len(params), len(grad), np, len(stash), len(dx), batch*in, len(dy), batch*out, batch))
	}
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
// of g is +0 on return, for a caller that accumulates the next gradient
// into it with Backward. A gradient shorter than w panics.
func SGD(w, g []float32, lr float32) {
	sgd("SGD", w, g, lr, true)
}

// ApplySGD is SGD that leaves g as it was: the trainer's update, whose
// next backward into g overwrites it (Update.Reset), so the reset costs
// no store.
func ApplySGD(w, g []float32, lr float32) {
	sgd("ApplySGD", w, g, lr, false)
}

// sgd is SGD's loop, with the +0 stores to g when reset is set.
func sgd(name string, w, g []float32, lr float32, reset bool) {
	if len(g) < len(w) {
		panic(fmt.Sprintf("nn: %s gradient has %d floats for %d weights", name, len(g), len(w)))
	}
	g = g[:len(w)]
	if n := len(w) &^ 31; useAVX2 && n > 0 {
		sgdAVX2(&w[0], &g[0], n, lr, reset)
		w, g = w[n:], g[n:]
	}
	for i := range w {
		w[i] -= lr * g[i]
	}
	if reset {
		clear(g)
	}
}

// Average sets elements [lo, hi) of every view to inv times their sum
// over the views: each element adds the views to +0 in index order, then
// is scaled by inv. That is the all-reduce of data-parallel training,
// with inv = 1/len(views) and one view per replica. The leading +0 is
// not a no-op, since +0 + -0 is +0. The range fans out across the worker
// pool in disjoint sub-ranges, so the result is the same at any pool
// size. A view shorter than hi panics.
func Average(views [][]float32, lo, hi int, inv float32) {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("nn: Average range [%d, %d)", lo, hi))
	}
	for i, v := range views {
		if len(v) < hi {
			panic(fmt.Sprintf("nn: Average view %d has %d floats, range ends at %d", i, len(v), hi))
		}
	}
	if grain := grainFor(2 * len(views)); runsInline(hi-lo, grain) {
		average(views, lo, hi, inv)
	} else {
		ParallelFor(hi-lo, grain, func(a, b int) { average(views, lo+a, lo+b, inv) })
	}
}

// average is Average's loop, one pass over blocks: a block of
// accumulators starts at +0, adds the block of every view in index
// order, is scaled and stored back to every view. The assembly takes
// the 32-float blocks; the Go loop takes the tail, or everything in
// 2048-float blocks where there is no vector path.
func average(views [][]float32, lo, hi int, inv float32) {
	if n := (hi - lo) &^ 31; useAVX2 && n > 0 && len(views) > 0 {
		averageAVX2(&views[0], len(views), lo, n, inv)
		lo += n
	}
	var acc [2048]float32
	for ; lo < hi; lo += len(acc) {
		blk := acc[:min(len(acc), hi-lo)]
		clear(blk)
		for _, v := range views {
			for j, x := range v[lo:][:len(blk)] {
				blk[j] += x
			}
		}
		for j := range blk {
			blk[j] *= inv
		}
		for _, v := range views {
			copy(v[lo:], blk)
		}
	}
}

// AverageSGD is Average followed by SGD on every replica, done once: for
// each element of [lo, hi) it sums the gradient views gs to +0 in index
// order and scales the sum by inv, as Average does, then computes
// w - lr·mean from the first weight view, as SGD does (a multiply, then
// a subtract), and stores that to every weight view. It writes no
// gradient view: like ApplySGD it leaves the reset to the next backward
// (Update.Reset). ws[i] is replica i's weights beside its
// gradient gs[i]; data-parallel replicas hold the same weights, so the
// weights are the ones Average and a per-replica SGD would leave. The range fans out
// across the worker pool like Average's. Every view is checked before
// anything is written: unequal view counts, or a view shorter than hi,
// panic.
func AverageSGD(gs, ws [][]float32, lo, hi int, inv, lr float32) {
	if lo < 0 || lo > hi {
		panic(fmt.Sprintf("nn: AverageSGD range [%d, %d)", lo, hi))
	}
	if len(ws) != len(gs) {
		panic(fmt.Sprintf("nn: AverageSGD has %d weight views for %d gradient views", len(ws), len(gs)))
	}
	for i := range gs {
		if len(gs[i]) < hi || len(ws[i]) < hi {
			panic(fmt.Sprintf("nn: AverageSGD view %d has %d gradient and %d weight floats, range ends at %d",
				i, len(gs[i]), len(ws[i]), hi))
		}
	}
	if len(gs) == 0 {
		return
	}
	if grain := grainFor(3*len(gs) + 1); runsInline(hi-lo, grain) {
		averageSGD(gs, ws, lo, hi, inv, lr)
	} else {
		ParallelFor(hi-lo, grain, func(a, b int) { averageSGD(gs, ws, lo+a, lo+b, inv, lr) })
	}
}

// averageSGD is AverageSGD's loop over at least one view, in blocks like
// average's: the assembly takes the 32-float blocks, the Go loop the
// tail, or everything where there is no vector path. Its update is
// SGD's statement, so a compiler that fuses the multiply into the
// subtract fuses both loops alike.
func averageSGD(gs, ws [][]float32, lo, hi int, inv, lr float32) {
	if n := (hi - lo) &^ 31; useAVX2 && n > 0 {
		averageSGDAVX2(&gs[0], &ws[0], len(gs), lo, n, inv, lr)
		lo += n
	}
	var acc [2048]float32
	for ; lo < hi; lo += len(acc) {
		blk := acc[:min(len(acc), hi-lo)]
		clear(blk)
		for _, g := range gs {
			for j, x := range g[lo:][:len(blk)] {
				blk[j] += x
			}
		}
		for j := range blk {
			blk[j] *= inv
		}
		w0 := ws[0][lo:][:len(blk)]
		for j := range blk {
			w := w0[j]
			w -= lr * blk[j]
			blk[j] = w
		}
		for i := range ws {
			copy(ws[i][lo:], blk)
		}
	}
}

// Adam applies one Adam step with bias correction; m and v are the
// first and second moment buffers (the optimizer state K of the
// paper's swap model). step is 1-based. The gradient buffer is
// zeroed, matching the "Reset dW′" of Fig. 5(a), though the trainer's
// next backward would overwrite it anyway. A gradient or moment
// buffer shorter than w panics before anything is written.
func Adam(w, g, m, v []float32, lr, beta1, beta2, eps float32, step int) {
	if len(g) < len(w) {
		panic(fmt.Sprintf("nn: Adam gradient has %d floats for %d weights", len(g), len(w)))
	}
	if len(m) < len(w) || len(v) < len(w) {
		panic(fmt.Sprintf("nn: Adam moments have %d and %d floats for %d weights", len(m), len(v), len(w)))
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
