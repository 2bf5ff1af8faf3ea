package nn

// useAVX2 sends the three inner loops of Dense, SGD, Average and
// AverageSGD to the kernels in kernels_amd64.s. It is set once, here,
// and only the tests flip it: the Go loops in nn.go are the same
// arithmetic and the path of every other GOARCH, of an amd64 CPU
// without AVX2 and of a -race build.
var useAVX2 = !raceEnabled && cpuHasAVX2()

func cpuHasAVX2() bool

// The kernels take the whole-vector prefix of a loop and the Go tile
// finishes the rest in order. They see no slice headers, except the
// views of averageAVX2 and averageSGDAVX2, so the caller has sliced
// every operand to the length it passes.

// axpyTermsAVX2 is axpyTerms over n floats of dst, n a multiple of 8,
// for its m ≥ 1 terms: c[t] times the n floats off[t] floats into rows,
// added in ascending t to dst, or to +0 when fresh is set. With w
// non-nil each sum s updates w, w - lr·s, instead of being stored to
// dst. Every off[t]+n is at most the length of rows, and w holds n
// floats.
//
//go:noescape
func axpyTermsAVX2(dst, rows *float32, off *int, c *float32, m, n int, fresh bool, w *float32, lr float32)

// dx4AVX2 stores dx[i*in+k] = Σ_{j<nj} w[k*out+j]·d[i*out+j], summed
// from +0 in ascending j, for four batch rows i and k < nk; nk is a
// multiple of 8 and nj of 4.
//
//go:noescape
func dx4AVX2(dx, w, d *float32, nk, nj, in, out int)

// dxGatherAVX2 stores sums[t] = Σ_{j<nj} w[rows[t]+j]·d[j], summed from
// +0 in ascending j, for the sixteen rows of W that start rows[t] floats
// into w: one batch row's input gradient at sixteen k its ReLU mask
// keeps, wherever they lie (a row may repeat); nj is a multiple of 4,
// and every rows[t]+nj is at most the length of w.
//
//go:noescape
func dxGatherAVX2(sums *[16]float32, w *float32, rows *[16]int, d *float32, nj int)

// sgdAVX2 is sgd's loop over n floats, n a multiple of 32, storing +0
// to dw when reset is set.
//
//go:noescape
func sgdAVX2(w, dw *float32, n int, lr float32, reset bool)

// averageAVX2 is average over elements [lo, lo+n) of the nviews ≥ 1
// slices at views, n a multiple of 32. It reads the slice headers and
// trusts their data pointers: every view holds at least lo+n floats.
//
//go:noescape
func averageAVX2(views *[]float32, nviews, lo, n int, inv float32)

// averageSGDAVX2 is averageSGD over elements [lo, lo+n) of the nviews ≥ 1
// gradient slices at gs and weight slices at ws, n a multiple of 32. Like
// averageAVX2 it trusts the headers' data pointers: every view holds at
// least lo+n floats.
//
//go:noescape
func averageSGDAVX2(gs, ws *[]float32, nviews, lo, n int, inv, lr float32)
