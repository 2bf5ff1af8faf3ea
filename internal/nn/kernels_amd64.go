package nn

// useAVX2 sends the three inner loops of Dense to the kernels in
// kernels_amd64.s. It is set once, here, and only the tests flip it:
// the Go tiles in nn.go are the same arithmetic and the path of every
// other GOARCH, of an amd64 CPU without AVX2 and of a -race build.
var useAVX2 = !raceEnabled && cpuHasAVX2()

func cpuHasAVX2() bool

// The kernels take the whole-vector prefix of a loop and the Go tile
// finishes the rest in order. They see no slice headers, so the caller
// has sliced every operand to the length it passes.

// axpy4AVX2 is axpy4 over n floats, n a multiple of 8.
//
//go:noescape
func axpy4AVX2(dst, r0, r1, r2, r3 *float32, n int, c0, c1, c2, c3 float32)

// axpyAVX2 is axpy over n floats, n a multiple of 8.
//
//go:noescape
func axpyAVX2(dst, r *float32, n int, c float32)

// dx4AVX2 stores dx[i*in+k] = Σ_{j<nj} w[k*out+j]·d[i*out+j], summed
// from +0 in ascending j, for four batch rows i and k < nk; nk is a
// multiple of 8 and nj of 4.
//
//go:noescape
func dx4AVX2(dx, w, d *float32, nk, nj, in, out int)

// dx1AVX2 is dx4AVX2 for one batch row.
//
//go:noescape
func dx1AVX2(dx, w, d *float32, nk, nj, out int)
