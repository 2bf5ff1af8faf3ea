//go:build !amd64

package nn

// The Go tiles in nn.go are the kernels of this GOARCH; the vector
// path (kernels_amd64.go) is never taken.
var useAVX2 = false

func axpy4AVX2(dst, r0, r1, r2, r3 *float32, n int, c0, c1, c2, c3 float32) {
	panic("nn: no vector kernels on this GOARCH")
}

func axpyAVX2(dst, r *float32, n int, c float32) { panic("nn: no vector kernels on this GOARCH") }

func dx4AVX2(dx, w, d *float32, nk, nj, in, out int) { panic("nn: no vector kernels on this GOARCH") }

func dx1AVX2(dx, w, d *float32, nk, nj, out int) { panic("nn: no vector kernels on this GOARCH") }
