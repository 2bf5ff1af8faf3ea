//go:build !amd64

package nn

// The Go tiles in nn.go are the kernels of this GOARCH; the vector
// path (kernels_amd64.go) is never taken.
var useAVX2 = false

func axpyTermsAVX2(dst, rows *float32, off *int, c *float32, m, n int, fresh bool, w *float32, lr float32) {
	panic("nn: no vector kernels on this GOARCH")
}

func dx4AVX2(dx, w, d *float32, nk, nj, in, out int) { panic("nn: no vector kernels on this GOARCH") }

func dxGatherAVX2(sums *[16]float32, w *float32, rows *[16]int, d *float32, nj int) {
	panic("nn: no vector kernels on this GOARCH")
}

func sgdAVX2(w, dw *float32, n int, lr float32, reset bool) {
	panic("nn: no vector kernels on this GOARCH")
}

func averageAVX2(views *[]float32, nviews, lo, n int, inv float32) {
	panic("nn: no vector kernels on this GOARCH")
}

func averageSGDAVX2(gs, ws *[]float32, nviews, lo, n int, inv, lr float32) {
	panic("nn: no vector kernels on this GOARCH")
}
