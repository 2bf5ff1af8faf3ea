// Package data generates deterministic synthetic datasets for the
// real-execution examples and tests: Gaussian class blobs (a stand-in
// for MNIST-class workloads — the paper's experiments need only a
// classification task whose loss visibly decreases).
package data

import "math"

// rng is a small xorshift64* PRNG so datasets are reproducible
// without math/rand global state.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

// uniform returns a float32 in [0, 1).
func (r *rng) uniform() float32 {
	return float32(r.next()>>11) / float32(1<<53)
}

// normal returns a standard normal sample (Box–Muller).
func (r *rng) normal() float32 {
	u1 := float64(r.uniform())
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := float64(r.uniform())
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// Blobs is a synthetic classification dataset: `classes` Gaussian
// clusters in `dim` dimensions.
type Blobs struct {
	Dim     int
	Classes int
	centers [][]float32
	noise   float32
	seed    uint64
}

// NewBlobs creates the dataset generator. Class centers are placed
// deterministically on coordinate-ish axes scaled to be separable at
// the given noise level.
func NewBlobs(dim, classes int, noise float32, seed uint64) *Blobs {
	if dim <= 0 || classes <= 0 || noise < 0 {
		panic("data: bad blob shape")
	}
	b := &Blobs{Dim: dim, Classes: classes, noise: noise, seed: seed}
	r := rng(seed ^ 0x9e3779b97f4a7c15)
	for c := 0; c < classes; c++ {
		center := make([]float32, dim)
		for d := 0; d < dim; d++ {
			center[d] = 2 * r.normal()
		}
		b.centers = append(b.centers, center)
	}
	return b
}

// Batch fills a flattened [n, Dim] input slice and an [n] label slice
// with fresh samples. The batchIndex seeds the stream so successive
// batches differ but reruns reproduce.
func (b *Blobs) Batch(n int, batchIndex uint64) ([]float32, []int) {
	r := rng(b.seed + batchIndex*0x100000001b3 + 1)
	x := make([]float32, n*b.Dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := int(r.next() % uint64(b.Classes))
		y[i] = c
		for d := 0; d < b.Dim; d++ {
			x[i*b.Dim+d] = b.centers[c][d] + b.noise*r.normal()
		}
	}
	return x, y
}
