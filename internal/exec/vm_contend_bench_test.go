package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"harmony/internal/memory"
	"harmony/internal/tensor"
)

// BenchmarkVMEvictionZipf measures demand paging under a skewed (Zipf
// s=1.2) access pattern: a hot head that mostly hits the pin fast
// path and a long cold tail that forces evictions. Unlike the cyclic
// BenchmarkVMEviction, hits and misses interleave, so the bench
// exercises the mixed word-CAS traffic of a real working set.
func BenchmarkVMEvictionZipf(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("tensors=%d", n), func(b *testing.B) {
			const bytes = 64
			reg := tensor.NewRegistry()
			vm := NewVM(1, int64(n)*bytes/2, memory.Policy{DirtyTracking: true})
			ts := make([]*tensor.Tensor, n)
			for i := range ts {
				ts[i] = reg.Add(tensor.Activation, bytes, i, -1)
				vm.HostAlloc(ts[i])
			}
			rng := rand.New(rand.NewSource(42))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := ts[zipf.Uint64()]
				if _, err := vm.Ensure(0, t); err != nil {
					b.Fatal(err)
				}
				if err := vm.Unpin(t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnsureContended runs one goroutine per device, each
// hammering Ensure/Unpin on its own device's working set. Per-device
// metadata shards and the atomic claim word mean devices share no
// lock on this path, so ns/op staying flat from 1 to 64 devices is
// the scaling property this bench documents. It is the by-hand number
// (`make bench-contend`): on shared cores the 16→64 ratio swings by
// ±25% between identical runs, so nothing gates it. What it shows is
// guarded structurally by TestEnsureHitTakesOnlyItsOwnShard. Under
// the old global vm.mu, every Ensure on every device serialized here.
//
// The per-device working set is fixed and small (16 pages) so the
// total metadata footprint stays cache-resident at every device
// count; otherwise growing cache pressure would be indistinguishable
// from lock contention, which is the variable under test.
func BenchmarkEnsureContended(b *testing.B) {
	for _, devs := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("devs=%d", devs), func(b *testing.B) {
			const (
				bytes  = 64
				perDev = 16
			)
			reg := tensor.NewRegistry()
			vm := NewVM(devs, perDev*bytes, memory.Policy{DirtyTracking: true})
			sets := make([][]*tensor.Tensor, devs)
			for d := 0; d < devs; d++ {
				for i := 0; i < perDev; i++ {
					t := reg.Add(tensor.Activation, bytes, i, d)
					vm.HostAlloc(t)
					sets[d] = append(sets[d], t)
				}
				// Pre-fault the set so the timed loop is pure fast path
				// (pin CAS + shard LRU touch), the regime where lock
				// contention would show.
				for _, t := range sets[d] {
					if _, err := vm.Ensure(d, t); err != nil {
						b.Fatal(err)
					}
					if err := vm.Unpin(t); err != nil {
						b.Fatal(err)
					}
				}
			}
			perG := b.N/devs + 1
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, devs)
			for d := 0; d < devs; d++ {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					set := sets[d]
					for i := 0; i < perG; i++ {
						t := set[i&(perDev-1)]
						if _, err := vm.Ensure(d, t); err != nil {
							errs <- err
							return
						}
						if err := vm.Unpin(t); err != nil {
							errs <- err
							return
						}
					}
				}(d)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}
