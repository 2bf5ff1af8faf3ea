package exec

import (
	"fmt"
	"testing"

	"harmony/internal/memory"
	"harmony/internal/tensor"
)

// BenchmarkVMEviction measures demand paging when every Ensure must
// evict: half the tensors fit, the access pattern cycles, so each hit
// of the fast path is preceded by a victim selection. With the
// per-device intrusive LRU list the victim is the list head (O(1));
// the old implementation scanned the whole buffer map per eviction,
// so its cost grew linearly with the tensor count. ns/op staying flat
// as tensors=64 → 16384 is the win this bench documents.
func BenchmarkVMEviction(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("tensors=%d", n), func(b *testing.B) {
			const bytes = 64
			reg := tensor.NewRegistry()
			vm := NewVM(1, int64(n)*bytes/2, memory.Policy{DirtyTracking: true})
			ts := make([]*tensor.Tensor, n)
			for i := range ts {
				ts[i] = reg.Add(tensor.Activation, bytes, i, -1)
				vm.HostAlloc(ts[i])
			}
			// Fill the device: every Ensure below evicts exactly one
			// clean page (a drop under dirty tracking — no write-back
			// noise, victim selection dominates).
			for i := 0; i < n/2; i++ {
				if _, err := vm.Ensure(0, ts[i]); err != nil {
					b.Fatal(err)
				}
				if err := vm.Unpin(ts[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := ts[(n/2+i)%n]
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
