package exec

import (
	"testing"

	"harmony/internal/sched"
)

// BenchmarkPredict measures inference over the standard test MLP under
// memory pressure. The interesting column is allocs/op: Predict runs
// off the pooled kernel scratch (nn.GetScratch), so per-call
// allocations stay flat at a handful — one caller-owned logits copy
// plus the VM's swap bookkeeping — instead of two fresh y/stash
// buffers per layer per call.
func BenchmarkPredict(b *testing.B) {
	tr, err := NewTrainer(trainerConfig(sched.HarmonyDP, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float32, 64*16)
	for i := range x {
		x[i] = float32(i%7) * 0.125
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Predict(x, 64); err != nil {
			b.Fatal(err)
		}
	}
}
