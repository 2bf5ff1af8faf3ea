package harmony

import "testing"

// BenchmarkSimulate measures the host cost of one Simulate, allocations
// included, on three cells of the sim-sweep grid without the harness:
//
//	go test -run XXX -bench BenchmarkSimulate -benchmem .
func BenchmarkSimulate(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  SimConfig
	}{
		{"bert48/harmony-tp/4gpu", SimConfig{
			Model: BERT48(), Mode: HarmonyTP, Server: CommodityServer(4), MicrobatchSize: 1, Microbatches: 8,
		}},
		{"bert48/dp-baseline/dense8/mb5", SimConfig{
			Model: BERT48(), Mode: DPBaseline, Server: DenseServer(8), MicrobatchSize: 1, Microbatches: 5,
		}},
		// The §3 closed-form workload: 16 uniform layers, m = 2, two GPUs
		// that hold one layer-level op at a time.
		{"closed-form/harmony-dp", SimConfig{
			Model: UniformModel(16, 1000, 4096, 1e9), Mode: HarmonyDP,
			Server:         CommodityServer(2).WithGPUMemory(22 << 10),
			MicrobatchSize: 1, Microbatches: 2,
			Toggles:     &Toggles{DeferBlockedUpdates: Bool(false)},
			WarmupIters: 2, MeasureIters: 2,
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
