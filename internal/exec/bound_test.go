package exec

import (
	"fmt"
	"slices"
	"testing"

	"harmony/internal/sched"
	"harmony/internal/schedcheck"
)

// TestAdmittedAtBoundRuns is the "schedcheck-admitted ⇒ runs within the
// proven residency bound" invariant as a test: every plan of a small
// shape × mode × prefetch × optimizer matrix is built once with room to
// spare, rebuilt — verified — at exactly the largest PeakPinBytes the
// residency proof reports for it, and must then train to bit-identical
// losses and weights. It holds because runRun pins the declaration
// schedcheck sums (acquire/release), nothing more; the regression it
// guards is the final backward holding the logits on top of its declared
// footprint, which failed every SGD run of the two smallest shapes here.
// The bound is also where eviction is hardest, so the tight run is where
// known-zero pages earn their keep: every dirty-tracking plan must have
// filled its gradients without a copy, most of them again after an
// update's mark and an eviction, and no baseline plan ever.
func TestAdmittedAtBoundRuns(t *testing.T) {
	shapes := [][]int{{64, 10}, {16, 4, 100}, {256, 64, 10}, {128, 96, 64, 10}}
	plans := []struct {
		name    string
		mode    sched.Mode
		devices int
		chunks  int
	}{
		{"dp1", sched.HarmonyDP, 1, 0},
		{"dp2", sched.HarmonyDP, 2, 0},
		{"dp2-chunk4", sched.HarmonyDP, 2, 4},
		{"dp-baseline", sched.DPBaseline, 2, 0},
		{"pp2", sched.HarmonyPP, 2, 0},
		{"pp-baseline", sched.PPBaseline, 2, 0},
	}
	ran, refilled := 0, 0
	for _, widths := range shapes {
		for _, p := range plans {
			if p.mode.IsPipeline() && len(widths) == 2 {
				continue // one layer cannot be split into two stages
			}
			for _, depth := range []int{-1, 2} {
				for opt, adam := range []bool{false, true} {
					cfg := TrainerConfig{
						Widths:        widths,
						Mode:          p.mode,
						Devices:       p.devices,
						DeviceBytes:   1 << 30,
						BatchSize:     4,
						Microbatches:  2,
						Adam:          adam,
						LR:            0.05,
						Seed:          42,
						PrefetchDepth: depth,
						CommChunks:    p.chunks,
						NoVerify:      true,
					}
					ran++
					t.Run(fmt.Sprintf("%v/%s/depth%d/opt%d", widths, p.name, depth, opt), func(t *testing.T) {
						roomy, want := runTrainer(t, cfg, 3)
						defer roomy.Close()
						topo := schedcheck.Topology{Devices: cfg.Devices, DeviceBytes: cfg.DeviceBytes}
						cfg.DeviceBytes = slices.Max(schedcheck.Check(roomy.s, topo).PeakPinBytes)
						cfg.NoVerify = false
						tight, got := runTrainer(t, cfg, 3)
						defer tight.Close()
						if !slices.Equal(got, want) {
							t.Fatalf("losses at the %d-byte bound %v != %v with room to spare", cfg.DeviceBytes, got, want)
						}
						assertSameRun(t, roomy, tight, want, got)
						born := len(tight.layers) * tight.Replicas()
						switch fills := tight.Stats().ZeroFills; {
						case !tight.s.MemPolicy.DirtyTracking && fills != 0:
							t.Fatalf("the naive policy zero-filled %d pages", fills)
						case tight.s.MemPolicy.DirtyTracking && fills < born:
							t.Fatalf("%d zero-fills for %d gradients born zero", fills, born)
						case fills > born:
							refilled++
						}
					})
				}
			}
		}
	}
	if ran != 88 {
		t.Fatalf("matrix ran %d configs, want 88", ran)
	}
	if refilled < 40 { // 52 of the 60 dirty-tracking configs when written; the count moves with LRU timing
		t.Fatalf("only %d configs refilled a gradient from an update's mark: the matrix no longer exercises known-zero pages", refilled)
	}
}
