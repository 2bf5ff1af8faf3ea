package exec

import (
	"testing"

	"harmony/internal/sched"
	"harmony/internal/schedcheck"
)

// pressureRows are the plans that put the static prefetch window under
// swap pressure, one per regime: data-parallel swap on one and two
// devices, a pipeline whose stages set the pressure, and a model whose
// layers differ in size by 16× (EXPERIMENTS.md, "The adaptive prefetch
// controller's verdict").
var pressureRows = []struct {
	name    string
	mode    sched.Mode
	devices int
	widths  []int
	mem     int64
	batch   int
}{
	{"dp1", sched.HarmonyDP, 1, []int{64, 256, 256, 256, 256, 10}, 640 << 10, 32},
	{"dp2", sched.HarmonyDP, 2, []int{64, 256, 256, 256, 256, 10}, 640 << 10, 32},
	{"pp2", sched.HarmonyPP, 2, []int{64, 256, 256, 256, 256, 256, 256, 10}, 640 << 10, 32},
	{"window", sched.HarmonyDP, 1, []int{256, 2048, 128, 2048, 10}, 6 << 20, 8},
}

// TestPressureRowsBitExact holds the static prefetch window to what it
// is for. On each pressure row, with links modeled on a manual clock,
// schedcheck admits the plan, the default window trains bit for bit as
// the serial executor does, and it at least halves the demand swap-ins
// (swap-ins no prefetch issued) that the synchronous executor makes.
// The bound is a ratio with a margin, not a byte count: which prefetch
// lands before its demand depends on the DMA workers' timing. Prefetch
// only moves pages in, so the window writes back no more bytes than
// the synchronous executor does.
func TestPressureRowsBitExact(t *testing.T) {
	const warm, steps = 1, 2
	for _, row := range pressureRows {
		t.Run(row.name, func(t *testing.T) {
			base := TrainerConfig{
				Widths: row.widths, Mode: row.mode, Devices: row.devices,
				DeviceBytes: row.mem, BatchSize: row.batch, Microbatches: 4,
				LR: 0.005, Seed: 42, LinkBytesPerSec: 128 << 20,
			}
			// run trains one executor setting and returns its losses, and
			// its demand swap-ins and write-back bytes per step after the
			// warm-up step.
			run := func(serial bool, depth int) (*Trainer, []float32, float64, float64) {
				cfg := base
				cfg.Serial, cfg.PrefetchDepth = serial, depth
				tr, _ := onManualClock(t, cfg)
				losses := stepTrainer(t, tr, 0, warm)
				s0 := tr.Stats()
				losses = append(losses, stepTrainer(t, tr, warm, steps)...)
				s1 := tr.Stats()
				demand := (s1.SwapIns - s0.SwapIns) - (s1.PrefetchIssued - s0.PrefetchIssued)
				return tr, losses, float64(demand) / steps, float64(s1.SwapOutBytes-s0.SwapOutBytes) / steps
			}
			ref, lossRef, _, _ := run(true, 0)
			if err := schedcheck.Check(ref.s, ref.topology()).Err(); err != nil {
				t.Fatal(err)
			}
			_, _, syncDemand, syncOut := run(false, -1)
			window, lossWindow, windowDemand, windowOut := run(false, 0)
			assertSameRun(t, ref, window, lossRef, lossWindow)
			if syncDemand == 0 {
				t.Fatal("the synchronous executor made no demand swap-in: the row is not under pressure")
			}
			if windowDemand > syncDemand/2 {
				t.Errorf("default window: %.2f demand swap-ins a step, sync %.2f: want at most half", windowDemand, syncDemand)
			}
			if windowOut > syncOut {
				t.Errorf("default window: %.0f write-back bytes a step, sync %.0f: prefetch must add no write-back", windowOut, syncOut)
			}
			t.Logf("demand swap-ins a step: sync %.2f, default window %.2f; write-back bytes a step: sync %.0f, window %.0f",
				syncDemand, windowDemand, syncOut, windowOut)
		})
	}
}
