package exec

import (
	"runtime"
	"testing"

	"harmony/internal/nn"
	"harmony/internal/sched"
)

// The tests below hold the deprecated TrainerConfig.AdaptivePrefetch
// flag to its contract: it is accepted and changes nothing. A config
// that sets it trains to the serial reference bit for bit, matches the
// static run at the same PrefetchDepth, and reports no window stats —
// the static window is the only prefetch policy (DESIGN.md §13).

// adaptiveConfig is cfg with the deprecated flag set.
func adaptiveConfig(cfg TrainerConfig) TrainerConfig {
	cfg.AdaptivePrefetch = true
	return cfg
}

// assertNoAdaptStats fails when the deprecated AdaptStats reports
// anything: no controller resizes a window.
func assertNoAdaptStats(t *testing.T, tr *Trainer) {
	t.Helper()
	if st := tr.AdaptStats(); st != nil {
		t.Fatalf("AdaptStats = %v, want nil", st)
	}
}

// TestAdaptiveBitExactMatrix: for each mode, a config setting the
// deprecated flag at several starting depths trains bit-identically to
// the serial reference and to the static run at that depth, and still
// prefetches under memory pressure. Serial with the flag set is the
// serial reference.
func TestAdaptiveBitExactMatrix(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			a, lossA := runTrainer(t, ref, steps)
			for _, depth := range []int{0, 2, 4} {
				static := trainerConfig(mode, 2)
				static.PrefetchDepth = depth
				s, lossS := runTrainer(t, static, steps)
				b, lossB := runTrainer(t, adaptiveConfig(static), steps)
				assertSameRun(t, a, b, lossA, lossB)
				assertSameRun(t, s, b, lossS, lossB)
				assertNoAdaptStats(t, b)
				if st := b.Stats(); st.PrefetchIssued == 0 {
					t.Fatalf("depth %d: prefetch never fired under memory pressure", depth)
				}
				s.Close()
				b.Close()
			}
			c, lossC := runTrainer(t, adaptiveConfig(ref), steps)
			assertSameRun(t, a, c, lossA, lossC)
			assertNoAdaptStats(t, c)
		})
	}
}

// TestAdaptiveBitExactUnderDelayFaults shifts every DMA and kernel in
// time with injected delays: a config setting the deprecated flag
// matches the serial reference with and without the delays.
func TestAdaptiveBitExactUnderDelayFaults(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 3
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			a, lossA := runTrainer(t, ref, steps)
			clean := adaptiveConfig(trainerConfig(mode, 2))
			clean.PrefetchDepth = 3
			b, lossB := runTrainer(t, clean, steps)
			assertSameRun(t, a, b, lossA, lossB)
			cfg := adaptiveConfig(faultyConfig(mode, "op=any,mode=delay,delay=300us,count=60", false))
			cfg.PrefetchDepth = 3
			c, lossC := runTrainer(t, cfg, steps)
			assertSameRun(t, a, c, lossA, lossC)
			assertNoAdaptStats(t, b)
			assertNoAdaptStats(t, c)
			b.Close()
			c.Close()
		})
	}
}

// TestAdaptiveBitExactUnderRecovery runs the fatal-fault rollback
// scenario with the deprecated flag set: recovery rebinds the dead
// device's queues to survivors and the result still matches the
// fault-free serial reference bit for bit.
func TestAdaptiveBitExactUnderRecovery(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			ref.DeviceBytes = 32 << 10
			a, lossA := runTrainer(t, ref, steps)
			cfg := adaptiveConfig(faultyConfig(mode, "op=kernel,mode=fatal,dev=1,step=3", true))
			cfg.DeviceBytes = 32 << 10
			cfg.PrefetchDepth = 4
			b, lossB := runTrainer(t, cfg, steps)
			assertSameRun(t, a, b, lossA, lossB)
			if got := b.Recoveries(); got != 1 {
				t.Fatalf("recoveries = %d, want 1", got)
			}
			assertNoAdaptStats(t, b)
			b.Close()
		})
	}
}
