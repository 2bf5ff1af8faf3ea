package exec

import (
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
)

// TestRetuneMicrobatchReshapeDeterministic: a heavy retune (graph and
// VM rebuilt, state round-tripped through the checkpoint) must be
// deterministic — two identical runs retuning at the same step produce
// bit-identical weights — and must preserve the per-replica batch
// contract.
func TestRetuneMicrobatchReshapeDeterministic(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func() (*Trainer, []float32) {
				tr, losses := runTrainer(t, trainerConfig(mode, 2), 2)
				// 8×4 → 4×8: same batch, finer split (a coarser one would
				// exceed the 12 KiB devices — the preflight rejects it
				// with a counterexample).
				if err := tr.Retune(8); err != nil {
					t.Fatalf("heavy retune rejected: %v", err)
				}
				return tr, append(losses, stepTrainer(t, tr, 2, steps-2)...)
			}
			a, lossA := run()
			b, lossB := run()
			assertSameRun(t, a, b, lossA, lossB)
			a.Close()
			b.Close()
		})
	}
}

// TestRetuneRejectionKeepsPlan: an infeasible retune must return the
// verifier's counterexample and leave the running plan untouched — the
// remaining steps match an undisturbed run bit for bit.
func TestRetuneRejectionKeepsPlan(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 3
	mode := sched.HarmonyPP
	ref := trainerConfig(mode, 2)
	ref.Serial = true
	a, lossA := runTrainer(t, ref, steps)

	// A device one byte above what the running plan ever pins at once:
	// the plan is admitted, any coarser split is not.
	cfg := trainerConfig(mode, 2)
	cfg.DeviceBytes = slices.Max(schedcheck.Check(a.s, a.topology()).PeakPinBytes) + 1
	tr, losses := runTrainer(t, cfg, 1)
	defer tr.Close()
	// One microbatch of the whole batch quadruples every activation: the
	// verifier refuses the reshape with its counterexample before
	// anything is swapped.
	err := tr.Retune(1)
	if err == nil || !strings.Contains(err.Error(), "plan unchanged") ||
		!regexp.MustCompile(`peak pinned bytes \d+ exceed capacity`).MatchString(err.Error()) {
		t.Fatalf("over-capacity reshape not rejected with a counterexample: %v", err)
	}
	// The trainer's own divisibility rule also rejects with the plan
	// untouched.
	if err := tr.Retune(3); err == nil || !strings.Contains(err.Error(), "cannot split BatchSize 32 into 3 microbatches") {
		t.Fatalf("indivisible batch not rejected: %v", err)
	}
	losses = append(losses, stepTrainer(t, tr, 1, steps-1)...)
	assertSameRun(t, a, tr, lossA, losses)
}
