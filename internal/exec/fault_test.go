package exec

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"harmony/internal/data"
	"harmony/internal/fault"
	"harmony/internal/nn"
	"harmony/internal/sched"
)

func faultyConfig(t *testing.T, mode sched.Mode, spec string, recover bool) TrainerConfig {
	t.Helper()
	cfg := trainerConfig(mode, 2)
	if spec != "" {
		inj, err := fault.Parse(spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Injector = inj
	}
	cfg.Recover = recover
	return cfg
}

// assertSameRun checks two trainers produced bit-identical losses and
// weights — the currency of every fault-tolerance guarantee below.
func assertSameRun(t *testing.T, a, b *Trainer, lossA, lossB []float32) {
	t.Helper()
	if len(lossA) != len(lossB) {
		t.Fatalf("%d losses vs %d", len(lossA), len(lossB))
	}
	for s := range lossA {
		if math.Float32bits(lossA[s]) != math.Float32bits(lossB[s]) {
			t.Fatalf("step %d loss: %v vs %v", s, lossA[s], lossB[s])
		}
	}
	for r := 0; r < a.Replicas(); r++ {
		for l := range a.layers {
			wa, err := a.vm.Host(a.g.W[r][l])
			if err != nil {
				t.Fatal(err)
			}
			wb, err := b.vm.Host(b.g.W[r][l])
			if err != nil {
				t.Fatal(err)
			}
			for i := range wa {
				if math.Float32bits(wa[i]) != math.Float32bits(wb[i]) {
					t.Fatalf("replica %d layer %d weight %d: %v vs %v", r, l, i, wa[i], wb[i])
				}
			}
		}
	}
}

// TestDelayFaultsPreserveBitExactness injects timing-only faults into
// the parallel executor and compares against the fault-free serial
// reference: delays perturb interleavings but must never change the
// math (the executor's determinism does not lean on timing).
func TestDelayFaultsPreserveBitExactness(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			a, lossA := runTrainer(t, ref, 3)
			spec := "op=any,mode=delay,delay=300us,count=40"
			b, lossB := runTrainer(t, faultyConfig(t, mode, spec, false), 3)
			assertSameRun(t, a, b, lossA, lossB)
			if injected, _ := b.cfg.Injector.Stats(); injected == 0 {
				t.Fatal("delay rule never fired")
			}
		})
	}
}

// TestTransientFaultsRetryToCompletion arms count-limited transient
// swap and p2p faults: the retry layer must absorb them (backoff, same
// operation re-issued) and the run must stay bit-identical to a
// fault-free one.
func TestTransientFaultsRetryToCompletion(t *testing.T) {
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			a, lossA := runTrainer(t, trainerConfig(mode, 2), 3)
			spec := "op=swap-in,mode=transient,count=3;op=p2p,mode=transient,count=2"
			cfg := faultyConfig(t, mode, spec, false)
			b, lossB := runTrainer(t, cfg, 3)
			assertSameRun(t, a, b, lossA, lossB)
			st := b.Stats()
			if st.FaultsInjected == 0 || st.Retries == 0 {
				t.Fatalf("no faults absorbed: %+v", st)
			}
			if st.Retries < st.FaultsInjected {
				t.Fatalf("faults (%d) outnumber retries (%d) on a fully-recovered run",
					st.FaultsInjected, st.Retries)
			}
		})
	}
}

// TestTransientFaultExhaustionSurfacesError: an unlimited transient
// rule outlives any retry budget, so Step must fail with a transient
// error instead of hanging or panicking.
func TestTransientFaultExhaustionSurfacesError(t *testing.T) {
	spec := "op=swap-in,mode=transient,count=0"
	cfg := faultyConfig(t, sched.HarmonyPP, spec, false)
	cfg.MaxRetries = 2
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
	in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, 0)
	_, err = tr.Step(in, lb)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !fault.IsTransient(err) {
		t.Fatalf("want transient fault error, got: %v", err)
	}
}

// TestFatalFaultWithoutRecoverFailsFast: with recovery disabled a
// fatal device fault must surface from Step as a fatal error naming
// the device.
func TestFatalFaultWithoutRecoverFailsFast(t *testing.T) {
	spec := "op=kernel,mode=fatal,dev=1,step=2"
	cfg := faultyConfig(t, sched.HarmonyDP, spec, false)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
	for s := 0; s < 3; s++ {
		in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, uint64(s))
		_, err = tr.Step(in, lb)
		if s < 1 && err != nil {
			t.Fatalf("step %d failed before the armed step: %v", s, err)
		}
		if s == 1 {
			if err == nil {
				t.Fatal("fatal fault absorbed without recovery enabled")
			}
			dev, ok := fault.AsFatal(err)
			if !ok || dev != 1 {
				t.Fatalf("want fatal on dev 1, got: %v", err)
			}
			return
		}
	}
}

// TestEndToEndRecovery is the acceptance scenario: a fatal device
// fault mid-step kills a device, the trainer rolls back to its last
// in-memory checkpoint, re-binds the dead device's work to the
// survivor, recomputes pin budgets, finishes training — and the final
// weights and losses are bit-identical to a fault-free run of the same
// seed. Repeating the faulty run must reproduce it exactly.
func TestEndToEndRecovery(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			// Recovery doubles up both virtual devices' pin sets on the
			// survivor, so give the run headroom over the test default.
			ref.DeviceBytes = 32 << 10
			a, lossA := runTrainer(t, ref, steps)

			run := func() (*Trainer, []float32) {
				spec := "op=kernel,mode=fatal,dev=1,step=3"
				cfg := faultyConfig(t, mode, spec, true)
				cfg.DeviceBytes = 32 << 10
				return runTrainer(t, cfg, steps)
			}
			b, lossB := run()
			assertSameRun(t, a, b, lossA, lossB)
			if got := b.Recoveries(); got != 1 {
				t.Fatalf("recoveries = %d, want 1", got)
			}
			alive := b.Alive()
			if alive[1] || !alive[0] {
				t.Fatalf("alive = %v, want device 1 dead", alive)
			}
			if injected, _ := b.cfg.Injector.Stats(); injected != 1 {
				t.Fatalf("injected = %d, want exactly the armed fatal", injected)
			}

			// Determinism across repeated faulty runs: same losses, same
			// weights, every time.
			for rep := 0; rep < 9; rep++ {
				c, lossC := run()
				assertSameRun(t, b, c, lossB, lossC)
			}
		})
	}
}

// TestRecoveryRefusesInfeasiblePinBudget: when the survivors cannot
// hold the re-bound work within DeviceBytes, recovery must fail with a
// diagnosable error instead of deadlocking the VM on an impossible
// reservation.
func TestRecoveryRefusesInfeasiblePinBudget(t *testing.T) {
	spec := "op=kernel,mode=fatal,dev=1,step=1"
	cfg := faultyConfig(t, sched.HarmonyDP, spec, true)
	// Default 12 KiB holds one virtual device's pins but not two.
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
	in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, 0)
	_, err = tr.Step(in, lb)
	if err == nil {
		t.Fatal("infeasible recovery reported success")
	}
	if !strings.Contains(err.Error(), "recover") {
		t.Fatalf("error does not mention recovery: %v", err)
	}
}
