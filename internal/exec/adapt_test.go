package exec

import (
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"harmony/internal/data"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
)

// ------------------------------------ controller properties (unit)

// TestAdaptControllerProperties drives the window controller with
// randomized signal traces and checks its invariants hold at every
// step: the window never leaves [wMin, wMax] (wMax is the bound
// schedcheck verified residency against), and the byte budget never
// leaves (0, bMax] (bMax is the engine cap the preflight assumed).
func TestAdaptControllerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		wMax := 1 + rng.Intn(8)
		bMax := int64(1 + rng.Intn(1<<16))
		c := newAdaptController(1+rng.Intn(wMax), 1, wMax, bMax)
		for step := 1; step <= 300; step++ {
			sig := adaptSignals{
				Covered:   rng.Intn(8),
				Uncovered: rng.Intn(4),
				WantPeak:  int64(rng.Intn(1 << 17)),
			}
			for _, dec := range c.adaptStep(step, 0, sig) {
				if dec.Step != step || dec.Dev != 0 {
					t.Fatalf("trial %d: decision %s mis-keyed", trial, dec)
				}
				if dec.What != "window" && dec.What != "budget" {
					t.Fatalf("trial %d: unknown knob %q", trial, dec.What)
				}
			}
			if c.window < 1 || c.window > wMax {
				t.Fatalf("trial %d step %d: window %d outside [1, %d]", trial, step, c.window, wMax)
			}
			if c.budget <= 0 || c.budget > bMax {
				t.Fatalf("trial %d step %d: budget %d outside (0, %d]", trial, step, c.budget, bMax)
			}
		}
	}
}

// TestAdaptControllerConverges: on a steady trace (constant signals)
// the controller must settle, not oscillate — each knob's trajectory
// changes direction at most once over a long run.
func TestAdaptControllerConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		wMax := 1 + rng.Intn(8)
		bMax := int64(1 + rng.Intn(1<<16))
		c := newAdaptController(1+rng.Intn(wMax), 1, wMax, bMax)
		sig := adaptSignals{
			Covered:   rng.Intn(8),
			Uncovered: rng.Intn(4),
			WantPeak:  int64(rng.Intn(1 << 17)),
		}
		flips, lastDir := 0, 0
		prevW, prevB := c.window, c.budget
		var changes int
		for step := 1; step <= 200; step++ {
			changes += len(c.adaptStep(step, 0, sig))
			dir := 0
			switch {
			case c.window > prevW || c.budget > prevB:
				dir = 1
			case c.window < prevW || c.budget < prevB:
				dir = -1
			}
			if dir != 0 && lastDir != 0 && dir != lastDir {
				flips++
			}
			if dir != 0 {
				lastDir = dir
			}
			prevW, prevB = c.window, c.budget
		}
		if flips > 1 {
			t.Fatalf("trial %d: %d direction flips on a steady trace (sig %+v)", trial, flips, sig)
		}
		// And it must actually settle: a second long run of the same
		// signal takes no further decisions.
		tail := 0
		for step := 201; step <= 260; step++ {
			tail += len(c.adaptStep(step, 0, sig))
		}
		if tail != 0 {
			t.Fatalf("trial %d: %d decisions after convergence (sig %+v)", trial, tail, sig)
		}
	}
}

// TestAdaptControllerShrinksUnderPressure: demand persistently over
// the maximum budget that drowns the prefetcher (majority of entries
// uncovered) must first max out the budget, then walk the window down
// to its floor — the capacity-pressure escape hatch.
func TestAdaptControllerShrinksUnderPressure(t *testing.T) {
	const wMax = 8
	bMax := int64(4 << 10)
	c := newAdaptController(wMax, 1, wMax, bMax)
	sig := adaptSignals{Covered: 1, Uncovered: 4, WantPeak: bMax * 2}
	for step := 1; step <= 100; step++ {
		c.adaptStep(step, 0, sig)
	}
	if c.budget != bMax {
		t.Fatalf("budget %d, want maxed at %d before windows shrink", c.budget, bMax)
	}
	if c.window != 1 {
		t.Fatalf("window %d, want shrunk to 1 under persistent over-budget demand", c.window)
	}
	// The ratchet must hold: even if demand later fits, the window
	// never regrows past a width that was proven too wide.
	calm := adaptSignals{Covered: 4, Uncovered: 1, WantPeak: 1}
	for step := 101; step <= 200; step++ {
		c.adaptStep(step, 0, calm)
		if c.window > 1 {
			t.Fatalf("window regrew to %d past the shrink ratchet", c.window)
		}
	}
}

// TestAdaptControllerIgnoresCoveredPressure pins the dp1-hostlink
// regression fix: over-budget window demand whose entries were all
// covered anyway is not pressure — the prefetcher is keeping up — so
// the controller must neither widen the budget nor shrink the window.
// (Before the coverage gate it shrank 4→3 on exactly this signal and
// cost 8% of step time on the single-device host-link bench.)
func TestAdaptControllerIgnoresCoveredPressure(t *testing.T) {
	bMax := int64(4 << 10)
	c := newAdaptController(4, 1, 8, bMax)
	covered := adaptSignals{Covered: 6, Uncovered: 0, WantPeak: bMax * 2}
	for step := 1; step <= 50; step++ {
		if dec := c.adaptStep(step, 0, covered); len(dec) != 0 {
			t.Fatalf("step %d: covered over-budget demand moved a knob: %v", step, dec)
		}
	}
	if c.window != 4 {
		t.Fatalf("window moved to %d on fully covered demand", c.window)
	}
	// A thin miss tail under an over-cap peak is not pressure either:
	// the budget starts (and here sits) at the cap, so the only move
	// left is a window shrink, and a minority of misses does not earn
	// one (the dp1-hostlink bench shrank 4→3 on exactly this tail and
	// lost 7 points of DMA overlap).
	missing := adaptSignals{Covered: 4, Uncovered: 1, WantPeak: bMax * 2}
	for step := 51; step <= 80; step++ {
		if dec := c.adaptStep(step, 0, missing); len(dec) != 0 {
			t.Fatalf("step %d: minority miss tail at the budget cap moved a knob: %v", step, dec)
		}
	}
	if c.window != 4 {
		t.Fatalf("window shrank to %d on a minority miss tail at the budget cap", c.window)
	}
	// Majority misses at the cap are genuine drowning and must shrink.
	drowning := adaptSignals{Covered: 1, Uncovered: 4, WantPeak: bMax * 2}
	for step := 81; step <= 90; step++ {
		c.adaptStep(step, 0, drowning)
	}
	if c.window >= 4 {
		t.Fatalf("window %d, want shrunk under majority-miss pressure at the cap", c.window)
	}
}

// ------------------------------- adaptive bit-exactness matrix (e2e)

// TestAdaptiveBitExactMatrix extends the prefetch matrix with the
// adaptive axis: for each mode, the serial reference, the static
// parallel plan and the adaptive parallel plan (several starting
// windows) all produce bit-identical losses and weights. Adaptation
// moves only data movement — never math.
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
				cfg := trainerConfig(mode, 2)
				cfg.AdaptivePrefetch = true
				cfg.PrefetchDepth = depth
				b, lossB := runTrainer(t, cfg, steps)
				assertSameRun(t, a, b, lossA, lossB)
				if b.AdaptStats() == nil {
					t.Fatalf("depth %d: adaptive plan has no controller state", depth)
				}
				if st := b.Stats(); st.PrefetchIssued == 0 {
					t.Fatalf("depth %d: prefetch never fired under memory pressure", depth)
				}
				b.Close()
			}
			// Serial never prefetches, so adaptive+serial must be the
			// static serial reference with an empty decision log.
			sref := trainerConfig(mode, 2)
			sref.Serial = true
			sref.AdaptivePrefetch = true
			c, lossC := runTrainer(t, sref, steps)
			assertSameRun(t, a, c, lossA, lossC)
			if log := c.AdaptLog(); len(log) != 0 {
				t.Fatalf("serial executor took %d adaptation decisions", len(log))
			}
		})
	}
}

// TestAdaptiveDecisionLogDeterminism is the replayability guarantee:
// two identical seeded adaptive runs emit identical window-resize
// decision logs, entry for entry.
func TestAdaptiveDecisionLogDeterminism(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 5
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := trainerConfig(mode, 2)
			cfg.AdaptivePrefetch = true
			a, lossA := runTrainer(t, cfg, steps)
			b, lossB := runTrainer(t, cfg, steps)
			assertSameRun(t, a, b, lossA, lossB)
			la, lb := a.AdaptLog(), b.AdaptLog()
			if !reflect.DeepEqual(la, lb) {
				t.Fatalf("decision logs diverge:\n%v\nvs\n%v", la, lb)
			}
			if !reflect.DeepEqual(a.AdaptStats(), b.AdaptStats()) {
				t.Fatalf("window stats diverge:\n%v\nvs\n%v", a.AdaptStats(), b.AdaptStats())
			}
			a.Close()
			b.Close()
		})
	}
}

// TestAdaptiveBitExactUnderDelayFaults shifts every DMA and kernel in
// time with injected delays: in-flight sets change, the adaptation
// signals must not (they are program-order counters), so weights match
// the serial reference and the decision log matches a delay-free run.
func TestAdaptiveBitExactUnderDelayFaults(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 3
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			a, lossA := runTrainer(t, ref, steps)
			clean := trainerConfig(mode, 2)
			clean.AdaptivePrefetch = true
			clean.PrefetchDepth = 3
			b, lossB := runTrainer(t, clean, steps)
			assertSameRun(t, a, b, lossA, lossB)
			cfg := faultyConfig(t, mode, "op=any,mode=delay,delay=300us,count=60", false)
			cfg.AdaptivePrefetch = true
			cfg.PrefetchDepth = 3
			c, lossC := runTrainer(t, cfg, steps)
			assertSameRun(t, a, c, lossA, lossC)
			if !reflect.DeepEqual(b.AdaptLog(), c.AdaptLog()) {
				t.Fatalf("delay faults changed the decision log:\n%v\nvs\n%v", b.AdaptLog(), c.AdaptLog())
			}
			b.Close()
			c.Close()
		})
	}
}

// TestAdaptiveBitExactUnderRecovery runs the fatal-fault rollback
// scenario with adaptation armed: recovery rebinds the dead device's
// queues to survivors, the controllers keep running on the surviving
// shard aliases, and the result still matches the fault-free serial
// reference bit for bit.
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
			cfg := faultyConfig(t, mode, "op=kernel,mode=fatal,dev=1,step=3", true)
			cfg.DeviceBytes = 32 << 10
			cfg.AdaptivePrefetch = true
			cfg.PrefetchDepth = 4
			b, lossB := runTrainer(t, cfg, steps)
			assertSameRun(t, a, b, lossA, lossB)
			if got := b.Recoveries(); got != 1 {
				t.Fatalf("recoveries = %d, want 1", got)
			}
			b.Close()
		})
	}
}

// --------------------------------------------------- retune (e2e)

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
				cfg := trainerConfig(mode, 2)
				tr, err := NewTrainer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
				var losses []float32
				mbs, mbc := cfg.MicrobatchSize, cfg.Microbatches
				for s := 0; s < steps; s++ {
					if s == 2 {
						// 8×4 → 4×8: same batch, finer split (a coarser
						// one would exceed the 12 KiB devices — the
						// preflight rejects it with a counterexample).
						if err := tr.Retune(RetuneRequest{MicrobatchSize: 4, Microbatches: 8}); err != nil {
							t.Fatalf("heavy retune rejected: %v", err)
						}
						mbs, mbc = 4, 8
					}
					in, lb := blobs.ReplicaBatches(tr.Replicas(), mbc, mbs, uint64(s))
					loss, err := tr.Step(in, lb)
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, loss)
				}
				return tr, losses
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
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	blobs := data.NewBlobs(cfg.Widths[0], cfg.Widths[len(cfg.Widths)-1], 0.5, 7)
	var losses []float32
	for s := 0; s < steps; s++ {
		if s == 1 {
			// One microbatch of the whole batch quadruples every
			// activation: the verifier refuses the reshape with its
			// counterexample before anything is swapped.
			err := tr.Retune(RetuneRequest{MicrobatchSize: 32, Microbatches: 1})
			if err == nil || !strings.Contains(err.Error(), "plan unchanged") ||
				!regexp.MustCompile(`peak pinned bytes \d+ exceed capacity`).MatchString(err.Error()) {
				t.Fatalf("over-capacity reshape not rejected with a counterexample: %v", err)
			}
			// The trainer's own batch-product rule also rejects with
			// the plan untouched.
			if err := tr.Retune(RetuneRequest{MicrobatchSize: 3, Microbatches: 3}); err == nil ||
				!strings.Contains(err.Error(), "preserve the per-replica batch") {
				t.Fatalf("batch-product violation not rejected: %v", err)
			}
		}
		in, lb := blobs.ReplicaBatches(tr.Replicas(), cfg.Microbatches, cfg.MicrobatchSize, uint64(s))
		loss, err := tr.Step(in, lb)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	assertSameRun(t, a, tr, lossA, losses)
}
