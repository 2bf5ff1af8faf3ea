package exec

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"harmony/internal/data"
	"harmony/internal/nn"
	"harmony/internal/sched"
)

// ---------------------------------------------------- executor parity

// runTrainer steps the MLP trainer of cfg over deterministic data and
// returns the per-step losses.
func runTrainer(t *testing.T, cfg TrainerConfig, steps int) (*Trainer, []float32) {
	t.Helper()
	tr, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, stepTrainer(t, tr, 0, steps)
}

// stepTrainer runs steps first..first+n-1 of runTrainer's data stream.
func stepTrainer(t *testing.T, tr *Trainer, first, n int) []float32 {
	t.Helper()
	blobs := data.NewBlobs(tr.inDim, tr.classes, 0.5, 7)
	var losses []float32
	for s := first; s < first+n; s++ {
		x, y := blobs.Batch(tr.SamplesPerStep(), uint64(s))
		loss, err := tr.Step(x, y)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	return losses
}

// TestSerialAndParallelExecutorsBitIdentical is the headline
// determinism guarantee: the parallel device-worker executor and the
// serial reference produce the same losses and the same weights, bit
// for bit, under memory pressure, in both data-parallel (collective
// rendezvous) and pipeline (cross-device activation moves) modes. The
// kernel pool is forced to 4 workers so chunked kernels are exercised
// even on single-core machines.
func TestSerialAndParallelExecutorsBitIdentical(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			serialCfg := trainerConfig(mode, 2)
			serialCfg.Serial = true
			parallelCfg := trainerConfig(mode, 2)
			a, lossA := runTrainer(t, serialCfg, 4)
			b, lossB := runTrainer(t, parallelCfg, 4)
			for s := range lossA {
				if lossA[s] != lossB[s] {
					t.Fatalf("step %d loss: serial %v vs parallel %v", s, lossA[s], lossB[s])
				}
			}
			for r := 0; r < a.Replicas(); r++ {
				for l := range a.layers {
					wa := readBack(t, a.vm, a.g.W[r][l])
					wb := readBack(t, b.vm, b.g.W[r][l])
					for i := range wa {
						if wa[i] != wb[i] {
							t.Fatalf("replica %d layer %d weight %d: serial %v vs parallel %v",
								r, l, i, wa[i], wb[i])
						}
					}
				}
			}
		})
	}
}

// TestConvNetBitIdenticalAcrossExecutors holds the conv path —
// Conv2D and MaxPool2D backward, and a Dense that masks by a pool's
// output — to the same guarantee on a LeNet-shaped stack under swap
// pressure: the serial reference, the parallel executor and the
// parallel executor with prefetch depth 2 train to the same losses and
// the same weights, bit for bit, in data-parallel and pipeline mode.
// Its name puts it in CI's bit-identity rows.
func TestConvNetBitIdenticalAcrossExecutors(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	blobs := data.NewBlobs(16*16, 4, 1.0, 5)
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			var ref *Trainer
			var refLoss []float32
			for _, v := range convNetVariants {
				cfg := convNetConfig(mode)
				cfg.Serial, cfg.PrefetchDepth = v.serial, v.prefetch
				tr, err := NewTrainer(cfg, lenetKernels())
				if err != nil {
					t.Fatal(err)
				}
				var losses []float32
				for s := 0; s < 4; s++ {
					x, y := blobs.Batch(tr.SamplesPerStep(), uint64(s))
					loss, err := tr.Step(x, y)
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, loss)
				}
				if tr.Stats().SwapIns == 0 {
					t.Fatalf("%s: no swap-ins; the devices are too roomy to test anything", v.name)
				}
				if ref == nil {
					ref, refLoss = tr, losses
					continue
				}
				for s := range losses {
					if losses[s] != refLoss[s] {
						t.Fatalf("%s step %d loss %v, serial %v", v.name, s, losses[s], refLoss[s])
					}
				}
				for r := 0; r < ref.Replicas(); r++ {
					for l := range ref.layers {
						wa := readBack(t, ref.vm, ref.g.W[r][l])
						wb := readBack(t, tr.vm, tr.g.W[r][l])
						for i := range wa {
							if math.Float32bits(wa[i]) != math.Float32bits(wb[i]) {
								t.Fatalf("%s replica %d layer %d weight %d: %v, serial %v", v.name, r, l, i, wb[i], wa[i])
							}
						}
					}
				}
				tr.Close()
			}
			ref.Close()
		})
	}
}

// convNetConfig is TestConvNetBitIdenticalAcrossExecutors's plan for
// lenetKernels, under swap pressure.
func convNetConfig(mode sched.Mode) TrainerConfig {
	return TrainerConfig{
		Mode: mode, Devices: 2,
		DeviceBytes: 96 << 10, // below the footprint of four microbatches
		BatchSize:   16, Microbatches: 4,
		LR: 0.05, Seed: 3,
	}
}

// convNetVariants are the executors the conv net is held across.
var convNetVariants = []struct {
	name     string
	serial   bool
	prefetch int
}{{"serial", true, 0}, {"parallel", false, -1}, {"prefetch2", false, 2}}

// TestParallelLossesWithinTolerance pins the weaker public contract —
// losses agree within 1e-5 — separately from the bit-exact check, so
// a future relaxation of bit-exactness still has a guardrail.
func TestParallelLossesWithinTolerance(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	serialCfg := trainerConfig(sched.HarmonyDP, 2)
	serialCfg.Serial = true
	_, lossA := runTrainer(t, serialCfg, 3)
	_, lossB := runTrainer(t, trainerConfig(sched.HarmonyDP, 2), 3)
	for s := range lossA {
		d := float64(lossA[s] - lossB[s])
		if d < 0 {
			d = -d
		}
		if d > 1e-5 {
			t.Fatalf("step %d losses differ by %v: %v vs %v", s, d, lossA[s], lossB[s])
		}
	}
}

// ------------------------------------------------- deadlock reporting

// TestCyclicScheduleReportsDeadlock corrupts a built schedule with a
// dependency cycle and feeds it through the one adoption path: with
// verification on the preflight names the cycle, with it off the
// liveness proof reports the deadlock — either way before any device
// worker could drain the streams and hang — and the refused plan leaves
// the running one training exactly as an undisturbed trainer does.
func TestCyclicScheduleReportsDeadlock(t *testing.T) {
	for _, tc := range []struct {
		noVerify bool
		want     string
	}{
		{false, "dependency cycle"},
		{true, "deadlock"},
	} {
		cfg := trainerConfig(sched.HarmonyDP, 2)
		cfg.NoVerify = tc.noVerify
		ref, lossRef := runTrainer(t, cfg, 2)
		tr, err := NewTrainer(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tr.plan(tr.s.Opts, tr.cfg.Microbatches)
		if err != nil {
			t.Fatal(err)
		}
		// Make the first task of queue 0 depend on the last one: the last
		// transitively depends on the first, so nothing can ever start.
		q := s.Queues[0]
		first, last := q[0], q[len(q)-1]
		first.Deps = append(first.Deps, last)
		last.Succs = append(last.Succs, first)

		running := tr.s
		err = tr.adopt(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("NoVerify=%v: cyclic schedule adopted or refused without %q: %v", tc.noVerify, tc.want, err)
		}
		if tr.s != running {
			t.Fatalf("NoVerify=%v: a refused plan was installed", tc.noVerify)
		}
		assertSameRun(t, ref, tr, lossRef, stepTrainer(t, tr, 0, 2))
	}
}
