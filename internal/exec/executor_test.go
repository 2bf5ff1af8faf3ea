package exec

import (
	"fmt"
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
// determinism guarantee: the parallel device-worker executor, at its
// default prefetch window and with prefetch off, and the serial
// reference produce the same losses and the same weights, bit for bit,
// under memory pressure, in data-parallel (collective rendezvous,
// monolithic and chunked) and pipeline (cross-device activation moves)
// modes, under SGD and Adam. The kernel pool is forced to 4 workers so
// chunked kernels are exercised even on single-core machines. Every row
// trains four microbatches per replica. On the rows with room for it,
// each Harmony plan runs a wave's microbatches of a layer as one run (a
// kernel call over their rows); on the tighter rows the Harmony DP
// plans' grouped bound does not fit, so their runs are narrowed to one
// task, while each pipeline stage still fits its own; the baselines'
// 1F1B queues form no run longer than one.
//
// On data-parallel rows the serial reference also moves exactly the
// bytes the parallel executor moves with prefetch off: both drain the
// same woven streams, and each device's pages are touched only by its
// own worker's tasks and by rendezvous every worker is parked at.
// Pipeline rows are left out of that: their cross-device activation
// moves are timed by the workers, so what is resident when a stage
// reads its input depends on how far the other stage has run.
func TestSerialAndParallelExecutorsBitIdentical(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.DPBaseline, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			// mem is each device's bytes: what the variant's pin bound
			// needs, still below the footprint; runs marks the rows whose
			// mem is above every variant's grouped bound.
			for _, v := range []struct {
				adam   bool
				chunks int
				mem    int64
				runs   bool
			}{
				{false, 0, 12 << 10, false},
				{true, 0, 20 << 10, false},
				{false, 2, 16 << 10, false},
				{true, 2, 20 << 10, false},
				{false, 0, 24 << 10, true},
				{true, 0, 24 << 10, true},
				{false, 2, 24 << 10, true},
				{true, 2, 24 << 10, true},
			} {
				if v.chunks > 0 && mode.IsPipeline() {
					continue // one replica: no collective to chunk
				}
				cfg := trainerConfig(mode, 2)
				cfg.CommChunks, cfg.DeviceBytes = v.chunks, v.mem
				if v.adam {
					cfg.Adam, cfg.LR = true, 0.005
				}
				name := fmt.Sprintf("adam=%v/chunks=%d", v.adam, v.chunks)
				if v.runs {
					name += "/runs"
				}
				t.Run(name, func(t *testing.T) {
					serialCfg := cfg
					serialCfg.Serial = true
					a, lossA := runTrainer(t, serialCfg, 4)
					if got, want := longestRun(a) > 1, mode != sched.DPBaseline && (v.runs || mode.IsPipeline()); got != want {
						t.Fatalf("longest run %d: runs of more than one task %v, want %v", longestRun(a), got, want)
					}
					for _, depth := range []int{0, -1} {
						parallelCfg := cfg
						parallelCfg.PrefetchDepth = depth
						b, lossB := runTrainer(t, parallelCfg, 4)
						assertSameRun(t, a, b, lossA, lossB)
						if depth < 0 && !mode.IsPipeline() {
							if sa, sb := a.Stats(), b.Stats(); sa != sb {
								t.Errorf("data movement:\n  serial   %+v\n  parallel %+v", sa, sb)
							}
						}
					}
				})
			}
		})
	}
}

// longestRun is the most tasks one run of tr's streams holds.
func longestRun(tr *Trainer) int {
	n := 0
	for _, st := range tr.streams.Dev {
		for _, e := range st {
			n = max(n, len(e.Run))
		}
	}
	return n
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
		err = tr.adopt(s, !tc.noVerify)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("NoVerify=%v: cyclic schedule adopted or refused without %q: %v", tc.noVerify, tc.want, err)
		}
		if tr.s != running {
			t.Fatalf("NoVerify=%v: a refused plan was installed", tc.noVerify)
		}
		assertSameRun(t, ref, tr, lossRef, stepTrainer(t, tr, 0, 2))
	}
}
