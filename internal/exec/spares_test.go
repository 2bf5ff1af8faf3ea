package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"harmony/internal/data"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// Device slices are recycled per shard (VM.take, VM.give). The tests
// below hold what that must not change — the math and the device's
// bound on memory — and what it is for: a warm step makes no pages.

// poison fills every shard of tr's VM with NaN spares of each page
// length tr's plan uses, round after round while they fit the device,
// so a page that is read before all of it is written reads NaN. Call it
// before the first step.
func poison(tr *Trainer) {
	var lens []int
	for _, x := range tr.g.Reg.All() {
		if n := int(x.Bytes / 4); n > 0 && !slices.Contains(lens, n) {
			lens = append(lens, n)
		}
	}
	slices.Sort(lens)
	for _, sh := range tr.vm.shards {
		sh.mu.Lock()
		for added := true; added; {
			added = false
			for _, n := range lens {
				if sh.held+int64(n)*4 > tr.vm.capacity {
					continue
				}
				s := make([]float32, n)
				for i := range s {
					s[i] = float32(math.NaN())
				}
				sh.held += int64(n) * 4
				tr.vm.give(sh, s)
				added = true
			}
		}
		sh.mu.Unlock()
	}
}

// TestPoisonedSparesStayBitExact: a page handed a spare finds whatever
// the spare's last page left there, so fill, the p2p copy and Alloc's
// clear must each write all of it. Every run below starts on devices
// filled with NaN spares of every page length its plan uses, and must
// train to the losses and weights of a serial run on a fresh VM, bit for
// bit: the prefetch matrix's plans, the small plan of
// TestAdaptiveBitExactMatrix with the deprecated AdaptivePrefetch flag
// set, the conv net of TestConvNetBitIdenticalAcrossExecutors, and
// a pipeline whose activations move p2p. (Checked by mutation: without
// fill's memset of a known-zero page, every plan here fails.)
func TestPoisonedSparesStayBitExact(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	type plan struct {
		name     string
		base     TrainerConfig
		kernels  []nn.Kernel
		steps    int
		variants []TrainerConfig
	}
	var plans []plan
	for _, p := range prefetchPlans {
		for _, devices := range p.devices {
			for opt, adam := range []bool{false, true} {
				base := prefetchBase(p.mode, devices, adam)
				pl := plan{name: fmt.Sprintf("prefetch/%s/%ddev/opt%d", p.mode, devices, opt), base: base, steps: 6}
				for _, v := range prefetchVariants {
					pl.variants = append(pl.variants, v.apply(base))
				}
				plans = append(plans, pl)
			}
		}
	}
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		base := trainerConfig(mode, 2)
		pl := plan{name: fmt.Sprintf("adaptive/%s", mode), base: base, steps: 4}
		for _, depth := range []int{0, 2, 4} {
			cfg := adaptiveConfig(base)
			cfg.PrefetchDepth = depth
			pl.variants = append(pl.variants, cfg)
		}
		plans = append(plans, pl)

		conv := plan{name: fmt.Sprintf("convnet/%s", mode), base: convNetConfig(mode), kernels: lenetKernels(), steps: 4}
		for _, v := range convNetVariants {
			cfg := conv.base
			cfg.Serial, cfg.PrefetchDepth = v.serial, v.prefetch
			conv.variants = append(conv.variants, cfg)
		}
		plans = append(plans, conv)
	}
	pp := trainerConfig(sched.HarmonyPP, 2)
	ppPrefetch := pp
	ppPrefetch.PrefetchDepth = 2
	plans = append(plans, plan{name: "p2p/harmony-pp", base: pp, steps: 4, variants: []TrainerConfig{pp, ppPrefetch}})

	train := func(t *testing.T, cfg TrainerConfig, kernels []nn.Kernel, steps int, poisoned bool) (*Trainer, []float32) {
		t.Helper()
		tr, err := NewTrainer(cfg, kernels)
		if err != nil {
			t.Fatal(err)
		}
		if poisoned {
			poison(tr)
		}
		return tr, stepTrainer(t, tr, 0, steps)
	}
	for _, pl := range plans {
		t.Run(pl.name, func(t *testing.T) {
			ref := pl.base
			ref.Serial = true
			a, lossA := train(t, ref, pl.kernels, pl.steps, false)
			defer a.Close()
			for _, cfg := range pl.variants {
				b, lossB := train(t, cfg, pl.kernels, pl.steps, true)
				assertSameRun(t, a, b, lossA, lossB)
				if pl.name == "p2p/harmony-pp" && b.Stats().P2PMoves == 0 {
					t.Fatalf("no activation moved p2p: %+v", b.Stats())
				}
				b.Close()
			}
		})
	}
}

// deviceBytes sums the capacity in bytes of the device slices sh holds:
// its resident pages' and its spares'. Between steps, with the DMA
// engine drained, every resident page is on sh's LRU list.
func deviceBytes(sh *vmShard) (resident, spare int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for b := sh.lru.head; b != nil; b = b.next {
		resident += int64(cap(b.dev)) * 4
	}
	for _, st := range sh.spares {
		spare += int64(len(st.slices)*st.cap) * 4
	}
	return resident, spare
}

// checkHeld fails t when a shard of vm keeps a spare while its resident
// slices and spares exceed its capacity, or counts other than it holds,
// and reports whether any shard keeps a spare.
func checkHeld(t *testing.T, vm *VM, when string) (spared bool) {
	t.Helper()
	for d, sh := range vm.shards {
		resident, spare := deviceBytes(sh)
		if spare > 0 && resident+spare > vm.capacity {
			t.Fatalf("%s, gpu%d: resident slices %d + spares %d bytes exceed the capacity %d", when, d, resident, spare, vm.capacity)
		}
		if resident+spare != sh.held {
			t.Fatalf("%s, gpu%d: holds %d + %d bytes, counted %d", when, d, resident, spare, sh.held)
		}
		spared = spared || spare > 0
	}
	return spared
}

// TestSparesStayWithinCapacity: recycling must not make a virtual
// device hold more host memory than the GPU it stands for. After every
// step of a pressured data-parallel plan with prefetch and of a pipeline
// with p2p moves, each shard's resident slices and spares fit its
// capacity whenever it keeps a spare at all — only best-fit slack inside
// resident pages, which sh.used does not count, may take it past — and
// its running total is their sum. (Checked by mutation: spares never
// trimmed, or kept by give while the shard is over, fail both plans.)
func TestSparesStayWithinCapacity(t *testing.T) {
	dp := prefetchBase(sched.HarmonyDP, 2, false)
	dp.PrefetchDepth = 4
	pp := trainerConfig(sched.HarmonyPP, 2)
	for _, tc := range []struct {
		name string
		cfg  TrainerConfig
	}{{"dp prefetch", dp}, {"pp p2p", pp}} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTrainer(tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			spared := false
			for s := 0; s < 8; s++ {
				stepTrainer(t, tr, s, 1)
				spared = checkHeld(t, tr.vm, fmt.Sprintf("step %d", s)) || spared
			}
			st := tr.Stats()
			if !spared || st.Drops == 0 || tc.cfg.Mode == sched.HarmonyPP && st.P2PMoves == 0 {
				t.Fatalf("no pressure to hold the bound under: %+v", st)
			}
		})
	}
}

// TestFreshSliceTrimsSparesFirst walks take's three answers on one
// device: a page no spare is long enough for is made fresh only once the
// spares that would not fit beside it are dropped — which the trainer's
// step boundaries cannot see, as the pages that leave later are dropped
// too — and a page shorter than a spare reuses it (best fit) instead.
// (Checked by mutation: a take that never trims fails at the fresh page.)
func TestFreshSliceTrimsSparesFirst(t *testing.T) {
	reg := tensor.NewRegistry()
	vm := NewVM(1, 1000, tracking)
	sh := vm.shards[0]
	ensure := func(name string, bytes int64) *tensor.Tensor {
		x := reg.Add(tensor.Activation, bytes, 0, -1)
		vm.HostAlloc(x)
		if _, err := vm.Ensure(0, x); err != nil {
			t.Fatal(err)
		}
		if err := vm.Unpin(x); err != nil {
			t.Fatal(err)
		}
		checkHeld(t, vm, "after Ensure of "+name)
		return x
	}
	free := func(x *tensor.Tensor) {
		if err := vm.Free(x); err != nil {
			t.Fatal(err)
		}
		checkHeld(t, vm, fmt.Sprintf("after Free of tensor %d", x.ID))
	}
	x := ensure("x", 400)
	ensure("y", 200)
	free(x) // a 400-byte spare beside 200 resident
	z := ensure("z", 600)
	if sh.held != 800 || len(sh.spares[0].slices) != 0 {
		t.Fatalf("z made beside the spare: holds %d bytes, spares %+v", sh.held, sh.spares)
	}
	free(z)
	w := ensure("w", 400)
	b, _ := vm.lookup(w.ID)
	if sh.held != 800 || cap(b.dev) != 150 || len(b.dev) != 100 {
		t.Fatalf("w: %d of %d floats, holds %d bytes; want z's 150-float slice reused", len(b.dev), cap(b.dev), sh.held)
	}
}

// trainShape is a named trainer configuration the tests and benchmarks
// walk.
type trainShape struct {
	name string
	cfg  TrainerConfig
}

// linkShapes are the benchmark's train-swap-link and train-pp-link
// plans: a 5.05 MiB model on one 4 MiB device behind a 128 MiB/s link
// with p2p off, and a pipeline on two 4 MiB devices with p2p activations
// and a 96 MiB/s link, both prefetching four tasks ahead.
func linkShapes() []trainShape {
	noP2P := false
	return []trainShape{
		{"swap-link", TrainerConfig{
			Widths: []int{256, 512, 512, 512, 10}, Mode: sched.HarmonyDP, Devices: 1,
			DeviceBytes: 4 << 20, BatchSize: 8, LR: 0.005, Seed: 1,
			Toggles: &sched.Toggles{P2P: &noP2P}, PrefetchDepth: 4, LinkBytesPerSec: 1 << 27,
		}},
		{"pp-link", TrainerConfig{
			Widths: []int{256, 640, 640, 640, 10}, Mode: sched.HarmonyPP, Devices: 2,
			DeviceBytes: 4 << 20, BatchSize: 8, LR: 0.005, Seed: 1,
			PrefetchDepth: 4, LinkBytesPerSec: 96 << 20,
		}},
	}
}

// computeShape is the benchmark's train-compute plan: two replicas of a
// 784-512-512-10 MLP, 64 samples each in eight microbatches, on 64 MiB
// devices that hold it all, with no link modeled. Its step's inputs,
// 392 KiB, are the largest host pages any shape here bears a step.
func computeShape() trainShape {
	return trainShape{"compute", TrainerConfig{
		Widths: []int{784, 512, 512, 10}, Mode: sched.HarmonyDP, Devices: 2,
		DeviceBytes: 64 << 20, BatchSize: 64, LR: 0.005, Seed: 1,
	}}
}

// batchRing pregenerates n batches for tr, so stepping allocates
// nothing on the caller's side.
func batchRing(tr *Trainer, n int) (xs [][]float32, ys [][]int) {
	blobs := data.NewBlobs(tr.inDim, tr.classes, 1.0, 1)
	for s := 0; s < n; s++ {
		x, y := blobs.Batch(tr.SamplesPerStep(), uint64(s))
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

// TestWarmStepAllocatesNoPages: once warm, a step finds every page it
// places on a device among the spares of the pages that left it, and
// bears its inputs in the host slice the last step's inputs left. Fresh
// slices per swap-in cost ≈ 2.9 MB a step on swap-link and ≈ 2.6 MB on
// pp-link, and fresh input pages ≈ 400 KB a step on compute; what is
// left is the runtime's own bookkeeping. The -recover rows capture each
// step's rollback target into the slices the last step's capture left;
// encoding a fresh checkpoint every step, as the rollback target once
// was, cost ≈ 8.0 MB a step on swap-link and ≈ 11.6 MB on pp-link.
func TestWarmStepAllocatesNoPages(t *testing.T) {
	const warm, budget = 3, 128 << 10
	type row struct {
		trainShape
		steps int
	}
	var rows []row
	for _, shape := range linkShapes() {
		rows = append(rows, row{shape, 20})
		shape.name += "-recover"
		shape.cfg.Recover = true
		rows = append(rows, row{shape, 20})
	}
	// A compute step costs six link steps, ≈ 1.7 s under -race; four
	// show its inputs' 392 KiB a step.
	rows = append(rows, row{computeShape(), 4})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			tr, err := NewTrainer(r.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			xs, ys := batchRing(tr, warm+r.steps)
			var before, after runtime.MemStats
			for s := range xs {
				if s == warm {
					runtime.ReadMemStats(&before)
				}
				if _, err := tr.Step(xs[s], ys[s]); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perStep := (after.TotalAlloc - before.TotalAlloc) / uint64(r.steps)
			if perStep > budget {
				t.Errorf("a warm step allocates %d bytes, over the %d budget", perStep, budget)
			}
			t.Logf("a warm step allocates %d bytes", perStep)
		})
	}
}

// commLinkShape is the benchmark's train-comm plan: four replicas of a
// 64-1536-1536-1536-10 MLP, ≈ 18.5 MiB of gradients each against a
// batch of 4, reduced in 8 chunks of 12 MiB buckets over 1 GiB/s links.
// It is a by-hand row only: a step sleeps tens of milliseconds of link
// time, so the tests that walk linkShapes leave it out.
func commLinkShape() TrainerConfig {
	return TrainerConfig{
		Widths: []int{64, 1536, 1536, 1536, 10}, Mode: sched.HarmonyDP, Devices: 4,
		DeviceBytes: 96 << 20, BatchSize: 4, Microbatches: 1, LR: 0.005, Seed: 1,
		LinkBytesPerSec: 1 << 30, CommChunks: 8, CommBucketBytes: 12 << 20,
	}
}

// benchShapes are the compute shape, the link shapes and the comm-link
// shape.
func benchShapes() []trainShape {
	return append(append([]trainShape{computeShape()}, linkShapes()...), trainShape{"comm-link", commLinkShape()})
}

// BenchmarkTrainerSetup times what a trainer costs before it is warm —
// NewTrainer and its first step — on each BenchmarkTrainerStep shape,
// with the host memory its pages hold after that step (host-MB) and the
// bytes the two swapped in (swapin-MB).
func BenchmarkTrainerSetup(b *testing.B) {
	for _, shape := range benchShapes() {
		b.Run(shape.name, func(b *testing.B) {
			tr, err := NewTrainer(shape.cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			xs, ys := batchRing(tr, 1)
			tr.Close()
			var host, in int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := NewTrainer(shape.cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tr.Step(xs[0], ys[0]); err != nil {
					b.Fatal(err)
				}
				host, in = tr.HostBytes(), tr.Stats().SwapInBytes
				tr.Close()
			}
			b.ReportMetric(float64(host)/(1<<20), "host-MB")
			b.ReportMetric(float64(in)/(1<<20), "swapin-MB")
		})
	}
}

// BenchmarkTrainerStep times a warm step of each link shape and of the
// comm-link shape, with its allocations.
func BenchmarkTrainerStep(b *testing.B) {
	defer nn.SetWorkers(nn.Workers())
	for _, shape := range benchShapes() {
		b.Run(shape.name, func(b *testing.B) {
			// The kernels fan out over as many workers as -cpu gives
			// goroutines, as harmonybench's -procs sizes both.
			nn.SetWorkers(runtime.GOMAXPROCS(0))
			tr, err := NewTrainer(shape.cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			xs, ys := batchRing(tr, 16)
			for s := 0; s < 3; s++ {
				if _, err := tr.Step(xs[s], ys[s]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(xs[i%len(xs)], ys[i%len(ys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
