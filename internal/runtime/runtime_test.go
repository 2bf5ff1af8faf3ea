package runtime

import (
	"strings"
	"testing"

	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/models"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// tinyBox returns a box whose GPUs have just `capacity` bytes, with
// fast links so tests run instantly.
func tinyBox(n int, capacity int64) hw.BoxConfig {
	cfg := hw.Commodity1080TiBox(n)
	cfg.GPUMemBytes = capacity
	return cfg
}

// uniformModel: R layers, 4 KB weights each, 4 KB activations/stash,
// Adam (8 KB optimizer state per layer).
func uniformModel(R int) *models.Model {
	return models.Uniform("u", R, 1000, 4096, 1e9)
}

func buildSched(t *testing.T, m *models.Model, mode sched.Mode, mbs, mbn, gpus int) *sched.Schedule {
	t.Helper()
	replicas := gpus
	if mode.IsPipeline() {
		replicas = 1
	}
	g, err := graph.Build(graph.Config{Model: m, MicrobatchSize: mbs, Microbatches: mbn, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(g, sched.DefaultOptions(mode), gpus)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidation(t *testing.T) {
	s := buildSched(t, uniformModel(4), sched.DPBaseline, 1, 2, 1)
	if _, err := Run(Config{Schedule: nil, MeasureIters: 1}); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if _, err := Run(Config{Box: tinyBox(1, 1<<20), Schedule: s, MeasureIters: 0}); err == nil {
		t.Fatal("zero MeasureIters accepted")
	}
	if _, err := Run(Config{Box: tinyBox(1, 1<<20), Schedule: s, MeasureIters: 1, WarmupIters: -1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
	s2 := buildSched(t, uniformModel(4), sched.DPBaseline, 1, 2, 2)
	if _, err := Run(Config{Box: tinyBox(1, 1<<20), Schedule: s2, MeasureIters: 1}); err == nil {
		t.Fatal("schedule wider than box accepted")
	}
}

func TestRoomyGPUNoSteadyStateWeightSwaps(t *testing.T) {
	s := buildSched(t, uniformModel(4), sched.DPBaseline, 1, 2, 1)
	res, err := Run(Config{Box: tinyBox(1, 1<<20), Schedule: s, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput should be positive")
	}
	st := res.PerDev[0]
	if st.KindSwapIn[tensor.Weight] != 0 && res.SwapOutBytes > 0 {
		// With 1 MB capacity everything fits; after warmup the only
		// swap traffic is the per-iteration input batches.
		t.Fatalf("unexpected steady-state swapping: %+v", st)
	}
}

func TestBaselineDPWeightSwapMatchesClosedForm(t *testing.T) {
	R, m := 16, 4
	model := uniformModel(R)
	s := buildSched(t, model, sched.DPBaseline, 1, m, 1)
	// Capacity barely above one task's working set: the paper's
	// idealized regime where every weight is evicted between uses.
	res, err := Run(Config{Box: tinyBox(1, 22<<10), Schedule: s, WarmupIters: 2, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	W := float64(model.WeightBytes())
	perLayer := W / float64(R)
	// Paper's ideal: (4m+2)|W|. Exact steady state keeps the boundary
	// layers resident across phase transitions: the last layer's W
	// survives each fwd→bwd turn (2 swaps saved per microbatch) and
	// the first layer's survives each bwd→fwd turn and the update
	// sweep (2 swaps each).
	ideal := float64(4*m+2) * W
	corrected := ideal - float64(2*m)*perLayer - float64(2*m)*perLayer
	st := res.PerDev[0]
	// Per-iteration W traffic averaged over all 4 iterations (warmup
	// equals steady state here).
	got := float64(st.KindSwapIn[tensor.Weight]+st.KindSwapOut[tensor.Weight]) / float64(2+2)
	if got < 0.97*corrected || got > 1.03*corrected {
		t.Fatalf("baseline W swap volume per iter = %.0f, want ≈ %.0f (ideal %.0f)", got, corrected, ideal)
	}
	if got < 0.90*ideal || got > 1.02*ideal {
		t.Fatalf("baseline W swap volume per iter = %.0f should approach the paper's (4m+2)|W| = %.0f", got, ideal)
	}
}

func TestHarmonyDPWeightSwapMatchesClosedForm(t *testing.T) {
	R, m := 16, 4
	model := uniformModel(R)
	s := buildSched(t, model, sched.HarmonyDP, 1, m, 1)
	res, err := Run(Config{Box: tinyBox(1, 22<<10), Schedule: s, WarmupIters: 2, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	W := float64(model.WeightBytes())
	perLayer := W / float64(R)
	// Paper's ideal: 3|W| (one swap-in for forward, one for backward,
	// one writeback of the updated weights). Boundary layers save two
	// swap-ins per iteration.
	ideal := 3 * W
	corrected := ideal - 2*perLayer
	st := res.PerDev[0]
	got := float64(st.KindSwapIn[tensor.Weight]+st.KindSwapOut[tensor.Weight]) / 4
	if got < 0.95*corrected || got > 1.05*corrected {
		t.Fatalf("harmony W swap volume per iter = %.0f, want ≈ %.0f (ideal 3|W| = %.0f)", got, corrected, ideal)
	}
	if res.DropBytes == 0 {
		t.Fatal("dirty tracking should produce clean drops")
	}
}

func TestHarmonyDPBeatsBaseline(t *testing.T) {
	R, m := 12, 4
	model := uniformModel(R)
	box := tinyBox(1, 128<<10)
	base, err := Run(Config{Box: box, Schedule: buildSched(t, model, sched.DPBaseline, 1, m, 1), WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	harm, err := Run(Config{Box: box, Schedule: buildSched(t, model, sched.HarmonyDP, 1, m, 1), WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if harm.SwapOutBytes+harm.SwapInBytes >= base.SwapOutBytes+base.SwapInBytes {
		t.Fatalf("harmony swap volume (%d) should be below baseline (%d)",
			harm.SwapOutBytes+harm.SwapInBytes, base.SwapOutBytes+base.SwapInBytes)
	}
	if harm.Throughput <= base.Throughput {
		t.Fatalf("harmony throughput (%.1f) should beat baseline (%.1f)", harm.Throughput, base.Throughput)
	}
}

func TestDataParallelMultiGPU(t *testing.T) {
	model := uniformModel(8)
	s := buildSched(t, model, sched.DPBaseline, 1, 2, 2)
	res, err := Run(Config{Box: tinyBox(2, 96<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Replicas are symmetric: swap traffic should match per GPU.
	a, b := res.PerDevSwapOut[0], res.PerDevSwapOut[1]
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if a == 0 || float64(diff) > 0.2*float64(a) {
		t.Fatalf("replica swap traffic should be symmetric: %d vs %d", a, b)
	}
}

func TestBaselineDPSwapVolumeGrowsLinearlyWithGPUs(t *testing.T) {
	model := uniformModel(8)
	vol := map[int]int64{}
	for _, n := range []int{1, 2, 4} {
		s := buildSched(t, model, sched.DPBaseline, 1, 2, n)
		res, err := Run(Config{Box: tinyBox(n, 96<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		vol[n] = res.SwapOutBytes + res.SwapInBytes
	}
	r2 := float64(vol[2]) / float64(vol[1])
	r4 := float64(vol[4]) / float64(vol[1])
	if r2 < 1.6 || r2 > 2.4 || r4 < 3.2 || r4 > 4.8 {
		t.Fatalf("swap volume should scale ~linearly: 2 GPUs %.2fx, 4 GPUs %.2fx", r2, r4)
	}
}

func TestPipelineBaselineRunsAndBouncesThroughHost(t *testing.T) {
	model := uniformModel(8)
	s := buildSched(t, model, sched.PPBaseline, 1, 4, 2)
	res, err := Run(Config{Box: tinyBox(2, 96<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.P2PBytes != 0 {
		t.Fatal("baseline pipeline must not use p2p")
	}
	if res.SwapOutBytes == 0 {
		t.Fatal("cross-stage activations must bounce through host")
	}
}

func TestHarmonyPPUsesP2P(t *testing.T) {
	model := uniformModel(8)
	s := buildSched(t, model, sched.HarmonyPP, 1, 4, 2)
	res, err := Run(Config{Box: tinyBox(2, 96<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.P2PBytes == 0 {
		t.Fatal("harmony pipeline should move activations over p2p")
	}
}

func TestHarmonyPPSwapVolumeIndependentOfGPUs(t *testing.T) {
	// Harmony-PP total swap volume is ~3|W| regardless of N (the
	// weights are partitioned, not replicated).
	model := uniformModel(8)
	vol := map[int]int64{}
	for _, n := range []int{2, 4} {
		s := buildSched(t, model, sched.HarmonyPP, 1, 4, n)
		res, err := Run(Config{Box: tinyBox(n, 64<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var wTraffic int64
		for d := 0; d < n; d++ {
			wTraffic += res.PerDev[d].KindSwapIn[tensor.Weight] + res.PerDev[d].KindSwapOut[tensor.Weight]
		}
		vol[n] = wTraffic
	}
	ratio := float64(vol[4]) / float64(max64(vol[2], 1))
	if ratio > 1.5 {
		t.Fatalf("harmony-pp weight traffic should not grow with GPUs: 2→%d, 4→%d", vol[2], vol[4])
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestPipelineHeadStashesMoreThanTail(t *testing.T) {
	// 1F1B with big stashes: the head stage's demand must exceed the
	// tail's (Fig. 2(c)).
	model := models.Uniform("stashy", 8, 1000, 64<<10, 1e9)
	s := buildSched(t, model, sched.PPBaseline, 1, 4, 4)
	res, err := Run(Config{Box: tinyBox(4, 256<<10), Schedule: s, WarmupIters: 1, MeasureIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDevDemand[0] <= res.PerDevDemand[3] {
		t.Fatalf("head demand (%d) should exceed tail (%d): %v",
			res.PerDevDemand[0], res.PerDevDemand[3], res.PerDevDemand)
	}
}

func TestTraceCapture(t *testing.T) {
	model := uniformModel(4)
	s := buildSched(t, model, sched.HarmonyPP, 1, 2, 2)
	res, err := Run(Config{Box: tinyBox(2, 64<<10), Schedule: s, WarmupIters: 0, MeasureIters: 1, CaptureTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("trace should have events")
	}
	g := res.Trace.Gantt(80)
	if !strings.Contains(g, "gpu0") || !strings.Contains(g, "compute") {
		t.Fatalf("gantt rendering missing lanes:\n%s", g)
	}
	csv := res.Trace.CSV()
	if !strings.Contains(csv, "device,lane,label") {
		t.Fatal("CSV header missing")
	}
}

func TestImpossibleTaskReportsError(t *testing.T) {
	model := uniformModel(4)
	s := buildSched(t, model, sched.DPBaseline, 1, 1, 1)
	// Capacity below a single task's working set.
	_, err := Run(Config{Box: tinyBox(1, 8<<10), Schedule: s, MeasureIters: 1})
	if err == nil {
		t.Fatal("expected error for task that cannot fit")
	}
}

func TestDeterministicResults(t *testing.T) {
	model := uniformModel(8)
	mk := func() *Result {
		s := buildSched(t, model, sched.HarmonyDP, 1, 2, 2)
		res, err := Run(Config{Box: tinyBox(2, 96<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.IterTime != b.IterTime || a.SwapOutBytes != b.SwapOutBytes || a.SwapInBytes != b.SwapInBytes {
		t.Fatalf("nondeterministic: %v/%d/%d vs %v/%d/%d",
			a.IterTime, a.SwapInBytes, a.SwapOutBytes, b.IterTime, b.SwapInBytes, b.SwapOutBytes)
	}
}

func TestTensorParallelEndToEnd(t *testing.T) {
	model := uniformModel(6)
	g, err := graph.Build(graph.Config{
		Model: model, MicrobatchSize: 2, Microbatches: 2, Replicas: 1, OpShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(g, sched.DefaultOptions(sched.HarmonyTP), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Box: tinyBox(2, 64<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("sharded run produced no throughput")
	}
	// Weight traffic is bounded by partitioning: total W per shard is
	// half, so per-GPU weight swap-in must be well below a DP
	// replica's.
	dpS := buildSched(t, model, sched.HarmonyDP, 2, 2, 2)
	dpRes, err := Run(Config{Box: tinyBox(2, 64<<10), Schedule: dpS, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tpW, dpW int64
	for d := 0; d < 2; d++ {
		tpW += res.PerDev[d].KindSwapIn[tensor.Weight]
		dpW += dpRes.PerDev[d].KindSwapIn[tensor.Weight]
	}
	if tpW >= dpW {
		t.Fatalf("sharded weight traffic (%d) should be below replicated DP (%d)", tpW, dpW)
	}
}

func TestTPBaselineVsHarmonyTP(t *testing.T) {
	model := uniformModel(8)
	mk := func(mode sched.Mode) *Result {
		g, err := graph.Build(graph.Config{
			Model: model, MicrobatchSize: 1, Microbatches: 4, Replicas: 1, OpShards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.Build(g, sched.DefaultOptions(mode), 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Box: tinyBox(2, 32<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(sched.TPBaseline)
	harm := mk(sched.HarmonyTP)
	if harm.SwapInBytes+harm.SwapOutBytes >= base.SwapInBytes+base.SwapOutBytes {
		t.Fatalf("harmony-tp swap (%d) should beat tp-baseline (%d)",
			harm.SwapInBytes+harm.SwapOutBytes, base.SwapInBytes+base.SwapOutBytes)
	}
	if harm.Throughput < base.Throughput {
		t.Fatalf("harmony-tp throughput (%.2f) below tp-baseline (%.2f)", harm.Throughput, base.Throughput)
	}
}

func TestLookaheadEvictionEndToEnd(t *testing.T) {
	model := uniformModel(16)
	mk := func(lookahead bool) *Result {
		g, err := graph.Build(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 4, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := sched.DefaultOptions(sched.HarmonyDP)
		opts.LookaheadEviction = lookahead
		s, err := sched.Build(g, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Box: tinyBox(1, 30<<10), Schedule: s, WarmupIters: 1, MeasureIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lru := mk(false)
	bel := mk(true)
	// Both complete; lookahead must never be meaningfully worse than
	// LRU on total traffic (Belady is optimal for fixed reference
	// strings; our streams are near-fixed).
	lruVol := lru.SwapInBytes + lru.SwapOutBytes
	belVol := bel.SwapInBytes + bel.SwapOutBytes
	if float64(belVol) > 1.05*float64(lruVol) {
		t.Fatalf("lookahead (%d) worse than LRU (%d)", belVol, lruVol)
	}
}

// NVLink upgrade ablation: adding a fast all-to-all interconnect must
// speed up p2p-heavy Harmony pipelines.
func TestNVLinkSpeedsUpPipelines(t *testing.T) {
	model := models.Uniform("nvl", 8, 500_000, 4<<20, 1e9)
	mk := func(nvlink float64) *Result {
		g, err := graph.Build(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 8, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := sched.DefaultOptions(sched.HarmonyPP)
		opts.GroupSize = 1
		opts.WaveInterleave = true
		s, err := sched.Build(g, opts, 4)
		if err != nil {
			t.Fatal(err)
		}
		box := hw.Commodity1080TiBox(4)
		box.GPUMemBytes = 24 << 20
		box.NVLinkBandwidth = nvlink
		res, err := Run(Config{Box: box, Schedule: s, WarmupIters: 1, MeasureIters: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pcie := mk(0)
	nvl := mk(150e9)
	if nvl.Throughput <= pcie.Throughput {
		t.Fatalf("NVLink (%.1f) should beat PCIe p2p (%.1f)", nvl.Throughput, pcie.Throughput)
	}
}

// The 8-GPU dense box with 4:1 switch oversubscription runs end to
// end and its baseline swap bottleneck is even more pronounced.
func TestDenseBoxEightGPUs(t *testing.T) {
	model := uniformModel(8)
	g, err := graph.Build(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 2, Replicas: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(g, sched.DefaultOptions(sched.DPBaseline), 8)
	if err != nil {
		t.Fatal(err)
	}
	box := hw.DenseBox(8)
	box.GPUMemBytes = 96 << 10
	res, err := Run(Config{Box: box, Schedule: s, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || len(res.PerDev) != 8 {
		t.Fatalf("dense box run: thr=%v devs=%d", res.Throughput, len(res.PerDev))
	}
}

// A Harmony-PP pipeline spanning two servers must route its
// cross-stage activations over the NICs.
func TestPipelineAcrossServers(t *testing.T) {
	model := uniformModel(8)
	g, err := graph.Build(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 4, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(g, sched.DefaultOptions(sched.HarmonyPP), 2)
	if err != nil {
		t.Fatal(err)
	}
	box := hw.CommodityCluster(2, 1) // one GPU per server: the stage boundary is the NIC
	box.GPUMemBytes = 96 << 10
	res, err := Run(Config{Box: box, Schedule: s, WarmupIters: 1, MeasureIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.P2PBytes == 0 {
		t.Fatal("cross-server pipeline should move activations over NICs")
	}
	if res.LinkBusy["srv0-nic-up"] == 0 || res.LinkBusy["srv1-nic-down"] == 0 {
		t.Fatalf("NIC links idle: %v", res.LinkBusy)
	}
}

// Capture both trace and usage simultaneously and export Chrome JSON.
func TestUsageAndChromeCapture(t *testing.T) {
	model := uniformModel(4)
	s := buildSched(t, model, sched.HarmonyDP, 1, 2, 1)
	res, err := Run(Config{Box: tinyBox(1, 30<<10), Schedule: s,
		WarmupIters: 0, MeasureIters: 1, CaptureTrace: true, CaptureUsage: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Usage) != 1 || len(res.Usage[0]) == 0 {
		t.Fatal("usage timeline missing")
	}
	// Usage never exceeds capacity and starts from zero.
	for _, p := range res.Usage[0] {
		if p.Bytes > 30<<10 || p.Bytes < 0 {
			t.Fatalf("usage point out of range: %+v", p)
		}
	}
	out, err := res.Trace.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || out[0] != '[' {
		t.Fatal("chrome trace not a JSON array")
	}
}

func TestEventLimitAborts(t *testing.T) {
	model := uniformModel(8)
	s := buildSched(t, model, sched.DPBaseline, 1, 2, 1)
	_, err := Run(Config{Box: tinyBox(1, 96<<10), Schedule: s,
		WarmupIters: 0, MeasureIters: 1, EventLimit: 10})
	if err == nil {
		t.Fatal("expected event-limit error")
	}
}

func TestPrefetchDepthConfigurable(t *testing.T) {
	model := uniformModel(8)
	mk := func(depth int) *Result {
		s := buildSched(t, model, sched.HarmonyDP, 1, 4, 1)
		res, err := Run(Config{Box: tinyBox(1, 64<<10), Schedule: s,
			WarmupIters: 1, MeasureIters: 2, PrefetchDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Both depths complete deterministically; deeper prefetch must
	// not break anything (its benefit is workload-dependent).
	a := mk(1)
	b := mk(4)
	if a.Throughput <= 0 || b.Throughput <= 0 {
		t.Fatal("prefetch depths should both run")
	}
}

// TestRunAllocationBudget holds the simulator's loop to an allocation
// budget per executed task, on the closed-form Harmony-DP plan (16
// uniform layers, m = 2, N = 2, one layer-level op resident at a time,
// so every task swaps). What is left per task is by design: one acquire
// record, one join per DMA, one completion closure per swap. A closure
// that creeps back into dispatch, the FIFO or the event heap shows up
// here before it shows up in a benchmark row.
func TestRunAllocationBudget(t *testing.T) {
	const iters = 4
	g, err := graph.Build(graph.Config{Model: uniformModel(16), MicrobatchSize: 1, Microbatches: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.DefaultOptions(sched.HarmonyDP)
	opts.DeferBlockedUpdates = false
	s, err := sched.Build(g, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Box: tinyBox(2, 22<<10), Schedule: s, WarmupIters: iters / 2, MeasureIters: iters / 2}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 9.1 allocations per task — 8.4 in the steady state
	// (this plan moves 3.4 tensors per task: a join and a completion
	// closure each, plus the acquire record), the rest set-up (topology,
	// manager, tensor states) spread over four iterations. The parent of
	// the change that introduced this test measured 116. Budget: 9.1 plus
	// 25 %.
	const budget = 11.4
	perTask := allocs / float64(iters*len(g.Tasks))
	t.Logf("%.0f allocations per Run, %d tasks × %d iterations: %.2f per task", allocs, len(g.Tasks), iters, perTask)
	if perTask > budget {
		t.Errorf("%.2f allocations per task, budget %.1f", perTask, budget)
	}
}
