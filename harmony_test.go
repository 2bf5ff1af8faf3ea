package harmony

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"harmony/internal/models"
	"harmony/internal/sched"
)

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		DPBaseline: "dp-baseline",
		PPBaseline: "pp-baseline",
		HarmonyDP:  "harmony-dp",
		HarmonyPP:  "harmony-pp",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestServerBuilders(t *testing.T) {
	s := CommodityServer(4)
	if s.GPUs() != 4 || s.Box().GPUMemBytes != 11<<30 {
		t.Fatalf("commodity server = %+v", s.Box())
	}
	s = s.WithGPUMemory(1 << 30).WithNVLink(50e9).WithHostLinkBandwidth(6e9)
	b := s.Box()
	if b.GPUMemBytes != 1<<30 || b.NVLinkBandwidth != 50e9 || b.HostLinkBandwidth != 6e9 {
		t.Fatalf("builder overrides lost: %+v", b)
	}
	if DenseServer(8).Box().GPUsPerSwitch != 4 {
		t.Fatal("dense server should pack 4 GPUs per switch")
	}
}

func TestTogglesApply(t *testing.T) {
	base := sched.DefaultOptions(HarmonyDP.sched())
	if !base.Grouping {
		t.Fatal("harmony default should group")
	}
	tg := &Toggles{Grouping: Bool(false), GroupSize: 3}
	o := tg.apply(base)
	if o.Grouping {
		t.Fatal("toggle did not apply")
	}
	if o.GroupSize != 3 {
		t.Fatal("group size did not apply")
	}
	if !o.JIT {
		t.Fatal("unset toggles must keep defaults")
	}
	var nilT *Toggles
	o2 := nilT.apply(base)
	if o2 != base {
		t.Fatal("nil toggles must be identity")
	}
}

func TestSimulateSmoke(t *testing.T) {
	rep, err := Simulate(SimConfig{
		Model:          UniformModel(8, 100_000, 64<<10, 1e9),
		Mode:           HarmonyDP,
		Server:         CommodityServer(2).WithGPUMemory(2 << 20),
		MicrobatchSize: 1,
		Microbatches:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 || rep.IterSeconds <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SwapGB() <= 0 {
		t.Fatal("tiny devices should force swapping")
	}
	if len(rep.PerGPUSwapOutBytes) != 2 || len(rep.PerGPUDemandBytes) != 2 {
		t.Fatal("per-GPU series missing")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Simulate(SimConfig{Model: BERTLarge()}); err == nil {
		t.Fatal("missing server accepted")
	}
	// A NaN bandwidth is false under every `<= 0` check; it used to come
	// back as err == nil, Throughput 0, IterSeconds NaN.
	_, err := Simulate(SimConfig{
		Model: BERTLarge(), Mode: HarmonyDP, MicrobatchSize: 1, Microbatches: 2,
		Server: CommodityServer(2).WithHostLinkBandwidth(math.NaN()),
	})
	if err == nil || !strings.Contains(err.Error(), "HostLinkBandwidth") {
		t.Fatalf("NaN host-link bandwidth: err = %v, want one naming HostLinkBandwidth", err)
	}
}

func TestSimulateTraceCapture(t *testing.T) {
	rep, err := Simulate(SimConfig{
		Model:          UniformModel(4, 1_000_000, 1<<20, 1e10),
		Mode:           HarmonyPP,
		Server:         CommodityServer(2).WithGPUMemory(16 << 20),
		MicrobatchSize: 1,
		Microbatches:   2,
		CaptureTrace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Gantt, "compute") {
		t.Fatalf("gantt missing:\n%s", rep.Gantt)
	}
}

func TestSimulateAblationToggleMatters(t *testing.T) {
	base := SimConfig{
		Model:          UniformModel(8, 500_000, 64<<10, 1e9),
		Mode:           HarmonyDP,
		Server:         CommodityServer(1).WithGPUMemory(10 << 20),
		MicrobatchSize: 1,
		Microbatches:   4,
	}
	withAll, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	noDirty := base
	noDirty.Toggles = &Toggles{DirtyTracking: Bool(false)}
	withoutDT, err := Simulate(noDirty)
	if err != nil {
		t.Fatal(err)
	}
	if withoutDT.SwapOutBytes <= withAll.SwapOutBytes {
		t.Fatalf("disabling dirty tracking must increase writebacks: %d vs %d",
			withoutDT.SwapOutBytes, withAll.SwapOutBytes)
	}
}

func TestTuneSmoke(t *testing.T) {
	res, err := Tune(TuneConfig{
		Model:           UniformModel(8, 500_000, 64<<10, 5e9),
		Mode:            HarmonyPP,
		Server:          CommodityServer(2).WithGPUMemory(10 << 20),
		BatchPerReplica: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestThroughput <= 0 || res.Explored == 0 || len(res.Table) == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.BestMicrobatchSize*res.BestMicrobatches != 4 {
		t.Fatal("best candidate must preserve the batch")
	}
}

func TestTrainerEndToEnd(t *testing.T) {
	tr, err := NewTrainer(TrainerConfig{
		Widths:      []int{16, 32, 4},
		Mode:        HarmonyDP,
		Devices:     2,
		DeviceBytes: 8 << 10,
		BatchSize:   16,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	blobs := NewBlobs(16, 4, 0.5, 3)
	var first, last float32
	for step := 0; step < 25; step++ {
		n := tr.SamplesPerStep()
		x, y := blobs.Batch(n, uint64(step))
		loss, err := tr.Step(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not improve: %v -> %v", first, last)
	}
	if tr.Stats().SwapIns == 0 {
		t.Fatal("expected real swapping on 8 KB devices")
	}
	if tr.FootprintBytes() <= 8<<10 {
		t.Fatal("test setup should exceed device capacity")
	}
	x, _ := blobs.Batch(4, 999)
	logits, err := tr.Predict(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 4*4 {
		t.Fatalf("logits = %d", len(logits))
	}
}

func TestTrainerValidation(t *testing.T) {
	if _, err := NewTrainer(TrainerConfig{Widths: []int{4, 2}, Devices: 1, DeviceBytes: 1 << 20}); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := NewTrainer(TrainerConfig{
		Widths: []int{4, 2}, Devices: 1, DeviceBytes: 1 << 20,
		BatchSize: 5, Microbatches: 3,
	}); err == nil {
		t.Fatal("non-divisible batch accepted")
	}
	// A negative bandwidth used to mean "no link", silently.
	if _, err := NewTrainer(TrainerConfig{
		Widths: []int{4, 2}, Devices: 1, DeviceBytes: 1 << 20, BatchSize: 4, LinkBytesPerSec: -1,
	}); err == nil || !strings.Contains(err.Error(), "LinkBytesPerSec -1 is negative") {
		t.Fatalf("negative LinkBytesPerSec: got %v, want an error naming the field", err)
	}
	// A toggle only the simulator reads is refused by name, whichever
	// way it is set, instead of being accepted to no effect.
	for _, v := range []bool{false, true} {
		for field, tg := range map[string]*Toggles{
			"LookaheadEviction":   {LookaheadEviction: Bool(v)},
			"DeferBlockedUpdates": {DeferBlockedUpdates: Bool(v)},
		} {
			_, err := NewTrainer(TrainerConfig{
				Widths: []int{4, 2}, Devices: 1, DeviceBytes: 1 << 20, BatchSize: 4, Toggles: tg,
			})
			if err == nil || !strings.Contains(err.Error(), "Toggles."+field) {
				t.Fatalf("simulator-only toggle %s=%v: got %v, want an error naming the field", field, v, err)
			}
		}
	}
}

func TestSimulateRecomputeTradesComputeForMemory(t *testing.T) {
	// A stash-heavy workload (transformer: attention probabilities
	// dominate the stash) where recomputation should cut swap traffic
	// at the cost of extra kernel time.
	tf := models.Transformer(models.TransformerConfig{
		Name: "rc-tf", NumLayers: 8, Hidden: 512, SeqLen: 256, Vocab: 8000,
	})
	base := SimConfig{
		Model:          CustomModel(tf),
		Mode:           HarmonyPP,
		Server:         CommodityServer(2).WithGPUMemory(tf.PersistentBytes() / 2),
		MicrobatchSize: 1,
		Microbatches:   4,
	}
	plain, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	rcCfg := base
	rcCfg.Recompute = true
	rc, err := Simulate(rcCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rc.SwapGB() >= plain.SwapGB() {
		t.Fatalf("recompute should reduce swap: %.3f vs %.3f GB", rc.SwapGB(), plain.SwapGB())
	}
}

func TestLeNetTrainerEndToEnd(t *testing.T) {
	tr, err := NewLeNetTrainer(TrainerConfig{
		Mode:        HarmonyPP,
		Devices:     2,
		DeviceBytes: 448 << 10, // fc1's update (W+dW ≈ 385 KB) barely fits
		BatchSize:   16,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	blobs := NewBlobs(32*32, 10, 1.0, 4)
	var head, tail float64
	const steps = 40
	for step := 0; step < steps; step++ {
		x, y := blobs.Batch(tr.SamplesPerStep(), uint64(step))
		loss, err := tr.Step(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if step < 5 {
			head += float64(loss) / 5
		}
		if step >= steps-5 {
			tail += float64(loss) / 5
		}
	}
	if tail >= head {
		t.Fatalf("lenet loss did not improve: %.4f -> %.4f", head, tail)
	}
	if tr.Stats().SwapIns == 0 {
		t.Fatal("expected swapping on 448 KB devices")
	}
}

func TestTrainerCheckpointPublicAPI(t *testing.T) {
	cfg := TrainerConfig{
		Widths: []int{16, 32, 4}, Mode: HarmonyDP, Devices: 1,
		DeviceBytes: 8 << 10, BatchSize: 8, Seed: 1,
	}
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blobs := NewBlobs(16, 4, 0.5, 3)
	x, y := blobs.Batch(tr.SamplesPerStep(), 0)
	if _, err := tr.Step(x, y); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	// Identical predictions after restore.
	probe, _ := blobs.Batch(4, 99)
	a, err := tr.Predict(probe, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Predict(probe, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs after restore", i)
		}
	}
}

// Fuzz the whole stack through the public API: random small
// configurations must complete, be deterministic (bit-identical
// reports on re-run), and respect conservation (swap-in ≥ swap-out
// cannot diverge unboundedly in steady state).
func TestSimulateFuzzDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	modes := []Mode{DPBaseline, HarmonyDP, PPBaseline, HarmonyPP, TPBaseline, HarmonyTP}
	f := func(layersRaw, mRaw, gRaw, modeRaw uint8, capRaw uint16) bool {
		layers := int(layersRaw%6)*2 + 4 // 4..14
		m := int(mRaw%4) + 1
		gpus := int(gRaw%2) + 2 // 2..3
		mode := modes[int(modeRaw)%len(modes)]
		// Capacity between 1.2x and ~4x a single layer's working set.
		capacity := int64(capRaw%2048)*1024 + 96<<10
		cfg := SimConfig{
			Model:          UniformModel(layers, 2000, 8<<10, 1e8),
			Mode:           mode,
			Server:         CommodityServer(gpus).WithGPUMemory(capacity),
			MicrobatchSize: 1,
			Microbatches:   m,
		}
		a, errA := Simulate(cfg)
		b, errB := Simulate(cfg)
		if (errA == nil) != (errB == nil) {
			t.Logf("nondeterministic error: %v vs %v", errA, errB)
			return false
		}
		if errA != nil {
			// Infeasible configs must fail cleanly, not hang or panic.
			return true
		}
		if a.Throughput != b.Throughput || a.SwapInBytes != b.SwapInBytes ||
			a.SwapOutBytes != b.SwapOutBytes || a.P2PBytes != b.P2PBytes {
			t.Logf("nondeterministic results for %+v", cfg)
			return false
		}
		if a.Throughput <= 0 {
			t.Logf("zero throughput for %+v", cfg)
			return false
		}
		// Steady state: what goes in must roughly come out (clean
		// drops make out ≤ in).
		if a.SwapOutBytes > a.SwapInBytes {
			t.Logf("swap-out %d exceeds swap-in %d", a.SwapOutBytes, a.SwapInBytes)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseServerSimulateSmoke(t *testing.T) {
	rep, err := Simulate(SimConfig{
		Model:          UniformModel(16, 200_000, 32<<10, 5e8),
		Mode:           HarmonyDP,
		Server:         DenseServer(8).WithGPUMemory(4 << 20),
		MicrobatchSize: 1,
		Microbatches:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 || len(rep.PerGPUSwapOutBytes) != 8 {
		t.Fatalf("dense server: %+v", rep)
	}
}

func TestClusterSimulateSmoke(t *testing.T) {
	rep, err := Simulate(SimConfig{
		Model:          UniformModel(8, 200_000, 32<<10, 5e8),
		Mode:           HarmonyPP,
		Server:         Cluster(2, 2).WithGPUMemory(4 << 20),
		MicrobatchSize: 1,
		Microbatches:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 || len(rep.PerGPUSwapOutBytes) != 4 {
		t.Fatalf("cluster: %+v", rep)
	}
}

func TestModeSchedPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mode(99).sched()
}

func TestTPModesThroughPublicAPI(t *testing.T) {
	base := SimConfig{
		Model:          UniformModel(8, 400_000, 32<<10, 1e9),
		Server:         CommodityServer(2).WithGPUMemory(4 << 20),
		MicrobatchSize: 1,
		Microbatches:   2,
	}
	for _, mode := range []Mode{TPBaseline, HarmonyTP} {
		cfg := base
		cfg.Mode = mode
		rep, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rep.Throughput <= 0 {
			t.Fatalf("%v produced no throughput", mode)
		}
	}
}
