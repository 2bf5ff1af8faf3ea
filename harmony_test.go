package harmony

import (
	"math"
	"os/exec"
	"strings"
	"testing"
	"testing/quick"

	"harmony/internal/models"
)

// TestBenchHarnessCompiles type-checks the nested bench module, which
// `go test ./...` never reaches: a change to the public API that breaks
// harmonybench fails here instead of when the benchmark first runs.
func TestBenchHarnessCompiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	if out, err := exec.Command("go", "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}

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

// Tune measures every candidate on the whole Server, so Simulating its
// winner on the same Server reproduces the reported throughput exactly.
// A multi-server Cluster is the case where the per-server GPU count and
// the Server's total differ.
func TestTuneBestMatchesSimulateOnCluster(t *testing.T) {
	model := UniformModel(8, 1_000_000, 16<<10, 5e9)
	server := Cluster(2, 1).WithGPUMemory(20 << 20)
	res, err := Tune(TuneConfig{Model: model, Mode: HarmonyDP, Server: server, BatchPerReplica: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(SimConfig{
		Model: model, Mode: HarmonyDP, Server: server,
		MicrobatchSize: res.BestMicrobatchSize, Microbatches: res.BestMicrobatches,
		Toggles: &Toggles{
			GroupSize:           res.BestGroupSize,
			Prefetch:            Bool(res.BestPrefetch),
			DeferBlockedUpdates: Bool(res.BestDefer),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput != res.BestThroughput {
		t.Fatalf("Tune reports %v samples/s for its best candidate, Simulate of it on the same server gives %v",
			res.BestThroughput, rep.Throughput)
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

// A mode outside the enum is an error naming it from every front door,
// not a panic.
func TestUnknownModeIsAnError(t *testing.T) {
	_, err := Simulate(SimConfig{Model: UniformModel(4, 1000, 1<<10, 1e9), Mode: Mode(99), Server: CommodityServer(2)})
	if err == nil || !strings.Contains(err.Error(), "Mode(99)") {
		t.Errorf("Simulate: got %v, want an error naming Mode(99)", err)
	}
	_, err = NewTrainer(TrainerConfig{Widths: []int{4, 2}, Mode: Mode(99), Devices: 1, DeviceBytes: 1 << 20, BatchSize: 4})
	if err == nil || !strings.Contains(err.Error(), "Mode(99)") {
		t.Errorf("NewTrainer: got %v, want an error naming Mode(99)", err)
	}
	// Refused up front, not measured candidate by candidate and then
	// reported as "no feasible candidate".
	_, err = Tune(TuneConfig{Model: UniformModel(4, 1000, 1<<10, 1e9), Mode: Mode(99), Server: CommodityServer(2), BatchPerReplica: 2})
	if err == nil || !strings.Contains(err.Error(), "Mode(99)") {
		t.Errorf("Tune: got %v, want an error naming Mode(99)", err)
	}
}

// The op-sharded modes are simulator-only: the trainer refuses them by
// name before building anything.
func TestTrainerRefusesShardedModes(t *testing.T) {
	for _, mode := range []Mode{TPBaseline, HarmonyTP} {
		_, err := NewTrainer(TrainerConfig{Widths: []int{4, 2}, Mode: mode, Devices: 2, DeviceBytes: 1 << 20, BatchSize: 4})
		if want := mode.String() + " runs in the simulator only"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: got %v, want %q", mode, err, want)
		}
	}
}

// checkTuneBestReproduces Tunes mode on model and Simulates its winner from
// the Best fields, which must reproduce the reported throughput exactly. A
// single-copy mode streams the global batch, BatchPerReplica × GPUs.
func checkTuneBestReproduces(t *testing.T, model ModelSpec, mode Mode, server Server) {
	t.Helper()
	res, err := Tune(TuneConfig{Model: model, Mode: mode, Server: server, BatchPerReplica: 4})
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	mbs := res.BestMicrobatches
	if mode.IsPipeline() || mode.IsSharded() {
		mbs *= server.GPUs()
	}
	rep, err := Simulate(SimConfig{
		Model: model, Mode: mode, Server: server,
		MicrobatchSize: res.BestMicrobatchSize, Microbatches: mbs,
		Toggles: &Toggles{
			GroupSize:           res.BestGroupSize,
			Prefetch:            Bool(res.BestPrefetch),
			DeferBlockedUpdates: Bool(res.BestDefer),
			WaveInterleave:      Bool(res.BestInterleave),
		},
	})
	if err != nil {
		t.Fatalf("%v: Simulate of the best candidate: %v", mode, err)
	}
	if rep.Throughput != res.BestThroughput {
		t.Errorf("%v %s: Tune reports %v samples/s for its best candidate, Simulate of it gives %v",
			mode, res.Table[0].Candidate, res.BestThroughput, rep.Throughput)
	}
}

// Tune plans the sharded modes the way Simulate does, so both find a
// feasible best, and Simulating it reproduces the reported throughput.
func TestTuneShardedModes(t *testing.T) {
	server := CommodityServer(2).WithGPUMemory(20 << 20)
	for _, mode := range []Mode{TPBaseline, HarmonyTP} {
		checkTuneBestReproduces(t, UniformModel(8, 1_000_000, 16<<10, 5e9), mode, server)
	}
}

// Tune plans the replicated and pipelined modes the way Simulate does too.
// The stash-heavy pipeline's winner interleaves its waves, which Simulate
// runs only if the result says so.
func TestTuneBestReproducesInEveryMode(t *testing.T) {
	server := CommodityServer(2).WithGPUMemory(20 << 20)
	for _, mode := range []Mode{DPBaseline, PPBaseline, HarmonyDP, HarmonyPP} {
		checkTuneBestReproduces(t, UniformModel(8, 1_000_000, 16<<10, 5e9), mode, server)
	}
	checkTuneBestReproduces(t, UniformModel(8, 1_000_000, 1<<20, 5e9), HarmonyPP, server)
}

// On a box where nothing fits, Tune fails and names no best.
func TestTuneNothingFits(t *testing.T) {
	res, err := Tune(TuneConfig{
		Model: UniformModel(8, 1_000_000, 16<<10, 5e9), Mode: HarmonyPP,
		Server: CommodityServer(2).WithGPUMemory(1 << 10), BatchPerReplica: 4,
	})
	if res != nil || err == nil || err.Error() != "tuner: no feasible candidate for uniform on 2 GPUs" {
		t.Errorf("Tune = %+v, %v; want no feasible candidate", res, err)
	}
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

// A Step with the wrong amount of data names the argument that is
// wrong, with its expected and actual length.
func TestStepNamesTheShortArgument(t *testing.T) {
	tr, err := NewTrainer(TrainerConfig{Widths: []int{4, 2}, Devices: 1, DeviceBytes: 1 << 20, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	x, y := NewBlobs(4, 2, 0.5, 1).Batch(8, 0)
	for _, tc := range []struct {
		x    []float32
		y    []int
		want string
	}{
		{x[:28], y, "Step needs 32 inputs (8 samples × 4 features), got 28"},
		{x, y[:7], "Step needs 8 labels (1 replicas × 8 samples), got 7"},
	} {
		if _, err := tr.Step(tc.x, tc.y); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Step(%d inputs, %d labels): got %v, want %q", len(tc.x), len(tc.y), err, tc.want)
		}
	}
	if _, err := tr.Step(x, y); err != nil {
		t.Fatalf("Step with the right lengths: %v", err)
	}
}

// A negative Microbatches is refused by name, not passed on as a
// negative microbatch size the caller never set.
func TestNegativeMicrobatchesRejected(t *testing.T) {
	_, err := NewTrainer(TrainerConfig{Widths: []int{4, 2}, Devices: 1, DeviceBytes: 1 << 20, BatchSize: 8, Microbatches: -8})
	if err == nil || !strings.Contains(err.Error(), "Microbatches -8 is negative") {
		t.Fatalf("got %v, want an error naming Microbatches", err)
	}
}
