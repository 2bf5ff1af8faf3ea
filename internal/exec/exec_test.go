package exec

import (
	"strings"
	"testing"

	"harmony/internal/data"
	"harmony/internal/memory"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// ------------------------------------------------------------------ VM

func vmTensors(t *testing.T) (*tensor.Registry, *tensor.Tensor, *tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	reg := tensor.NewRegistry()
	a := reg.Add(tensor.Weight, 400, 0, -1)
	b := reg.Add(tensor.Weight, 400, 1, -1)
	c := reg.Add(tensor.Weight, 400, 2, -1)
	return reg, a, b, c
}

// readBack reads ts's current contents out of vm (VM.Read).
func readBack(t *testing.T, vm *VM, ts *tensor.Tensor) []float32 {
	t.Helper()
	dst := make([]float32, ts.Bytes/4)
	if err := vm.Read(ts, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestVMSwapRoundTripPreservesData(t *testing.T) {
	_, a, b, _ := vmTensors(t)
	vm := NewVM(1, 500, memory.Policy{})
	host := vm.HostAlloc(a)
	for i := range host {
		host[i] = float32(i)
	}
	dev, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	dev[0] = 42 // mutate on device
	if err := vm.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	// Force eviction by bringing in b.
	vm.HostAlloc(b)
	if _, err := vm.Ensure(0, b); err != nil {
		t.Fatal(err)
	}
	if vm.Used(0) != 400 {
		t.Fatalf("used = %d, want only b resident", vm.Used(0))
	}
	// The dirty mutation must have been written back.
	back := readBack(t, vm, a)
	if back[0] != 42 || back[1] != 1 {
		t.Fatalf("writeback lost data: %v", back[:4])
	}
	if s := vm.StatsSnapshot(); s.SwapOuts != 1 || s.SwapIns != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestVMDirtyTrackingDropsClean(t *testing.T) {
	_, a, b, _ := vmTensors(t)
	vm := NewVM(1, 500, memory.Policy{DirtyTracking: true})
	vm.HostAlloc(a)
	vm.HostAlloc(b)
	if _, err := vm.Ensure(0, a); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Ensure(0, b); err != nil {
		t.Fatal(err)
	}
	if s := vm.StatsSnapshot(); s.SwapOuts != 0 || s.Drops != 1 {
		t.Fatalf("clean eviction should drop: %+v", s)
	}
}

func TestVMPinnedNeverEvicted(t *testing.T) {
	_, a, b, _ := vmTensors(t)
	vm := NewVM(1, 500, memory.Policy{})
	vm.HostAlloc(a)
	vm.HostAlloc(b)
	if _, err := vm.Ensure(0, a); err != nil {
		t.Fatal(err)
	}
	// a stays pinned: b cannot fit.
	if _, err := vm.Ensure(0, b); err == nil {
		t.Fatal("expected failure: everything pinned")
	}
}

func TestVMCapacityRespected(t *testing.T) {
	reg := tensor.NewRegistry()
	big := reg.Add(tensor.Weight, 1000, 0, -1)
	vm := NewVM(1, 500, memory.Policy{})
	vm.HostAlloc(big)
	if _, err := vm.Ensure(0, big); err == nil {
		t.Fatal("oversized tensor accepted")
	}
}

func TestVMP2PMove(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	vm := NewVM(2, 500, memory.Policy{P2P: true, DirtyTracking: true})
	vm.HostAlloc(a)
	dev0, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	dev0[7] = 3.5
	if err := vm.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	dev1, err := vm.Ensure(1, a)
	if err != nil {
		t.Fatal(err)
	}
	if dev1[7] != 3.5 {
		t.Fatal("p2p move lost data")
	}
	if s := vm.StatsSnapshot(); s.P2PMoves != 1 || vm.Used(0) != 0 || vm.Used(1) != 400 {
		t.Fatalf("p2p accounting: %+v used=%d/%d", s, vm.Used(0), vm.Used(1))
	}
}

// TestVMCleanBounceIsAnEviction: with p2p off a page changes devices by
// leaving its own device the way eviction would take it. A clean page
// with host backing is then dropped under dirty tracking — nothing
// crosses the link on its way out — and written back under the naive
// policy, which writes back everything. Either way it arrives intact.
func TestVMCleanBounceIsAnEviction(t *testing.T) {
	for _, tc := range []struct {
		name                string
		pol                 memory.Policy
		outBytes, wantDrops int
	}{
		{"tracking", memory.Policy{DirtyTracking: true}, 0, 1},
		{"naive", memory.Policy{}, 400, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a, _, _ := vmTensors(t)
			vm := NewVM(2, 500, tc.pol)
			host := vm.HostAlloc(a)
			for i := range host {
				host[i] = float32(i)
			}
			if _, err := vm.Ensure(0, a); err != nil {
				t.Fatal(err)
			}
			if err := vm.Unpin(a); err != nil {
				t.Fatal(err)
			}
			dev1, err := vm.Ensure(1, a)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range dev1 {
				if v != float32(i) {
					t.Fatalf("element %d arrived as %v", i, v)
				}
			}
			s := vm.StatsSnapshot()
			if s.SwapOutBytes != int64(tc.outBytes) || s.Drops != tc.wantDrops || s.SwapIns != 2 || s.P2PMoves != 0 {
				t.Fatalf("stats = %+v, want %d bytes written back and %d drops", s, tc.outBytes, tc.wantDrops)
			}
			if vm.Used(0) != 0 || vm.Used(1) != 400 {
				t.Fatalf("used = %d/%d, want the page on gpu1 alone", vm.Used(0), vm.Used(1))
			}
		})
	}
}

func TestVMAllocRejectsDouble(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	vm := NewVM(1, 500, memory.Policy{})
	if _, err := vm.Alloc(0, a); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Alloc(0, a); err == nil {
		t.Fatal("double alloc accepted")
	}
}

// ------------------------------------------------------------- Trainer

func trainerConfig(mode sched.Mode, devices int) TrainerConfig {
	return TrainerConfig{
		Widths:       []int{16, 32, 32, 4},
		Mode:         mode,
		Devices:      devices,
		DeviceBytes:  12 << 10, // well below the ~45 KB footprint
		BatchSize:    32,
		Microbatches: 4,
		LR:           0.05,
		Seed:         42,
	}
}

func TestTrainingReducesLossUnderMemoryPressure(t *testing.T) {
	for _, mode := range []sched.Mode{sched.DPBaseline, sched.HarmonyDP} {
		t.Run(mode.String(), func(t *testing.T) {
			tr, losses := runTrainer(t, trainerConfig(mode, 2), 30)
			first, last := losses[0], losses[len(losses)-1]
			if last >= first/2 {
				t.Fatalf("loss did not fall: %v -> %v", first, last)
			}
			// The device memory is far below the footprint, so the
			// coherent virtual memory must actually have swapped.
			if tr.Stats().SwapIns == 0 {
				t.Fatal("training never swapped despite tiny devices")
			}
		})
	}
}

func TestPipelineTrainingWorks(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyPP, 2)
	cfg.Microbatches = 4
	tr, losses := runTrainer(t, cfg, 30)
	if losses[len(losses)-1] >= losses[0]/2 {
		t.Fatalf("pipeline loss did not fall: %v -> %v", losses[0], losses[len(losses)-1])
	}
	if tr.Stats().P2PBytes == 0 {
		t.Fatal("harmony-pp should move activations p2p")
	}
}

// The strongest correctness check: Harmony-PP under heavy swapping
// must produce bit-identical weights to a plain reference
// implementation with unlimited memory, because the coherent virtual
// memory must never lose or reorder data.
func TestHarmonyMatchesReferenceBitExact(t *testing.T) {
	widths := []int{8, 16, 3}
	mbSize, mbs := 4, 4
	lr := float32(0.1)
	blobs := data.NewBlobs(8, 3, 0.5, 11)

	// Reference: plain grad-accumulation training, no memory limits.
	layers := []nn.Dense{
		{In: 8, Out: 16, ReLU: true},
		{In: 16, Out: 3},
	}
	params := make([][]float32, 2)
	grads := make([][]float32, 2)
	for l, layer := range layers {
		params[l] = make([]float32, layer.ParamCount())
		nn.XavierInit(layer, params[l], 42+uint64(l)*7919)
		grads[l] = make([]float32, layer.ParamCount())
	}
	for s := 0; s < 5; s++ {
		x, y := blobs.Batch(mbs*mbSize, uint64(s))
		for i := 0; i < mbs; i++ {
			h := make([]float32, mbSize*16)
			s1 := make([]float32, mbSize*8)
			layers[0].Forward(params[0], x[i*mbSize*8:(i+1)*mbSize*8], h, s1, mbSize)
			logits := make([]float32, mbSize*3)
			s2 := make([]float32, mbSize*16)
			layers[1].Forward(params[1], h, logits, s2, mbSize)
			dl := make([]float32, mbSize*3)
			nn.SoftmaxXent(logits, y[i*mbSize:(i+1)*mbSize], dl, mbSize, 3)
			dh := make([]float32, mbSize*16)
			layers[1].Backward(params[1], s2, dl, dh, grads[1], mbSize)
			layers[0].Backward(params[0], s1, dh, nil, grads[0], mbSize)
		}
		nn.SGD(params[0], grads[0], lr)
		nn.SGD(params[1], grads[1], lr)
	}

	// Harmony-PP on two tiny devices.
	cfg := TrainerConfig{
		Widths: widths, Mode: sched.HarmonyPP, Devices: 2,
		DeviceBytes: 4 << 10, BatchSize: mbs * mbSize, Microbatches: mbs,
		LR: lr, Seed: 42,
	}
	tr, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		x, y := blobs.Batch(tr.SamplesPerStep(), uint64(s))
		if _, err := tr.Step(x, y); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().SwapIns == 0 {
		t.Fatal("expected swapping at 4 KB devices")
	}
	for l := range layers {
		got := readBack(t, tr.vm, tr.g.W[0][l])
		for i := range params[l] {
			if got[i] != params[l][i] {
				t.Fatalf("layer %d weight %d: harmony %v vs reference %v", l, i, got[i], params[l][i])
			}
		}
	}
}

func TestDPReplicasStayInSync(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 2)
	tr, _ := runTrainer(t, cfg, 3)
	for l := range tr.layers {
		w0 := readBack(t, tr.vm, tr.g.W[0][l])
		w1 := readBack(t, tr.vm, tr.g.W[1][l])
		for i := range w0 {
			if w0[i] != w1[i] {
				t.Fatalf("replicas diverged at layer %d index %d: %v vs %v", l, i, w0[i], w1[i])
			}
		}
	}
}

func TestAdamTraining(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 1)
	cfg.Adam = true
	// Adam triples the update working set (W + dW + 2 moments); give
	// the device just enough for one layer's update while keeping the
	// total footprint (~28 KB) above capacity.
	cfg.DeviceBytes = 20 << 10
	cfg.LR = 0.005
	_, losses := runTrainer(t, cfg, 30)
	if losses[len(losses)-1] >= losses[0]/2 {
		t.Fatalf("adam loss did not fall: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestPredict(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 1)
	tr, _ := runTrainer(t, cfg, 40)
	blobs := data.NewBlobs(16, 4, 0.5, 7)
	x, y := blobs.Batch(64, 9999)
	logits, err := tr.Predict(x, 64)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 64; i++ {
		if nn.Argmax(logits, i, 4) == y[i] {
			correct++
		}
	}
	if correct < 48 { // 75% on an easy separable task
		t.Fatalf("accuracy %d/64 too low after training", correct)
	}
}

func TestTrainerValidation(t *testing.T) {
	bad := trainerConfig(sched.HarmonyDP, 2)
	bad.Widths = []int{5}
	if _, err := NewTrainer(bad, nil); err == nil {
		t.Fatal("single-width accepted")
	}
	bad = trainerConfig(sched.HarmonyDP, 0)
	if _, err := NewTrainer(bad, nil); err == nil {
		t.Fatal("zero devices accepted")
	}
	bad = trainerConfig(sched.HarmonyDP, 2)
	bad.LR = -0.05 // 0 is the default
	if _, err := NewTrainer(bad, nil); err == nil {
		t.Fatal("negative LR accepted")
	}
	bad = trainerConfig(sched.HarmonyDP, 2)
	bad.LinkBytesPerSec = -1
	if _, err := NewTrainer(bad, nil); err == nil {
		t.Fatal("negative link bandwidth accepted")
	}
	// No device memory is refused by name, not found by the preflight as
	// a capacity counterexample or by the VM as a bad shape.
	for _, noVerify := range []bool{false, true} {
		bad = trainerConfig(sched.HarmonyDP, 2)
		bad.DeviceBytes, bad.NoVerify = 0, noVerify
		if _, err := NewTrainer(bad, nil); err == nil || !strings.Contains(err.Error(), "DeviceBytes") {
			t.Fatalf("NoVerify %v: zero device bytes: %v, want an error naming DeviceBytes", noVerify, err)
		}
	}
	// Wrong data shapes.
	tr, err := NewTrainer(trainerConfig(sched.HarmonyDP, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(nil, nil); err == nil {
		t.Fatal("nil data accepted")
	}

	// Kernel stacks nn.Kernel's backward contract cannot train — a
	// kernel past the first that reads an unrectified input, a last
	// kernel that rectifies — are refused, naming the kernel; every
	// Widths MLP (ReLU on all but the last) and the LeNet shape are not.
	for _, widths := range [][]int{{16, 4}, {16, 32, 4}, {16, 32, 32, 4}, {16, 8, 8, 8, 8, 4}} {
		cfg := trainerConfig(sched.HarmonyDP, 2)
		cfg.Widths = widths
		if _, err := NewTrainer(cfg, nil); err != nil {
			t.Errorf("widths %v: %v", widths, err)
		}
	}
	conv := nn.Conv2D{Cin: 1, H: 12, W: 12, Cout: 6, K: 3, ReLU: true}
	linearConv := nn.Conv2D{Cin: 1, H: 12, W: 12, Cout: 6, K: 3}
	pool := nn.MaxPool2D{C: 6, H: 10, W: 10, P: 2}
	for _, tc := range []struct {
		name    string
		kernels []nn.Kernel
		want    string // "" = accepted
	}{
		{"lenet", lenetKernels(), ""},
		{"pool head", []nn.Kernel{conv, pool}, ""},
		{"lone linear kernel", []nn.Kernel{nn.Dense{In: 16, Out: 4}}, ""},
		{"rectifying head", []nn.Kernel{nn.Dense{In: 16, Out: 32, ReLU: true}, nn.Dense{In: 32, Out: 4, ReLU: true}},
			"kernel 1 (dense32x4) is the last and applies ReLU"},
		{"lone rectifying kernel", []nn.Kernel{nn.Dense{In: 16, Out: 4, ReLU: true}},
			"kernel 0 (dense16x4) is the last and applies ReLU"},
		{"rectifying conv head", []nn.Kernel{conv}, "kernel 0 (conv1x12x12-6f) is the last"},
		{"linear hidden layer", []nn.Kernel{nn.Dense{In: 16, Out: 32}, nn.Dense{In: 32, Out: 4}},
			"kernel 1 (dense32x4) reads the unrectified output of kernel 0 (dense16x32)"},
		{"pool over a linear conv", []nn.Kernel{linearConv, pool, nn.Dense{In: 150, Out: 4}},
			"kernel 1 (pool2@6x10x10) reads the unrectified output of kernel 0"},
		{"dense over a pool of the input", []nn.Kernel{nn.MaxPool2D{C: 1, H: 12, W: 12, P: 2}, nn.Dense{In: 36, Out: 4}},
			"kernel 1 (dense36x4) reads the unrectified output of kernel 0 (pool2@1x12x12)"},
	} {
		cfg := trainerConfig(sched.HarmonyDP, 1)
		cfg.DeviceBytes = 1 << 20
		_, err := NewTrainer(cfg, tc.kernels)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}

// lenetKernels is NewLeNetTrainer's stack at a test's scale: two
// conv → pool stages and three Dense layers, on 1×16×16 inputs.
func lenetKernels() []nn.Kernel {
	return []nn.Kernel{
		nn.Conv2D{Cin: 1, H: 16, W: 16, Cout: 6, K: 5, ReLU: true},
		nn.MaxPool2D{C: 6, H: 12, W: 12, P: 2},
		nn.Conv2D{Cin: 6, H: 6, W: 6, Cout: 16, K: 3, ReLU: true},
		nn.MaxPool2D{C: 16, H: 4, W: 4, P: 2},
		nn.Dense{In: 16 * 2 * 2, Out: 32, ReLU: true},
		nn.Dense{In: 32, Out: 16, ReLU: true},
		nn.Dense{In: 16, Out: 4},
	}
}

// TestConvNetTraining trains a LeNet-style convolutional network
// through the coherent virtual memory — the paper's image
// classification motivation (Fig. 1 starts at LeNet).
func TestConvNetTraining(t *testing.T) {
	// 1×12×12 inputs → conv(6f,3x3)+relu → pool2 → dense → 4 classes.
	kernels := []nn.Kernel{
		nn.Conv2D{Cin: 1, H: 12, W: 12, Cout: 6, K: 3, ReLU: true},
		nn.MaxPool2D{C: 6, H: 10, W: 10, P: 2},
		nn.Dense{In: 6 * 5 * 5, Out: 32, ReLU: true},
		nn.Dense{In: 32, Out: 4},
	}
	tr, err := NewTrainer(TrainerConfig{
		Mode:         sched.HarmonyPP,
		Devices:      2,
		DeviceBytes:  64 << 10, // small enough to force swapping
		BatchSize:    16,
		Microbatches: 2,
		LR:           0.05,
		Seed:         3,
	}, kernels)
	if err != nil {
		t.Fatal(err)
	}
	blobs := data.NewBlobs(144, 4, 1.0, 5)
	var first, last float32
	for s := 0; s < 25; s++ {
		x, y := blobs.Batch(tr.SamplesPerStep(), uint64(s))
		loss, err := tr.Step(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("conv training did not reduce loss: %v -> %v", first, last)
	}
	if tr.Stats().SwapIns == 0 {
		t.Fatal("conv training should have swapped on 24 KB devices")
	}
	// Inference works through the same kernel stack.
	x, _ := blobs.Batch(4, 777)
	logits, err := tr.Predict(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 4*4 {
		t.Fatalf("logits = %d", len(logits))
	}
}

func TestKernelMismatchRejected(t *testing.T) {
	_, err := NewTrainer(TrainerConfig{
		Devices: 1, DeviceBytes: 1 << 20, BatchSize: 1, LR: 0.1,
	}, []nn.Kernel{
		nn.Dense{In: 8, Out: 16},
		nn.Dense{In: 4, Out: 2}, // mismatched
	})
	if err == nil {
		t.Fatal("mismatched kernel chain accepted")
	}
}

// Checkpoint round trip: save mid-training, keep training, restore,
// retrain — the two continuations must be bit-identical (SGD is
// deterministic) and a fresh trainer must accept the checkpoint.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 2)
	cfg.Adam = true
	cfg.DeviceBytes = 20 << 10
	cfg.LR = 0.005
	step := func(tr *Trainer, s int) float32 { return stepTrainer(t, tr, s, 1)[0] }
	a, _ := runTrainer(t, cfg, 5)
	var buf strings.Builder
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Continue the original.
	wantLoss := step(a, 5)

	// Restore into a fresh trainer with a different seed: the
	// checkpoint must fully determine the state.
	cfg2 := cfg
	cfg2.Seed = 999
	b, err := NewTrainer(cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if b.step != 5 {
		t.Fatalf("restored step = %d, want 5", b.step)
	}
	gotLoss := step(b, 5)
	if gotLoss != wantLoss {
		t.Fatalf("post-restore loss %v != original %v", gotLoss, wantLoss)
	}
	for l := range a.layers {
		wa := readBack(t, a.vm, a.g.W[0][l])
		wb := readBack(t, b.vm, b.g.W[0][l])
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("layer %d weight %d diverged after restore", l, i)
			}
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	a, err := NewTrainer(trainerConfig(sched.HarmonyDP, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Different architecture.
	other := trainerConfig(sched.HarmonyDP, 1)
	other.Widths = []int{16, 8, 4}
	b, err := NewTrainer(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(strings.NewReader(buf.String())); err == nil {
		t.Fatal("mismatched architecture accepted")
	}
	// Garbage input.
	if err := b.Load(strings.NewReader("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPipelineBaselineTraining(t *testing.T) {
	// The naive 1F1B baseline also trains correctly (it just moves
	// more data): correctness is schedule-independent.
	cfg := trainerConfig(sched.PPBaseline, 2)
	tr, losses := runTrainer(t, cfg, 25)
	if losses[len(losses)-1] >= losses[0]/2 {
		t.Fatalf("pp-baseline loss did not fall: %v -> %v", losses[0], losses[len(losses)-1])
	}
	// Baseline bounces cross-stage tensors through the host: p2p off.
	if tr.Stats().P2PMoves != 0 {
		t.Fatal("baseline must not use p2p")
	}
}

func TestBaselineAndHarmonySameWeights(t *testing.T) {
	// The memory policy must never change the math: baseline DP and
	// Harmony-DP on identical data produce identical weights.
	run := func(mode sched.Mode) *Trainer {
		tr, _ := runTrainer(t, trainerConfig(mode, 1), 4)
		return tr
	}
	a := run(sched.DPBaseline)
	b := run(sched.HarmonyDP)
	for l := range a.layers {
		wa := readBack(t, a.vm, a.g.W[0][l])
		wb := readBack(t, b.vm, b.g.W[0][l])
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("layer %d weight %d: baseline %v vs harmony %v", l, i, wa[i], wb[i])
			}
		}
	}
	// But their data movement differs: that's the whole point.
	if a.Stats().SwapOutBytes <= b.Stats().SwapOutBytes {
		t.Fatalf("baseline should move more data: %d vs %d",
			a.Stats().SwapOutBytes, b.Stats().SwapOutBytes)
	}
}

func TestVMInvalidate(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	vm := NewVM(1, 500, memory.Policy{DirtyTracking: true})
	host := vm.HostAlloc(a)
	host[0] = 1
	dev, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	dev[0] = 42
	if err := vm.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	// Pinned: must refuse.
	if err := vm.Invalidate(a); err == nil {
		t.Fatal("invalidate of pinned tensor accepted")
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	// Overwrite host, then invalidate: host wins.
	host[0] = 7
	if err := vm.Invalidate(a); err != nil {
		t.Fatal(err)
	}
	got, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("stale device copy survived: %v", got[0])
	}
	if vm.StatsSnapshot().SwapOuts != 0 {
		t.Fatal("invalidate must not write back")
	}
}
