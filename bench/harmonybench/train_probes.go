package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"harmony"
	"harmony/internal/exec"
	"harmony/internal/memory"
	"harmony/internal/nn"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// kernelTimes is the nn replay's result.
type kernelTimes struct {
	floorMS   float64 // every kernel of one step, back to back
	fwdGFLOPS float64
	bwdGFLOPS float64
	sgdGBps   float64
	xentUS    float64 // one SoftmaxXent call
}

// replayKernels runs the step's exact kernel sequence — Dense.Forward
// and Backward per layer and microbatch, SoftmaxXent, SGD — on plain
// slices with no VM and no executor, the replicas side by side as the
// device workers would run them: the floor a perfect runtime could
// reach. The kernels skip zero activations, so their time depends on
// the data; the replay therefore trains for real, on the workload's
// own weight init and batch stream.
func replayKernels(c *runCtx, cfg harmony.TrainerConfig) (kernelTimes, error) {
	defer c.spans.begin("probe nn replay")()
	replicas := cfg.Devices
	if cfg.Mode == harmony.HarmonyPP || cfg.Mode == harmony.PPBaseline {
		replicas = 1
	}
	mbCount := cfg.Microbatches
	if mbCount == 0 {
		mbCount = min(cfg.BatchSize, 8)
	}
	mb := cfg.BatchSize / mbCount
	var layers []nn.Dense
	for i := 0; i+1 < len(cfg.Widths); i++ {
		layers = append(layers, nn.Dense{In: cfg.Widths[i], Out: cfg.Widths[i+1], ReLU: i+2 < len(cfg.Widths)})
	}
	L := len(layers)
	inDim, classes := cfg.Widths[0], cfg.Widths[L]

	// Per replica: weights and gradients per layer. Each microbatch
	// runs forward then backward, so one activation, stash and
	// activation-gradient buffer per layer serves them all.
	type replica struct {
		w, dw, stash, grad, act [][]float32
		dy                      []float32
		fwd, bwd, sgd, xent     time.Duration
	}
	reps := make([]*replica, replicas)
	for r := range reps {
		rp := &replica{act: [][]float32{nil}, dy: make([]float32, mb*classes)} // act[0] is the batch
		for l, layer := range layers {
			w := make([]float32, layer.ParamCount())
			nn.InitKernel(layer, w, cfg.Seed+uint64(l)*7919)
			rp.w = append(rp.w, w)
			rp.dw = append(rp.dw, make([]float32, layer.ParamCount()))
			rp.stash = append(rp.stash, make([]float32, mb*layer.In))
			rp.grad = append(rp.grad, make([]float32, mb*layer.In))
			rp.act = append(rp.act, make([]float32, mb*layer.Out))
		}
		reps[r] = rp
	}
	timed := func(acc *time.Duration, fn func()) {
		start := time.Now()
		fn()
		*acc += time.Since(start)
	}
	// step runs one replica's share of a training step.
	step := func(rp *replica, x []float32, y []int) {
		for i := 0; i < mbCount; i++ {
			rp.act[0] = x[i*mb*inDim : (i+1)*mb*inDim]
			for l, layer := range layers {
				timed(&rp.fwd, func() { layer.Forward(rp.w[l], rp.act[l], rp.act[l+1], rp.stash[l], mb) })
			}
			timed(&rp.xent, func() { nn.SoftmaxXent(rp.act[L], y[i*mb:(i+1)*mb], rp.dy, mb, classes) })
			up := rp.dy
			for l := L - 1; l >= 0; l-- {
				var dx []float32
				if l > 0 {
					dx = rp.grad[l]
				}
				timed(&rp.bwd, func() { layers[l].Backward(rp.w[l], rp.stash[l], up, dx, rp.dw[l], mb) })
				up = dx
			}
		}
		for l := range layers {
			timed(&rp.sgd, func() { nn.SGD(rp.w[l], rp.dw[l], cfg.LR) })
		}
	}

	blobs := harmony.NewBlobs(inDim, classes, 1.0, c.seed)
	var stepMS []float64
	warm, steps := c.n(2, 1), c.n(10, 1)
	for s := 0; s < warm+steps; s++ {
		if s == warm {
			for _, rp := range reps {
				rp.fwd, rp.bwd, rp.sgd, rp.xent = 0, 0, 0, 0
			}
		}
		x, y := blobs.Batch(replicas*cfg.BatchSize, uint64(s))
		var wg sync.WaitGroup
		start := time.Now()
		for r, rp := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := cfg.BatchSize
				step(rp, x[r*n*inDim:(r+1)*n*inDim], y[r*n:(r+1)*n])
			}()
		}
		wg.Wait()
		stepMS = append(stepMS, time.Since(start).Seconds()*1e3)
	}

	// Nominal work of the timed steps: a dense layer is 2·In·Out
	// flops per sample forward and twice that backward; SGD reads and
	// writes each weight and its gradient.
	var fwd, bwd, sgd, xent time.Duration
	for _, rp := range reps {
		fwd, bwd, sgd, xent = fwd+rp.fwd, bwd+rp.bwd, sgd+rp.sgd, xent+rp.xent
	}
	var flops, params float64
	for _, layer := range layers {
		flops += 2 * float64(layer.In*layer.Out)
		params += float64(layer.ParamCount())
	}
	samples := float64(steps * replicas * cfg.BatchSize)
	if fwd <= 0 || bwd <= 0 || sgd <= 0 {
		return kernelTimes{}, fmt.Errorf("nn replay measured no time")
	}
	return kernelTimes{
		floorMS:   median(stepMS[warm:]),
		fwdGFLOPS: flops * samples / fwd.Seconds() / 1e9,
		bwdGFLOPS: 2 * flops * samples / bwd.Seconds() / 1e9,
		sgdGBps:   16 * params * float64(steps*replicas) / sgd.Seconds() / 1e9,
		xentUS:    xent.Seconds() * 1e6 / float64(steps*replicas*mbCount),
	}, nil
}

// runTrainProbes runs the micro-probes the workload owns: each sits on
// the workload whose step it can move.
func runTrainProbes(c *runCtx, cfg harmony.TrainerConfig) error {
	if c.on("exec.dispatch_us_per_task") {
		if err := probeDispatch(c, cfg); err != nil {
			return err
		}
	}
	if c.on("exec.vm.ensure_hit_ns") {
		if err := probeEnsureHit(c); err != nil {
			return err
		}
	}
	if c.on("exec.vm.ensure_miss_us") {
		if err := probeEnsureMiss(c); err != nil {
			return err
		}
	}
	if c.on("exec.dma.async_roundtrip_us") {
		if err := probeAsyncRoundTrip(c); err != nil {
			return err
		}
	}
	if c.on("exec.link.sleep_floor_us") {
		defer c.spans.begin("probe sleep floor")()
		// The modeled link is a time.Sleep, and this is what the
		// shortest transfers really cost: a 100 µs sleep returns at the
		// kernel's next timer tick. (A 1 µs sleep does not show it; the
		// scheduler is still spinning when that timer fires.)
		var us []float64
		for i := 0; i < c.n(200, 3); i++ {
			start := time.Now()
			time.Sleep(100 * time.Microsecond)
			us = append(us, time.Since(start).Seconds()*1e6)
		}
		c.emit("exec.link.sleep_floor_us", median(us))
	}
	return nil
}

// probeDispatch trains the workload's plan shape with 8-wide layers:
// the kernels vanish and step time over task count is what the
// executor and the VM charge per task.
func probeDispatch(c *runCtx, cfg harmony.TrainerConfig) error {
	defer c.spans.begin("probe dispatch")()
	narrow := make([]int, len(cfg.Widths))
	for i := range narrow {
		narrow[i] = 8
	}
	cfg.Widths = narrow
	cfg.DeviceBytes = 64 << 20
	s, err := newSession(cfg, c.seed)
	if err != nil {
		return err
	}
	defer s.tr.Close()
	if err := s.steps(warmupSteps + c.n(200, 2)); err != nil {
		return err
	}
	stepMS := median(s.ms[warmupSteps:])
	tl := s.tr.EnableTrace()
	if err := s.step(); err != nil {
		return err
	}
	tasks := 0
	for _, e := range tl.Events {
		if e.Lane == trace.Compute || e.Lane == trace.Comms {
			tasks++
		}
	}
	if tasks == 0 {
		return fmt.Errorf("dispatch probe traced no task")
	}
	c.emit("exec.dispatch_us_per_task", stepMS*1e3/float64(tasks))
	return nil
}

const probePage = 64 << 10 // bytes per tensor in the VM probes

// probeVM builds a VM with `pages` tensors of 64 KiB per device and
// room for `resident` of them.
func probeVM(devices, pages, resident int) (*exec.VM, [][]*tensor.Tensor) {
	reg := tensor.NewRegistry()
	vm := exec.NewVM(devices, int64(resident)*probePage, memory.Policy{DirtyTracking: true})
	sets := make([][]*tensor.Tensor, devices)
	for d := range sets {
		for i := 0; i < pages; i++ {
			t := reg.New(fmt.Sprintf("d%dt%d", d, i), tensor.Activation, probePage, i, d)
			vm.HostAlloc(t)
			sets[d] = append(sets[d], t)
		}
	}
	return vm, sets
}

// touch pins and unpins set[i mod len] n times on dev.
func touch(vm *exec.VM, dev int, set []*tensor.Tensor, n int) error {
	for i := 0; i < n; i++ {
		t := set[i%len(set)]
		if _, err := vm.Ensure(dev, t); err != nil {
			return err
		}
		if err := vm.Unpin(t); err != nil {
			return err
		}
	}
	return nil
}

// probeEnsureHit times the Ensure/Unpin pair on resident pages: alone
// on one device, and with a second device's worker doing the same.
func probeEnsureHit(c *runCtx) error {
	defer c.spans.begin("probe vm ensure hit")()
	const pages = 16
	ops := c.n(400_000, 100)
	for _, devices := range []int{1, 2} {
		vm, sets := probeVM(devices, pages, pages)
		for d, set := range sets {
			if err := touch(vm, d, set, pages); err != nil {
				return err
			}
		}
		errs := make([]error, devices)
		var wg sync.WaitGroup
		start := time.Now()
		for d := range sets {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				errs[d] = touch(vm, d, sets[d], ops)
			}(d)
		}
		wg.Wait()
		ns := float64(time.Since(start).Nanoseconds()) / float64(ops)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		name := "exec.vm.ensure_hit_ns"
		if devices == 2 {
			name += "_2dev"
		}
		c.emit(name, ns)
	}
	return nil
}

// probeEnsureMiss cycles through twice as many pages as fit, so every
// Ensure evicts a clean page and copies one in.
func probeEnsureMiss(c *runCtx) error {
	defer c.spans.begin("probe vm ensure miss")()
	const pages = 16
	vm, sets := probeVM(1, pages, pages/2)
	if err := touch(vm, 0, sets[0], pages); err != nil {
		return err
	}
	ops := c.n(20_000, 32)
	start := time.Now()
	if err := touch(vm, 0, sets[0], ops); err != nil {
		return err
	}
	c.emit("exec.vm.ensure_miss_us", time.Since(start).Seconds()*1e6/float64(ops))
	return nil
}

// probeAsyncRoundTrip times a prefetch from EnsureAsync to WaitIdle:
// claim, queue hand-off, the DMA worker's copy, commit and wake-up.
func probeAsyncRoundTrip(c *runCtx) error {
	defer c.spans.begin("probe dma round trip")()
	vm, sets := probeVM(1, 1, 2)
	vm.StartEngine(0)
	defer vm.Close()
	t := sets[0][0]
	var us []float64
	for i := 0; i < c.n(5000, 3); i++ {
		start := time.Now()
		vm.EnsureAsync(0, t)
		if err := vm.WaitIdle(); err != nil {
			return err
		}
		us = append(us, time.Since(start).Seconds()*1e6)
		// A demand hit retires the prefetch from the async budget;
		// dropping the copy makes the next round a real transfer.
		if err := touch(vm, 0, sets[0], 1); err != nil {
			return err
		}
		if err := vm.Invalidate(t); err != nil {
			return err
		}
	}
	if st := vm.StatsSnapshot(); st.PrefetchIssued != len(us) {
		return fmt.Errorf("round-trip probe issued %d prefetches in %d rounds", st.PrefetchIssued, len(us))
	}
	c.emit("exec.dma.async_roundtrip_us", median(us))
	return nil
}

// probeCheckpoint times what a user's step loop stalls for per
// checkpoint.
func probeCheckpoint(c *runCtx, tr *harmony.Trainer) error {
	defer c.spans.begin("probe checkpoint")()
	var save, load []float64
	for i := 0; i < c.n(3, 1); i++ {
		var buf bytes.Buffer
		start := time.Now()
		if err := tr.Save(&buf); err != nil {
			return err
		}
		save = append(save, time.Since(start).Seconds()*1e3)
		start = time.Now()
		if err := tr.Load(&buf); err != nil {
			return err
		}
		load = append(load, time.Since(start).Seconds()*1e3)
	}
	c.emit("exec.checkpoint.save_ms", median(save))
	c.emit("exec.checkpoint.load_ms", median(load))
	return nil
}
