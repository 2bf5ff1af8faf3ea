package exec

import (
	"fmt"
	"slices"
	"sync"

	"harmony/internal/fault"
	"harmony/internal/graph"
	"harmony/internal/models"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// TrainerConfig configures real (float32) training of a classifier on
// capacity-limited virtual devices — the end-to-end demonstration of
// Harmony's coherent virtual memory. Users write against one logical
// model "as if running sequentially on a single device" (paper §3);
// Harmony decomposes, schedules and swaps.
type TrainerConfig struct {
	// Widths is the MLP shape: input dimension, hidden layers...,
	// number of classes. Ignored when NewTrainer is given a kernel
	// stack.
	Widths []int
	// Mode and Devices select the parallel strategy, from the same
	// scheduler as the simulator. The op-sharded modes (TPBaseline,
	// HarmonyTP) run in the simulator only.
	Mode    sched.Mode
	Devices int
	// DeviceBytes is each virtual device's memory capacity. Set it
	// below the model footprint (see Trainer.FootprintBytes) to
	// exercise virtualized training.
	DeviceBytes int64
	// BatchSize is the per-replica samples per iteration; Harmony
	// splits it into Microbatches microbatches (default: one sample
	// per microbatch up to 8 microbatches). Pipeline modes train one
	// replica, whose microbatches are the whole stream.
	BatchSize    int
	Microbatches int
	// Adam selects the Adam optimizer, whose two moment buffers per
	// parameter are the optimizer state K of the paper's swap model
	// (SGD otherwise); LR is the learning rate (default 0.05 SGD,
	// 0.005 Adam).
	Adam bool
	LR   float32
	Seed uint64
	// Toggles override the mode's default optimizations.
	// LookaheadEviction and DeferBlockedUpdates act in the simulator
	// only: NewTrainer rejects a Toggles that sets either.
	Toggles *sched.Toggles
	// Serial forces the single-threaded reference executor instead of
	// the default parallel device-worker executor. It runs the same
	// woven streams in the one order schedcheck's liveness proof walks
	// (sched.Streams.Replay). Both produce bit-identical weights and
	// losses; Serial exists for determinism tests and ablation
	// benchmarks.
	Serial bool
	// FaultSpec, when non-empty, arms deterministic fault injection
	// seeded by Seed (internal/fault holds the grammar). A spec is
	// ";"-separated rules of ","-separated key=value fields: op
	// (kernel, swap-in, swap-out, p2p, collective, any), mode
	// (transient, fatal, delay), dev, step, layer, count, prob, delay.
	// Example: "step=3,dev=1,op=kernel,mode=fatal;op=swap-in,count=2".
	// Transient faults are retried with backoff; delay faults perturb
	// timing only; fatal faults kill the device worker.
	FaultSpec string
	// MaxRetries bounds retries per faulted operation (0 = default 3,
	// negative disables).
	MaxRetries int
	// Recover enables rollback-and-resume after fatal device faults:
	// the trainer retires the device, re-binds its stream to a
	// surviving device, rechecks pin budgets, rolls weights and
	// optimizer state back to the start of the step (an in-memory copy
	// of what Save writes, read without moving a page) and re-runs the
	// step. Recovery only remaps where tensors live, so recovered runs
	// stay bit-identical to fault-free ones, and a run that never faults
	// moves and holds exactly what it would without Recover.
	Recover bool
	// PrefetchDepth controls schedule-driven prefetch in the parallel
	// executor: before each kernel launches, its device worker issues
	// async swap-ins for the inputs of the next PrefetchDepth compute
	// tasks in its stream, overlapped with the kernel by per-device
	// DMA worker goroutines. 0 uses the mode's default (2 for Harmony
	// modes, off for baselines); negative disables. The serial
	// reference path never prefetches. Prefetch changes only data movement, never
	// math — weights stay bit-identical at every depth.
	PrefetchDepth int
	// AdaptivePrefetch is accepted and read by nothing: the static
	// PrefetchDepth window is the only prefetch policy (DESIGN.md §13).
	//
	// Deprecated: no effect; removed by the next benchmark PR.
	AdaptivePrefetch bool
	// LinkBytesPerSec is the bandwidth of every modeled link: one per
	// device plus the one host uplink they share, the paper's Fig. 1
	// server (link.go). A swap reserves bytes/LinkBytesPerSec on its
	// device's link and on the uplink — so devices swapping at once
	// share the uplink instead of each getting all of it (Fig. 2(a)) —
	// a p2p copy on the two devices' links, a gradient chunk on its
	// reducer's and a monolithic reduction on replica 0's. Reservations
	// on a link never overlap; a copy's lane waits for its own to end
	// and a reduction's is waited for by the updates that read it, in
	// sleeps of at least 2 ms, a smaller remainder carried forward as
	// debt: modeled time is batched, never forgiven. 0 disables modeling (transfers cost only
	// memcpy time); negative is rejected. Trainer.LinkStats shows which
	// link bounds a plan.
	LinkBytesPerSec int64
	// NoVerify skips the static preflight verification of the
	// execution plan (internal/schedcheck): happens-before liveness,
	// peak-residency fit and swap-volume agreement with the analytic
	// model. Verification is on by default; a rejected plan fails
	// NewTrainer with a counterexample trace.
	NoVerify bool
	// CommChunks splits each gradient AllReduce into that many
	// plan-time chunk rendezvous, each reduced by a deterministically
	// assigned device worker (k mod N), so reduction overlaps backward
	// compute instead of parking every worker at one rendezvous. 0
	// keeps the monolithic rendezvous. Chunk boundaries, reducers and
	// the per-element summation order are pure functions of the plan:
	// results stay bit-identical to the monolithic path at every
	// setting.
	CommChunks int
	// CommBucketBytes coalesces small per-layer gradients into
	// byte-budgeted buckets (DDP-style, packed in reverse layer order)
	// that share one rendezvous; each bucket is then chunked per
	// CommChunks (implied to 1 if unset). 0 keeps one bucket per
	// layer. Bucketing regroups JIT weight updates after the bucket's
	// deepest backward — queue order changes, math does not.
	CommBucketBytes int64
}

// Trainer trains a real model through Harmony's runtime.
type Trainer struct {
	cfg     TrainerConfig // defaults resolved
	layers  []nn.Kernel
	inDim   int
	classes int
	g       *graph.Graph
	s       *sched.Schedule
	vm      *VM
	inj     *fault.Injector
	step    int
	// clk is the clock every VM the trainer builds reads and sleeps on
	// (in-package tests put a trace.ManualClock here).
	clk trace.Clock

	// streams is the plan with its rendezvous woven in (sched.Weave):
	// what the device workers drain, proven by adopt before it is
	// installed.
	streams *sched.Streams

	// comm is the chunked-collective runtime plan (nil = monolithic);
	// commStats counts chunk reductions, guarded by commMu because
	// chunks retire concurrently on different device workers.
	comm      *commPlan
	commMu    sync.Mutex
	commStats CommStats
	// tasks is the executors' per-task step state (executor.go).
	tasks taskState
	// views is reduce's scratch for two views per replica, its gradient
	// and its weights; runViews is runRun's for every member of the
	// longest run, and runBufs its three kernel operands laid end to end
	// (joined), each as long as the plan's largest: slot d for device
	// worker d, which runs one reduction or one run at a time.
	views    [][][]float32
	runViews [][]memberViews
	runBufs  [][3][]float32

	// inputs holds the running step's input batch: its microbatches'
	// host backing (VM.HostBind), reused by every step.
	inputs []float32

	// pf, when non-nil, is the schedule-driven prefetcher the device
	// workers call before each kernel; rec, when non-nil, records
	// wall-clock compute/DMA spans (EnableTrace).
	pf  *prefetcher
	rec *runRecorder

	// Recovery state. Virtual devices are schedule constructs; devMap
	// binds virtual device d to the physical device devMap[d] whose
	// memory it uses. Initially the identity map; when a physical
	// device dies (alive[p]=false) every virtual device bound to it is
	// re-bound to a survivor. Kernels are placement-independent and
	// collectives reduce in fixed order, so remapping never changes
	// the math — only where tensors live.
	devMap     []int
	alive      []bool
	snap       state     // the running step's starting state, with Recover
	statsBase  VMStats   // counters from VMs discarded by recovery
	linkBase   LinkStats // their links' busy time
	recoveries int
}

// NewTrainer validates the configuration, resolves its defaults and
// builds the model, task graph, schedule and virtual memory, with
// weights initialized identically across replicas: each weight is born
// on the device that reads it, each layer's initializer runs once, and
// its other replicas are copies of that first-born page. kernels, when
// non-empty, is an explicit layer stack (dense, conv, pool — anything
// implementing nn.Kernel) whose first InSize is the input dimension
// and whose last OutSize is the class count; every kernel past the
// first must read a rectified input and the last must not apply ReLU
// (nn.Kernel's backward precondition). An empty stack means the MLP of
// cfg.Widths.
func NewTrainer(cfg TrainerConfig, kernels []nn.Kernel) (*Trainer, error) {
	if cfg.Mode.IsSharded() {
		// The executor reduces gradients; it has no all-gather for the
		// op-sharded graph's partial outputs.
		return nil, fmt.Errorf("exec: %v runs in the simulator only", cfg.Mode)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("exec: BatchSize must be positive")
	}
	if cfg.Microbatches < 0 {
		return nil, fmt.Errorf("exec: Microbatches %d is negative (0 = one sample per microbatch, up to 8)", cfg.Microbatches)
	}
	if cfg.Microbatches == 0 {
		cfg.Microbatches = min(cfg.BatchSize, 8)
	}
	if cfg.BatchSize%cfg.Microbatches != 0 {
		return nil, fmt.Errorf("exec: BatchSize %d not divisible into %d microbatches", cfg.BatchSize, cfg.Microbatches)
	}
	switch {
	case cfg.LR < 0:
		return nil, fmt.Errorf("exec: LR %v is negative (0 = 0.05 SGD, 0.005 Adam)", cfg.LR)
	case cfg.LR == 0 && cfg.Adam:
		cfg.LR = 0.005
	case cfg.LR == 0:
		cfg.LR = 0.05
	}
	if tg := cfg.Toggles; tg != nil {
		// The VM evicts by LRU and no device worker runs past a blocked
		// update: refuse what would be accepted to no effect.
		if tg.LookaheadEviction != nil {
			return nil, fmt.Errorf("exec: TrainerConfig.Toggles.LookaheadEviction acts in the simulator only")
		}
		if tg.DeferBlockedUpdates != nil {
			return nil, fmt.Errorf("exec: TrainerConfig.Toggles.DeferBlockedUpdates acts in the simulator only")
		}
	}
	inj, err := fault.Parse(cfg.FaultSpec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	layers := kernels
	if len(layers) == 0 {
		if len(cfg.Widths) < 2 {
			return nil, fmt.Errorf("exec: need at least input and output widths")
		}
		for i := 0; i+1 < len(cfg.Widths); i++ {
			layers = append(layers, nn.Dense{
				In:   cfg.Widths[i],
				Out:  cfg.Widths[i+1],
				ReLU: i+2 < len(cfg.Widths), // all but the final layer
			})
		}
	}
	for i := 0; i+1 < len(layers); i++ {
		if layers[i].OutSize() != layers[i+1].InSize() {
			return nil, fmt.Errorf("exec: kernel %d (%s) out %d != kernel %d (%s) in %d",
				i, layers[i].Name(), layers[i].OutSize(),
				i+1, layers[i+1].Name(), layers[i+1].InSize())
		}
	}
	if err := checkRectified(layers); err != nil {
		return nil, err
	}
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("exec: Devices must be positive")
	}
	if cfg.DeviceBytes <= 0 {
		return nil, fmt.Errorf("exec: DeviceBytes %d must be positive", cfg.DeviceBytes)
	}
	if cfg.LinkBytesPerSec < 0 {
		return nil, fmt.Errorf("exec: LinkBytesPerSec %d is negative (0 = no modeled link)", cfg.LinkBytesPerSec)
	}
	tr := &Trainer{
		cfg:     cfg,
		layers:  layers,
		inDim:   layers[0].InSize(),
		classes: layers[len(layers)-1].OutSize(),
		inj:     inj,
		clk:     trace.WallClock{},
		devMap:  make([]int, cfg.Devices),
		alive:   make([]bool, cfg.Devices),
	}
	for d := range tr.devMap {
		tr.devMap[d] = d
		tr.alive[d] = true
	}
	opts := cfg.Toggles.Apply(sched.DefaultOptions(cfg.Mode))
	opts.CommChunks, opts.CommBucketBytes = cfg.CommChunks, cfg.CommBucketBytes
	s, err := tr.plan(opts, cfg.Microbatches)
	if err != nil {
		return nil, err
	}
	if err := tr.adopt(s); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	tr.views = make([][][]float32, cfg.Devices)
	for i := range tr.views {
		tr.views[i] = make([][]float32, 2*tr.g.Cfg.Replicas)
	}
	tr.vm = tr.newVM()
	// Identical weights in every replica, each born where it is read;
	// the VM holds the gradients and optimizer state, all zeros. A
	// layer's first birth runs its initializer, the others copy that
	// one's page wherever it is (VM.Read moves nothing).
	first := make([]*tensor.Tensor, len(layers))
	for _, b := range tr.births() {
		if b.t.Kind != tensor.Weight {
			continue
		}
		l, src := b.t.Layer, first[b.t.Layer]
		fill := func(w []float32) error { return tr.vm.Read(src, w) }
		if src == nil {
			first[l] = b.t
			fill = func(w []float32) error {
				nn.InitKernel(layers[l], w, cfg.Seed+uint64(l)*7919)
				return nil
			}
		}
		if err := tr.bear(b, fill); err != nil {
			tr.vm.Close()
			return nil, fmt.Errorf("exec: weight birth: %w", err)
		}
	}
	return tr, nil
}

// plan builds the schedule for microbatches per replica under opts.
func (tr *Trainer) plan(opts sched.Options, microbatches int) (*sched.Schedule, error) {
	return sched.Plan(graph.Config{
		Model:          kernelModel(tr.layers, tr.cfg.Adam),
		MicrobatchSize: tr.cfg.BatchSize / microbatches,
		Microbatches:   microbatches,
	}, opts, tr.cfg.Devices)
}

// adopt weaves s, fits its runs to the live device binding, proves it
// and installs it as the running plan: the full preflight
// (schedcheck.Check), or with verification off the liveness of the
// woven streams alone, so no device worker ever drains a stream that
// can deadlock. A plan that fails leaves the running one as it was. The
// caller gives the plan its VM (newVM) and its state.
func (tr *Trainer) adopt(s *sched.Schedule) error {
	var streams *sched.Streams
	if !tr.cfg.NoVerify {
		r := schedcheck.Check(s, tr.topology())
		if err := r.Err(); err != nil {
			return fmt.Errorf("plan rejected by preflight verification (-verify=false or NoVerify to skip):\n%w", err)
		}
		streams = r.Streams
	} else {
		var err error
		if streams, err = schedcheck.Fit(s, tr.topology()); err != nil {
			return err
		}
		if err := schedcheck.Liveness(s.Graph.Tasks, streams); err != nil {
			return err
		}
	}
	tr.install(s, streams)
	return nil
}

// install makes s, already woven into streams and proven, the running
// plan, with the runtime state derived from it.
func (tr *Trainer) install(s *sched.Schedule, streams *sched.Streams) {
	tr.g, tr.s, tr.streams = s.Graph, s, streams
	tr.cfg.Microbatches = s.Graph.Cfg.Microbatches
	tr.comm = buildCommPlan(s)
	tr.sizeTasks()
	tr.armPrefetch()
}

// prefetchDepth resolves the configured lookahead: 0 means the
// default of 2 when the schedule asked for prefetch, negative
// disables. The serial reference path never prefetches — it is the
// bit-exactness and data-movement baseline.
func (tr *Trainer) prefetchDepth() int {
	switch {
	case tr.cfg.Serial || tr.cfg.PrefetchDepth < 0:
		return 0
	case tr.cfg.PrefetchDepth > 0:
		return tr.cfg.PrefetchDepth
	case tr.s.Opts.Prefetch:
		return 2
	default:
		return 0
	}
}

// topology is the machine the running plan is verified against: the
// configured devices under the current virtual→physical binding.
func (tr *Trainer) topology() schedcheck.Topology {
	return schedcheck.Topology{Devices: tr.cfg.Devices, DeviceBytes: tr.cfg.DeviceBytes, Binding: tr.devMap}
}

// retire closes vm, a VM the trainer stops using, and folds its
// counters into statsBase and linkBase. Only at a step boundary: its
// in-flight DMAs must already be drained.
func (tr *Trainer) retire(vm *VM) {
	vm.Close()
	tr.statsBase = tr.statsBase.add(vm.StatsSnapshot())
	tr.linkBase = tr.linkBase.add(vm.LinkStats())
}

// newVM builds an empty VM for the current plan, armed with fault
// injection, link modeling, tracing and (when prefetch is on) the async
// DMA engine. It holds the persistent state that is all zeros, the
// state every update leaves it in: gradients, optimizer state and a
// parameter-free layer's empty weights, as known-zero pages with no
// copy anywhere. The caller installs it as tr.vm and bears the weights
// (bear): initial ones, or a state's.
func (tr *Trainer) newVM() *VM {
	vm := NewVM(tr.cfg.Devices, tr.cfg.DeviceBytes, tr.s.MemPolicy)
	vm.clk = tr.clk
	vm.cfg = xferConfig{
		bps:        tr.cfg.LinkBytesPerSec,
		inj:        tr.inj,
		maxRetries: tr.maxRetries(),
		stepFn:     func() int { return tr.step },
	}
	if tr.rec != nil {
		vm.cfg.rec = tr.rec.add
	}
	if tr.pf != nil {
		vm.StartEngine(0) // default budget: half the device capacity
	}
	for r := 0; r < tr.g.Cfg.Replicas; r++ {
		for l := range tr.layers {
			vm.ZeroAlloc(tr.g.DW[r][l])
			if tr.g.K[r][l].Bytes > 0 {
				vm.ZeroAlloc(tr.g.K[r][l])
			}
			if tr.g.W[r][l].Bytes == 0 {
				vm.ZeroAlloc(tr.g.W[r][l])
			}
		}
	}
	return vm
}

// birth is a persistent tensor with content and the virtual device
// whose compute queue reads it.
type birth struct {
	t   *tensor.Tensor
	dev int
}

// births lists every replica's weights and optimizer state that have
// bytes, each with the virtual device whose compute queue reads it —
// on every plan there is exactly one — in reverse order of first use.
// Born in that order, a device too small for its share keeps the pages
// step 1 reads first and spills the ones it reads last.
func (tr *Trainer) births() []birth {
	seen := make(map[*tensor.Tensor]bool)
	var bs []birth
	for d, q := range tr.s.Queues {
		for _, t := range q {
			for _, x := range t.Inputs {
				if (x.Kind == tensor.Weight || x.Kind == tensor.OptState) && x.Bytes > 0 && !seen[x] {
					seen[x] = true
					bs = append(bs, birth{x, d})
				}
			}
		}
	}
	slices.Reverse(bs)
	return bs
}

// bear materializes b's tensor, which the VM holds no buffer for, with
// fill writing its contents into a zeroed slice. Under dirty tracking
// the tensor is born on the physical device backing the one that reads
// it, a dirty page with no host copy: it gets one only if eviction
// writes it back. The naive policy bears it in host backing, as the
// baselines always have, so they move every byte they did (ZeroAlloc
// makes the same split). A failed fill leaves the tensor pinned: the
// caller discards the VM.
func (tr *Trainer) bear(b birth, fill func([]float32) error) error {
	if !tr.vm.pol.DirtyTracking {
		return fill(tr.vm.HostAlloc(b.t))
	}
	dst, err := tr.vm.Alloc(tr.pdev(b.dev), b.t)
	if err != nil {
		return err
	}
	if err := fill(dst); err != nil {
		return err
	}
	return tr.vm.Unpin(b.t)
}

// armPrefetch (re)builds the prefetcher for the current plan: none when
// the resolved depth is 0.
func (tr *Trainer) armPrefetch() {
	tr.pf = nil
	if d := tr.prefetchDepth(); d > 0 {
		tr.pf = &prefetcher{tr: tr, depth: d}
	}
}

// AdaptWindowStats is the per-device summary AdaptStats once returned.
//
// Deprecated: no effect; removed by the next benchmark PR.
type AdaptWindowStats struct {
	Dev                  int
	WindowMin, WindowMax int
	Resizes              int
}

// AdaptStats returns nil: no controller resizes a window.
//
// Deprecated: no effect; removed by the next benchmark PR.
func (tr *Trainer) AdaptStats() []AdaptWindowStats { return nil }

// maxRetries resolves the configured retry bound: 0 means the default
// of 3, negative disables retries.
func (tr *Trainer) maxRetries() int {
	switch {
	case tr.cfg.MaxRetries > 0:
		return tr.cfg.MaxRetries
	case tr.cfg.MaxRetries < 0:
		return 0
	default:
		return 3
	}
}

// pdev maps a virtual device to the physical device backing it.
func (tr *Trainer) pdev(d int) int { return tr.devMap[d] }

// where names the device virtual device d's tasks run on for an error:
// the physical one, and d itself only when recovery has re-bound it.
func (tr *Trainer) where(d int) string {
	if p := tr.pdev(d); p != d {
		return fmt.Sprintf("gpu%d (virtual device %d)", p, d)
	}
	return fmt.Sprintf("gpu%d", d)
}

// Recoveries reports how many fatal device faults the trainer rolled
// back from and resumed past.
func (tr *Trainer) Recoveries() int { return tr.recoveries }

// OnFault installs an observer notified of every injected fault and
// retry (for timelines and logging). The observer may be called from
// device-worker goroutines and must be safe for concurrent use; it
// must not call back into the trainer.
func (tr *Trainer) OnFault(fn func(fault.Event)) { tr.inj.Observe(fn) }

// FaultStats reports how many faults were injected and how many
// retries the retry layers issued.
func (tr *Trainer) FaultStats() (injected, retries int) { return tr.inj.Stats() }

// injectOp consults the fault injector for a compute-side operation
// (kernel launch, collective rendezvous), retrying transient faults
// with backoff.
func (tr *Trainer) injectOp(op fault.Op, dev, layer int) error {
	if tr.inj.Rules() == 0 {
		return nil
	}
	_, err := injectRetrying(tr.inj, op, dev, tr.step, layer, tr.maxRetries())
	return err
}

// checkRectified enforces nn.Kernel's backward precondition: ReLU's
// derivative is applied by the kernel that stashes the rectified value,
// so every kernel past the first must read a rectified input (the
// output of a ReLU Dense or Conv2D, or of a MaxPool2D over one), and the
// last must not rectify, since the loss gradient that reaches it is
// masked by no consumer. Either stack would train on a wrong gradient.
func checkRectified(layers []nn.Kernel) error {
	rectified := false // the input data is not
	for i, k := range layers {
		if i > 0 && !rectified {
			return fmt.Errorf("exec: kernel %d (%s) reads the unrectified output of kernel %d (%s): its backward masks dx by the sign of its input",
				i, k.Name(), i-1, layers[i-1].Name())
		}
		switch k := k.(type) {
		case nn.Dense:
			rectified = k.ReLU
		case nn.Conv2D:
			rectified = k.ReLU
		case nn.MaxPool2D:
			continue // the max of rectified values is rectified
		default:
			rectified = false
		}
		if rectified && i == len(layers)-1 {
			return fmt.Errorf("exec: kernel %d (%s) is the last and applies ReLU: the loss gradient would reach it unmasked", i, k.Name())
		}
	}
	return nil
}

// kernelModel derives the simulator-facing model description from a
// real kernel stack: the graph and scheduler need only sizes and
// operation counts.
func kernelModel(layers []nn.Kernel, adam bool) *models.Model {
	opt := 0.0
	if adam {
		opt = 2.0
	}
	m := &models.Model{
		Name:                 "exec-kernels",
		OptStateParamsFactor: opt,
		SampleBytes:          int64(layers[0].InSize()) * 4,
	}
	for _, k := range layers {
		m.Layers = append(m.Layers, models.LayerSpec{
			Name:                k.Name(),
			Params:              int64(k.ParamCount()),
			FwdFLOPsPerSample:   k.FLOPsPerSample(),
			ActBytesPerSample:   int64(k.OutSize()) * 4,
			StashBytesPerSample: int64(k.StashSize()) * 4,
		})
	}
	return m
}

// Stats returns data-movement counters accumulated so far, including
// those of VMs discarded by recovery. The live VM's share is a sweep of
// its per-device shards, one shard lock at a time; call it between
// steps of a parallel trainer (never concurrently with one), when the
// DMA engine is drained and the sum is settled.
func (tr *Trainer) Stats() VMStats { return tr.statsBase.add(tr.vm.StatsSnapshot()) }

// LinkStats returns each modeled link's busy time so far, discarded
// VMs' included. Same contract as Stats.
func (tr *Trainer) LinkStats() LinkStats { return tr.linkBase.add(tr.vm.LinkStats()) }

// HostBytes is the host memory the live VM's pages hold: the bytes of
// every materialized host backing. A page has one when it was born in
// host memory (the naive policy's weights, a step's inputs) or written
// back by eviction, not while it lives only on a device or is known to
// be zeros; reading a page out (Save, Predict, Recover) never adds one.
// Under dirty tracking it is 0 after NewTrainer on a plan whose weights
// fit their devices. Same contract as Stats.
func (tr *Trainer) HostBytes() int64 {
	var n int64
	for _, t := range tr.g.Reg.All() {
		if b, ok := tr.vm.lookup(t.ID); ok {
			n += int64(len(b.host)) * 4
		}
	}
	return n
}

// FootprintBytes reports the derived model's footprint for sizing examples.
func (tr *Trainer) FootprintBytes() int64 {
	var total int64
	for _, t := range tr.g.Reg.All() {
		if t.Kind.IsPersistent() {
			total += t.Bytes
		}
	}
	return total
}

// Replicas reports the number of data-parallel model replicas.
func (tr *Trainer) Replicas() int { return tr.g.Cfg.Replicas }

// SamplesPerStep is the total samples one Step consumes: BatchSize per
// replica.
func (tr *Trainer) SamplesPerStep() int { return tr.g.Cfg.Replicas * tr.cfg.BatchSize }

// microbatch returns the offset of the first sample of replica r's
// microbatch i in Step's replica-major layout.
func (tr *Trainer) microbatch(r, i int) int {
	return (r*tr.g.Cfg.Microbatches + i) * tr.g.Cfg.MicrobatchSize
}

// Step runs one iteration on a flattened [SamplesPerStep×input] batch
// and its labels, returning the mean loss across all microbatches.
// Replica r trains samples [r·BatchSize, (r+1)·BatchSize), split into
// its microbatches in order: replica r's microbatch i starts at sample
// (r·Microbatches + i)·(BatchSize/Microbatches).
//
// The iteration runs on the parallel device-worker executor unless
// cfg.Serial forces the single-threaded reference path; both produce
// bit-identical weights and losses (see executor.go).
func (tr *Trainer) Step(inputs []float32, labels []int) (float32, error) {
	n := tr.g.Cfg.Replicas
	samples := tr.SamplesPerStep()
	if len(labels) != samples {
		return 0, fmt.Errorf("exec: Step needs %d labels (%d replicas × %d samples), got %d",
			samples, n, samples/n, len(labels))
	}
	if len(inputs) != samples*tr.inDim {
		return 0, fmt.Errorf("exec: Step needs %d inputs (%d samples × %d features), got %d",
			samples*tr.inDim, samples, tr.inDim, len(inputs))
	}
	// Validate labels up front: a bad label would otherwise surface as a
	// panic deep inside a backward kernel.
	for i, y := range labels {
		if y < 0 || y >= tr.classes {
			return 0, fmt.Errorf("exec: label %d out of range [0,%d) at sample %d", y, tr.classes, i)
		}
	}
	// The rollback target is the state this step starts from. capture
	// moves nothing, so a run that never faults is the run without
	// Recover, byte for byte.
	if tr.cfg.Recover {
		if err := tr.capture(&tr.snap); err != nil {
			return 0, fmt.Errorf("exec: recovery snapshot: %w", err)
		}
	}
	for {
		loss, err := tr.runStep(inputs, labels)
		if err == nil {
			return loss, nil
		}
		if !tr.cfg.Recover {
			return 0, err
		}
		dev, fatal := fault.AsFatal(err)
		if !fatal {
			// Transient faults that exhausted their retries, and
			// ordinary errors, are not recoverable by retiring a
			// device.
			return 0, err
		}
		if rerr := tr.recoverFrom(dev); rerr != nil {
			return 0, fmt.Errorf("exec: unrecoverable fault (%v): %w", err, rerr)
		}
		tr.recoveries++
	}
}

// runStep runs one executor iteration: stage inputs, execute, reduce
// losses, free the consumed inputs. On error the VM may hold partial
// state (pins, mid-iteration activations); the recovery path discards
// the whole VM rather than unwinding it.
func (tr *Trainer) runStep(inputs []float32, labels []int) (float32, error) {
	m := tr.g.Cfg.Microbatches
	N := tr.g.Cfg.Replicas
	// Inputs are born in host memory, each microbatch in its range of
	// the trainer's one input slice, which the last step's Free let go.
	if tr.inputs == nil {
		tr.inputs = make([]float32, len(inputs))
	}
	copy(tr.inputs, inputs)
	n := tr.g.Cfg.MicrobatchSize * tr.inDim
	for r := 0; r < N; r++ {
		for i := 0; i < m; i++ {
			lo := tr.microbatch(r, i) * tr.inDim
			tr.vm.HostBind(tr.g.Act[r][0][i], tr.inputs[lo:lo+n:lo+n])
		}
	}
	tr.step++

	ex := newExecutor(tr, labels)
	var err error
	if tr.cfg.Serial {
		err = ex.runSerial(tr.streams)
	} else {
		err = ex.run(tr.streams)
	}
	// Drain the DMA engine at the step boundary — on failure too, so
	// recovery never discards a VM with live DMAs and stats snapshots
	// are always settled. A fatal fault hit by an async prefetch
	// surfaces here if no demand access tripped over it first.
	if werr := tr.vm.WaitIdle(); err == nil {
		err = werr
	}
	if err != nil {
		return 0, err
	}
	tr.foldWaits()

	// Reduce losses in task-ID order regardless of which executor ran
	// (and in which interleaving), so both report bit-identical means.
	var totalLoss float64
	lossCount := 0
	for id, c := range tr.tasks.counted {
		if c {
			totalLoss += float64(tr.tasks.losses[id])
			lossCount++
		}
	}

	// Iteration cleanup: input batches are consumed.
	for r := 0; r < N; r++ {
		for i := 0; i < m; i++ {
			if err := tr.vm.Free(tr.g.Act[r][0][i]); err != nil {
				return 0, err
			}
		}
	}
	if lossCount == 0 {
		return 0, fmt.Errorf("exec: no loss computed")
	}
	return float32(totalLoss / float64(lossCount)), nil
}

// recoverFrom retires physical device dev after a fatal fault: every
// virtual device bound to it is re-bound to a surviving physical
// device, the re-bound assignment is checked against the survivors'
// pin budgets, and the trainer state is rolled back to the last
// completed step by rebuilding the VM and restoring the snapshot. The
// caller then re-runs the step.
func (tr *Trainer) recoverFrom(dev int) error {
	if dev < 0 || dev >= len(tr.alive) {
		return fmt.Errorf("exec: fatal fault on unknown device %d", dev)
	}
	if !tr.alive[dev] {
		return fmt.Errorf("exec: device %d already retired", dev)
	}
	tr.alive[dev] = false
	var survivors []int
	for p, ok := range tr.alive {
		if ok {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) == 0 {
		return fmt.Errorf("exec: no devices left")
	}
	// Re-bind: spread virtual devices over the survivors round-robin,
	// keeping still-alive identity bindings where possible so healthy
	// devices keep their own streams.
	next := 0
	for d := range tr.devMap {
		if tr.alive[d] {
			tr.devMap[d] = d
			continue
		}
		tr.devMap[d] = survivors[next%len(survivors)]
		next++
	}
	// Streams that now share a survivor add their pin demands up:
	// regroup the runs for the new binding, and refuse one the VM could
	// fail on even with runs of one.
	streams, err := schedcheck.Residency(tr.s, tr.topology())
	if err != nil {
		return fmt.Errorf("exec: pin budget exceeded under the surviving binding: %w", err)
	}
	tr.install(tr.s, streams)

	// Roll back: discard the (possibly mid-iteration) VM wholesale —
	// runStep already drained its in-flight DMAs — and restore the
	// step's starting state into a fresh one. Rebuilding re-materializes
	// persistent tensors as NewTrainer did — each weight born on the
	// survivor now reading it — so the restored state is bit-identical
	// to a fresh trainer that loaded the same checkpoint.
	tr.retire(tr.vm)
	tr.vm = tr.newVM()
	if err := tr.restore(&tr.snap); err != nil {
		return fmt.Errorf("exec: rollback: %w", err)
	}
	return nil
}

// Retune reshapes the execution plan between Steps to the given number
// of microbatches per replica: it rebuilds the task graph and schedule
// under the current options, runs the full schedcheck preflight on the
// candidate plan, and adopts it only if verification passes. BatchSize
// must divide into them; the batch itself never changes, so Step keeps
// accepting the same input shape. An infeasible retune returns the
// verifier's Gantt counterexample and leaves the running plan untouched
// — the next Step continues exactly as before. Training state survives
// adoption: weights, optimizer state and the step counter are
// microbatch-independent, captured from the old VM and restored into a
// fresh one. The switch commits only with its state: a restore that
// fails (a fatal fault writing a page back, say) puts the old plan, VM
// and counters back, so the next Step trains as if Retune had not been
// called.
//
// Call only between Steps (same non-concurrency contract as Step).
func (tr *Trainer) Retune(microbatches int) error {
	batch := tr.cfg.BatchSize
	if microbatches <= 0 || batch%microbatches != 0 {
		return fmt.Errorf("exec: cannot split BatchSize %d into %d microbatches", batch, microbatches)
	}
	if microbatches == tr.cfg.Microbatches {
		return nil
	}
	s, err := tr.plan(tr.s.Opts, microbatches)
	if err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	// The candidate must fit under the live device binding (after a
	// recovery, several streams may share a survivor): the preflight in
	// adopt proves it, and with verification off it is checked here.
	if tr.cfg.NoVerify {
		if _, err := schedcheck.Residency(s, tr.topology()); err != nil {
			return fmt.Errorf("exec: retune, plan unchanged: %w", err)
		}
	}
	// Captured while the old graph's tensor handles are still live.
	var st state
	if err := tr.capture(&st); err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	prev, prevStreams := tr.s, tr.streams
	if err := tr.adopt(s); err != nil {
		return fmt.Errorf("exec: retune, plan unchanged: %w", err)
	}
	if err := tr.reload(&st); err != nil {
		tr.install(prev, prevStreams)
		return fmt.Errorf("exec: retune state restore: %w", err)
	}
	return nil
}

// reload restores st into a fresh VM for the running plan and swaps it
// in only if the restore succeeds, retiring the old VM (at a step
// boundary: WaitIdle already drained its in-flight DMAs). A restore that
// fails — a fatal fault writing a page back, say — discards the
// half-born VM and its counters and keeps the old one, which never
// stopped holding the state.
func (tr *Trainer) reload(st *state) error {
	prev := tr.vm
	tr.vm = tr.newVM()
	if err := tr.restore(st); err != nil {
		tr.vm.Close()
		tr.vm = prev
		return err
	}
	tr.retire(prev)
	return nil
}

// maxViews bounds a compute task's declared inputs or outputs
// (Backward reads W, dW, stash and dY), so a kernel's views travel in
// fixed-size arrays instead of per-task slices.
const maxViews = 4

// memberViews is one run member's bound views: [0] its declared
// inputs, [1] its declared outputs, by position.
type memberViews [2][maxViews][]float32

// runRun executes one run of device d's stream with real kernels
// (sched.StreamEntry): a wave's same-layer Forward or Backward tasks as
// one kernel call over all their rows, any other task alone. Each
// member's declaration is its access plan, in stream order: the fault
// site is consulted, the final layer's loss read into the run's loss
// gradient, then every member's footprint acquired (pinned) and its
// views bound by declared position. With the run pinned, the prefetch
// window over next, the rest of the stream, is issued (prefetcher), so
// async swap-ins for the tasks after the run ride the DMA lanes while
// its kernel runs. The kernel runs once over the members' rows laid end
// to end in the worker's operand buffers (runBufs) — one pass of W and
// dW through the cache for the whole wave — and its outputs are copied
// back to each member's views; a run of one computes on its views in
// place. A backward run that the layer's Update closes applies the SGD
// update in that same call (nn.Update.SGD), so W is read and written
// once for the backward and its update.
// Every kernel's output rows are independent and its dW and db sum the
// batch in row order, so the bits are those of one call per member
// (DESIGN.md §7). Then each member is released. Pins match schedcheck's
// run bound (runPin): the run's distinct tensors, held together. A
// final-layer member's loss lands on its own task ID. On error it
// returns the member whose step failed.
func (tr *Trainer) runRun(d int, e sched.StreamEntry, next []sched.StreamEntry, labels []int) (*graph.Task, error) {
	run, t := e.Run, e.Task
	// k counts the members whose rows the kernel takes; fused: the
	// layer's Update closes this backward run.
	k := len(e.Kernel())
	fused := k < len(run)
	// Late binding happens here: d is the schedule's virtual device;
	// all memory traffic below targets the physical device backing it.
	dev := tr.pdev(d)
	for _, m := range run {
		if m.Kind > graph.Update || len(m.Inputs) > maxViews || len(m.Outputs) > maxViews {
			return m, fmt.Errorf("exec: unexpected task kind %v in queue", m.Kind)
		}
	}
	if r := tr.rec; r != nil {
		start := tr.vm.clk.Now()
		defer func() {
			r.add(dev, trace.Compute, e.Label(), start, tr.vm.clk.Now())
		}()
	}
	layer := tr.layers[t.Layer]
	rows := tr.g.Cfg.MicrobatchSize
	bufs := &tr.runBufs[d]
	var dy []float32
	counted := t.Kind == graph.Backward && t.Layer == len(tr.layers)-1
	if counted {
		dy = bufs[1][:k*rows*tr.classes]
	}
	for i, m := range run {
		if err := tr.injectOp(fault.Kernel, dev, m.Layer); err != nil {
			return m, err
		}
		if counted && i < k {
			if err := tr.lossRead(dev, m, labels, dy[i*rows*tr.classes:(i+1)*rows*tr.classes]); err != nil {
				return m, err
			}
		}
	}
	vs := tr.runViews[d][:len(run)]
	for i, m := range run {
		if err := tr.acquire(m, dev, vs[i][0][:len(m.Inputs)], vs[i][1][:len(m.Outputs)]); err != nil {
			return m, err
		}
	}
	if tr.pf != nil {
		tr.pf.issue(d, next)
	}
	vs = vs[:k]
	switch in := &vs[0][0]; t.Kind {
	case graph.Forward: // W, x → y, stash
		nx, ny, ns := rows*layer.InSize(), rows*layer.OutSize(), rows*layer.StashSize()
		x := joined(vs, 0, 1, nx, bufs[0], true)
		y, stash := joined(vs, 1, 0, ny, bufs[1], false), joined(vs, 1, 1, ns, bufs[2], false)
		layer.Forward(in[0], x, y, stash, k*rows)
		split(vs, 1, 0, ny, y)
		split(vs, 1, 1, ns, stash)
	case graph.Backward: // W, dW, stash, dY → dx
		nx, ns := rows*layer.InSize(), rows*layer.StashSize()
		stash := joined(vs, 0, 2, ns, bufs[0], true)
		if !counted {
			dy = joined(vs, 0, 3, rows*layer.OutSize(), bufs[1], true)
		}
		var dx []float32 // the first layer computes none
		if len(t.Outputs) > 0 {
			dx = joined(vs, 1, 0, nx, bufs[2], false)
		}
		// The step's first run to write dW overwrites what the last
		// update left in it; every later one adds to it.
		dw := t.Inputs[1]
		u := nn.Update{Reset: !tr.tasks.written[dw.ID], SGD: fused, LR: tr.cfg.LR}
		tr.tasks.written[dw.ID] = true
		layer.BackwardUpdate(in[0], stash, dy, dx, in[1], k*rows, u)
		if dx != nil {
			split(vs, 1, 0, nx, dx)
		}
	case graph.Update: // W, dW, K
		n := layer.ParamCount()
		switch {
		case tr.s.FusedUpdate():
			// The reduction applied the update (Trainer.reduce); this
			// task keeps its place, its pins and its marks.
		case tr.cfg.Adam:
			nn.Adam(in[0][:n], in[1][:n], in[2][:n], in[2][n:2*n], tr.cfg.LR, 0.9, 0.999, 1e-8, tr.step)
		default:
			nn.ApplySGD(in[0][:n], in[1][:n], tr.cfg.LR)
		}
	}
	for _, m := range run {
		if err := tr.release(m); err != nil {
			return m, err
		}
	}
	if fused && tr.pf != nil {
		// The issue point the update had as a run of its own: with the
		// backward's pages unpinned, the window finds the room the run
		// held.
		tr.pf.issue(d, next)
	}
	return nil, nil
}

// lossRead is the one undeclared access: the final backward m turns the
// logits (which it only frees) and its labels into its loss, recorded on
// m's task ID, and its loss gradient dy. It finishes — logits unpinned —
// before any member of its run acquires its declared footprint, so the
// two are never held together.
func (tr *Trainer) lossRead(dev int, m *graph.Task, labels []int, dy []float32) error {
	rows := tr.g.Cfg.MicrobatchSize
	logits := tr.g.Act[m.Replica][m.Layer+1][m.Microbatch]
	y, err := tr.vm.Ensure(dev, logits)
	if err != nil {
		return err
	}
	off := tr.microbatch(m.Replica, m.Microbatch)
	tr.tasks.losses[m.ID] = nn.SoftmaxXent(y, labels[off:off+rows], dy, rows, tr.classes)
	tr.tasks.counted[m.ID] = true
	return tr.vm.Unpin(logits)
}

// joined is one kernel operand of a run: its members' views at
// declared position vs[·][side][pos], n floats each, end to end. A run
// of one computes on its view; a longer one on the first len(vs)·n
// floats of buf, filled from the views when gather is set (an input).
func joined(vs []memberViews, side, pos, n int, buf []float32, gather bool) []float32 {
	if len(vs) == 1 {
		return vs[0][side][pos]
	}
	buf = buf[:len(vs)*n]
	if gather {
		for i := range vs {
			copy(buf[i*n:(i+1)*n], vs[i][side][pos])
		}
	}
	return buf
}

// split copies a joined output operand back to its members' views; a
// run of one wrote its view in place.
func split(vs []memberViews, side, pos, n int, buf []float32) {
	if len(vs) == 1 {
		return
	}
	for i := range vs {
		copy(vs[i][side][pos], buf[i*n:(i+1)*n])
	}
}

// acquire pins a task's declared footprint and binds its views: every
// input is made resident (Ensure) and every output created (Alloc), in
// declared order, in[i] and out[i] viewing t.Inputs[i] and t.Outputs[i].
// A compute task's tensors live on dev; a collective's i-th input is
// replica i's buffer and lives on the device replica i trains on. Zero-
// byte tensors (a parameter-free layer's W and dW, K under SGD) have no
// footprint and are never touched: their views stay nil. On error the
// pins taken so far stay behind — the failed iteration's VM is
// discarded, not unwound (see runStep).
func (tr *Trainer) acquire(t *graph.Task, dev int, in, out [][]float32) error {
	var err error
	for i, x := range t.Inputs {
		if x.Bytes == 0 {
			continue
		}
		d := dev
		if t.Kind == graph.AllReduce {
			d = tr.pdev(i)
		}
		if in[i], err = tr.vm.Ensure(d, x); err != nil {
			return err
		}
	}
	for i, x := range t.Outputs {
		if x.Bytes == 0 {
			continue
		}
		if out[i], err = tr.vm.Alloc(dev, x); err != nil {
			return err
		}
	}
	return nil
}

// release retires what acquire pinned once the kernel has run: in-place
// mutations are marked dirty — an Update's dW is marked zero instead —
// inputs and outputs unpinned, and tensors whose last use this was
// destroyed. An Update resets the gradient it applied (Fig. 5(a)'s
// "Reset dW′"; a checkpoint already omits dW on the strength of it) by
// the plan's word, not by a store: the step's first backward into it
// overwrites it unread (nn.Update.Reset), so it reads as +0s and from
// here to then the VM need not move the page. A failure here is a
// plumbing bug, but it surfaces as a returned error (not a panic) so the
// executor can abort the iteration cleanly and the recovery layer can
// decide what to do with it.
func (tr *Trainer) release(t *graph.Task) error {
	for _, x := range t.Mutates {
		if x.Bytes == 0 {
			continue
		}
		var err error
		if t.Kind == graph.Update && x.Kind == tensor.WeightGrad {
			err = tr.vm.MarkZero(x)
		} else {
			err = tr.vm.MarkDirty(x)
		}
		if err != nil {
			return err
		}
	}
	for _, ts := range [2][]*tensor.Tensor{t.Inputs, t.Outputs} {
		for _, x := range ts {
			if x.Bytes == 0 {
				continue
			}
			if err := tr.vm.Unpin(x); err != nil {
				return err
			}
		}
	}
	for _, x := range t.Frees {
		if err := tr.vm.Free(x); err != nil {
			return err
		}
	}
	return nil
}

// Predict runs a forward-only pass on device 0 with replica 0's
// weights and returns the logits. Used by examples for evaluation.
//
// Per-layer output and stash buffers come from the shared kernel
// scratch pool rather than fresh allocations, so repeated evaluation
// loops stop churning the GC; every kernel fully overwrites its output
// and stash (bias-init or direct assignment), so reuse is safe. Only
// the returned logits are caller-owned.
func (tr *Trainer) Predict(input []float32, batch int) ([]float32, error) {
	if len(input) != batch*tr.inDim {
		return nil, fmt.Errorf("exec: predict input %d floats, want %d", len(input), batch*tr.inDim)
	}
	x := input
	var prev []float32 // pooled buffer holding x (nil for the input)
	for l, layer := range tr.layers {
		w := nn.GetScratch(layer.ParamCount())
		if err := tr.vm.Read(tr.g.W[0][l], w); err != nil {
			nn.PutScratch(w)
			if prev != nil {
				nn.PutScratch(prev)
			}
			return nil, err
		}
		y := nn.GetScratch(batch * layer.OutSize())
		stash := nn.GetScratch(batch * layer.StashSize())
		layer.Forward(w, x, y, stash, batch)
		nn.PutScratch(w)
		nn.PutScratch(stash)
		if prev != nil {
			nn.PutScratch(prev)
		}
		x, prev = y, y
	}
	out := make([]float32, batch*tr.classes)
	copy(out, x)
	if prev != nil {
		nn.PutScratch(prev)
	}
	return out, nil
}
