package exec

import (
	"bytes"
	"fmt"
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

// Optimizer selects the weight-update rule.
type Optimizer int

const (
	// SGD is plain stochastic gradient descent.
	SGD Optimizer = iota
	// Adam keeps two moment buffers per parameter (the optimizer
	// state K of the paper's swap model).
	Adam
)

// TrainerConfig configures real training of a classifier under
// Harmony scheduling on virtual devices.
type TrainerConfig struct {
	// Widths is the MLP shape: input, hidden..., classes. Ignored
	// when Kernels is set.
	Widths []int
	// Kernels, when non-nil, is an explicit layer stack (dense,
	// conv, pool — anything implementing nn.Kernel); the final
	// kernel's OutSize is the class count. Every kernel past the first
	// must read a rectified input and the last must not apply ReLU
	// (nn.Kernel's backward precondition); NewTrainer rejects a stack
	// that breaks either rule.
	Kernels []nn.Kernel
	// Mode, Devices and the optimization toggles come from the same
	// scheduler as the simulator.
	Mode    sched.Mode
	Devices int
	// DeviceBytes is each virtual device's memory capacity; pick it
	// below the model's footprint to exercise swapping.
	DeviceBytes int64
	// MicrobatchSize and Microbatches shape one iteration per
	// replica (pipeline mode uses Microbatches as the total stream).
	MicrobatchSize int
	Microbatches   int
	Optimizer      Optimizer
	LR             float32
	Seed           uint64
	// Options overrides sched.DefaultOptions(Mode) when non-nil.
	Options *sched.Options
	// Serial forces the single-threaded reference executor (the
	// original polling loop). The default is the parallel
	// device-worker executor; both produce bit-identical weights
	// and losses — Serial exists for determinism tests and ablation
	// benchmarks.
	Serial bool

	// PrefetchDepth controls schedule-driven prefetch in the parallel
	// executor: before each kernel launches, its device worker issues
	// async swap-ins for the inputs of the next PrefetchDepth compute
	// tasks in its stream and proactive write-backs of dirty LRU
	// pages, all overlapped with the kernel by per-device DMA worker
	// goroutines. 0 means the default (2) when the schedule's
	// Prefetch option is on; negative disables prefetch entirely.
	// The serial reference path never prefetches. Prefetch changes
	// only data movement, never math: weights and losses stay
	// bit-identical at every depth.
	PrefetchDepth int
	// LinkBytesPerSec is the bandwidth of every modeled link: one per
	// device plus the host uplink they all share (link.go). A swap
	// reserves bytes/LinkBytesPerSec on its device's link and on the
	// uplink, a p2p copy on both devices' links, a collective's remote
	// gradient traffic on the reducer's link; reservations on one link
	// never overlap, and the transferring lane waits for its own to
	// end, sleeping in batches of at least 2 ms and carrying less as
	// debt — modeled time is batched, never forgiven. 0 disables
	// modeling — transfers cost only their memcpy time; negative is
	// rejected.
	LinkBytesPerSec int64

	// AdaptivePrefetch retunes each device's prefetch window and byte
	// budget online between iterations (DESIGN.md §13), from
	// deterministic per-step coverage counters keyed to the step
	// counter — never wall time — so adaptive runs stay bit-identical
	// and emit identical decision logs across repeats and executors.
	// Shorthand for Options.AdaptivePrefetch; implies prefetch.
	// PrefetchDepth is the starting window, clamped to the
	// controller's [1, 8]. The serial reference path still never
	// prefetches, so adaptive+Serial is the static serial baseline.
	AdaptivePrefetch bool

	// CommChunks splits each gradient AllReduce into that many
	// plan-time chunk rendezvous, each reduced by a deterministically
	// assigned device worker so reduce work spreads across workers and
	// finished workers overlap collective tails with their compute
	// stream. 0 keeps the monolithic rendezvous. Shorthand for
	// Options.CommChunks. Chunked runs are bit-identical to monolithic
	// and serial ones: boundaries, reducers and per-element summation
	// order are pure functions of the plan.
	CommChunks int
	// CommBucketBytes coalesces small per-layer gradients (reverse
	// layer order) into byte-budgeted buckets sharing one rendezvous.
	// Shorthand for Options.CommBucketBytes; implies CommChunks >= 1.
	CommBucketBytes int64

	// Injector, when non-nil, fault-injects kernel launches,
	// swap-in/out and p2p copies, and collective rendezvous (see
	// internal/fault for the spec grammar). Transient faults are
	// retried with backoff; delay faults perturb timing only; fatal
	// faults kill the device worker.
	Injector *fault.Injector
	// MaxRetries bounds retries per faulted operation (0 means the
	// default of 3; negative disables retries).
	MaxRetries int
	// NoVerify skips the schedcheck preflight gate. NewTrainer
	// statically verifies the plan by default — happens-before
	// liveness, pin-budget residency, analytic swap-volume agreement
	// and the DMA claim-machine invariant — and refuses to construct a
	// trainer for a plan that would deadlock or thrash. Opting out is
	// for tests that deliberately build broken plans.
	NoVerify bool
	// Recover enables mid-iteration recovery: after a fatal device
	// fault the trainer retires the device, re-binds its stream to a
	// surviving device, rechecks pin budgets, rolls weights and
	// optimizer state back to the last completed step (an in-memory
	// checkpoint in the exec/checkpoint.go format) and re-runs the
	// step. Training math is unchanged: recovery only remaps where
	// tensors live, so recovered runs stay bit-identical to
	// fault-free ones.
	Recover bool
}

// Trainer runs real training iterations.
type Trainer struct {
	cfg     TrainerConfig
	layers  []nn.Kernel
	inDim   int
	classes int
	g       *graph.Graph
	s       *sched.Schedule
	vm      *VM
	step    int
	// clk is the clock every VM the trainer builds reads and sleeps on
	// (in-package tests put a trace.ManualClock here).
	clk trace.Clock

	// streams is the plan with its rendezvous woven in (sched.Weave):
	// what the device workers drain and what schedcheck proves. Woven
	// once per plan, checked for liveness once at the first Step.
	streams   *sched.Streams
	validated bool
	valErr    error

	// comm is the chunked-collective runtime plan (nil = monolithic);
	// commStats counts chunk reductions, guarded by commMu because
	// chunks retire concurrently on different device workers.
	comm      []commBucketRT
	commMu    sync.Mutex
	commStats CommStats

	// pf, when non-nil, is the schedule-driven prefetcher the device
	// workers call before each kernel; rec, when non-nil, records
	// wall-clock compute/DMA spans (EnableTrace).
	pf  *prefetcher
	rec *runRecorder

	// Adaptive-prefetch observability: the full decision log (kept
	// across retunes and recoveries) and per-virtual-device window
	// extremes/resize counts (reset when a retune re-arms the
	// controllers). Written only at step boundaries.
	adaptLog   []AdaptDecision
	adaptStats []AdaptWindowStats

	// Recovery state. Virtual devices are schedule constructs; devMap
	// binds virtual device d to the physical device devMap[d] whose
	// memory it uses. Initially the identity map; when a physical
	// device dies (alive[p]=false) every virtual device bound to it is
	// re-bound to a survivor. Kernels are placement-independent and
	// collectives reduce in fixed order, so remapping never changes
	// the math — only where tensors live.
	devMap     []int
	alive      []bool
	snap       []byte    // last completed step, exec/checkpoint format
	statsBase  VMStats   // counters from VMs discarded by recovery
	linkBase   LinkStats // their links' busy time
	recoveries int
}

// NewTrainer builds the model, task graph, schedule and virtual
// memory, and initializes weights identically across replicas.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	var layers []nn.Kernel
	if len(cfg.Kernels) > 0 {
		layers = cfg.Kernels
		for i := 0; i+1 < len(layers); i++ {
			if layers[i].OutSize() != layers[i+1].InSize() {
				return nil, fmt.Errorf("exec: kernel %d (%s) out %d != kernel %d (%s) in %d",
					i, layers[i].Name(), layers[i].OutSize(),
					i+1, layers[i+1].Name(), layers[i+1].InSize())
			}
		}
	} else {
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
	if err := checkRectified(layers); err != nil {
		return nil, err
	}
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("exec: Devices must be positive")
	}
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("exec: LR must be positive")
	}
	if cfg.LinkBytesPerSec < 0 {
		return nil, fmt.Errorf("exec: LinkBytesPerSec %d is negative (0 = no modeled link)", cfg.LinkBytesPerSec)
	}
	model := kernelModel(layers, cfg.Optimizer == Adam)
	replicas := cfg.Devices
	if cfg.Mode.IsPipeline() {
		replicas = 1
	}
	g, err := graph.Build(graph.Config{
		Model:          model,
		MicrobatchSize: cfg.MicrobatchSize,
		Microbatches:   cfg.Microbatches,
		Replicas:       replicas,
	})
	if err != nil {
		return nil, err
	}
	opts := sched.DefaultOptions(cfg.Mode)
	if cfg.Options != nil {
		opts = *cfg.Options
		opts.Mode = cfg.Mode
	}
	if cfg.AdaptivePrefetch {
		opts.AdaptivePrefetch = true
	}
	if cfg.CommChunks > 0 {
		opts.CommChunks = cfg.CommChunks
	}
	if cfg.CommBucketBytes > 0 {
		opts.CommBucketBytes = cfg.CommBucketBytes
	}
	s, err := sched.Build(g, opts, cfg.Devices)
	if err != nil {
		return nil, err
	}
	streams, err := executorStreams(s)
	if err != nil {
		return nil, err
	}
	if !cfg.NoVerify {
		topo := schedcheck.Topology{Devices: cfg.Devices, DeviceBytes: cfg.DeviceBytes}
		if err := schedcheck.Check(s, topo).Err(); err != nil {
			return nil, fmt.Errorf("exec: plan rejected by preflight verification (-verify=false or NoVerify to skip):\n%w", err)
		}
	}
	tr := &Trainer{
		cfg:     cfg,
		layers:  layers,
		inDim:   layers[0].InSize(),
		classes: layers[len(layers)-1].OutSize(),
		g:       g,
		s:       s,
		streams: streams,
		comm:    buildCommPlan(s),
		clk:     trace.WallClock{},
		devMap:  make([]int, cfg.Devices),
		alive:   make([]bool, cfg.Devices),
	}
	for d := range tr.devMap {
		tr.devMap[d] = d
		tr.alive[d] = true
	}
	tr.armPrefetch()
	tr.freshVM()
	// Persistent state: identical weights in every replica, zero
	// gradients and optimizer state.
	for r := 0; r < replicas; r++ {
		for l, layer := range tr.layers {
			nn.InitKernel(layer, tr.vm.HostAlloc(g.W[r][l]), cfg.Seed+uint64(l)*7919)
		}
	}
	if cfg.Recover {
		if err := tr.snapshot(); err != nil {
			return nil, err
		}
	}
	return tr, nil
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
	case tr.s.Prefetch:
		return 2
	default:
		return 0
	}
}

// executorStreams weaves a schedule into the streams the device
// workers drain, refusing collectives the executor cannot reduce (only
// AllReduce; the sharded modes' gathers exist for the simulator).
func executorStreams(s *sched.Schedule) (*sched.Streams, error) {
	for _, c := range s.Collectives {
		if c.Kind != graph.AllReduce {
			return nil, fmt.Errorf("exec: unsupported collective kind %v in schedule", c.Kind)
		}
	}
	return sched.Weave(s)
}

// topology is the machine the running plan is verified against: the
// configured devices under the current virtual→physical binding.
func (tr *Trainer) topology() schedcheck.Topology {
	return schedcheck.Topology{Devices: tr.cfg.Devices, DeviceBytes: tr.cfg.DeviceBytes, Binding: tr.devMap}
}

// freshVM replaces the trainer's VM with an empty one for the current
// plan — armed with fault injection, link modeling, tracing and (when
// prefetch is on) the async DMA engine, and holding every persistent
// tensor zeroed, exactly as at construction — weights and optimizer
// state as host backing, gradients as known-zero pages with no copy
// anywhere, which is the state every update leaves them in — folding
// the old VM's counters into statsBase. The caller fills the state in:
// initial weights, or a checkpoint. Only at a step boundary: the old
// VM's in-flight DMAs must already be drained.
func (tr *Trainer) freshVM() {
	if tr.vm != nil {
		tr.vm.Close()
		tr.statsBase = tr.statsBase.add(tr.vm.StatsSnapshot())
		tr.linkBase = tr.linkBase.add(tr.vm.LinkStats())
	}
	tr.vm = NewVM(tr.cfg.Devices, tr.cfg.DeviceBytes, tr.s.MemPolicy)
	tr.vm.clk = tr.clk
	tr.vm.SetFaultInjection(tr.cfg.Injector, tr.maxRetries(), func() int { return tr.step })
	tr.vm.SetLinkBandwidth(tr.cfg.LinkBytesPerSec)
	if tr.rec != nil {
		tr.vm.SetRecorder(tr.rec.add)
	}
	if tr.pf != nil {
		tr.vm.StartEngine(0) // default budget: half the device capacity
		tr.pf.applyBudgets() // adaptive: align shard budgets with the controllers
	}
	for r := 0; r < tr.g.Cfg.Replicas; r++ {
		for l := range tr.layers {
			tr.vm.HostAlloc(tr.g.W[r][l])
			tr.vm.ZeroAlloc(tr.g.DW[r][l])
			if tr.g.K[r][l].Bytes > 0 {
				tr.vm.HostAlloc(tr.g.K[r][l])
			}
		}
	}
}

// armPrefetch (re)builds the prefetcher for the current plan: none when
// the resolved depth is 0. When the plan adapts, each virtual device
// gets a controller whose window starts at the static depth and whose
// budget starts at the engine cap (so an adaptive run's first step
// matches a static run's exactly).
func (tr *Trainer) armPrefetch() {
	tr.pf, tr.adaptStats = nil, nil
	d := tr.prefetchDepth()
	if d == 0 {
		return
	}
	tr.pf = &prefetcher{tr: tr, depth: d, clean: 1}
	if !tr.s.Opts.AdaptivePrefetch {
		return
	}
	tr.pf.devs = make([]*pfDev, tr.s.NGPUs)
	tr.adaptStats = make([]AdaptWindowStats, tr.s.NGPUs)
	for dev := range tr.pf.devs {
		ctl := newAdaptController(d, adaptWindowMin, adaptWindowMax, tr.cfg.DeviceBytes/2)
		tr.pf.devs[dev] = &pfDev{ctl: ctl, seen: make(map[int]bool)}
		tr.adaptStats[dev] = AdaptWindowStats{Dev: dev, WindowMin: ctl.window, WindowMax: ctl.window}
	}
}

// AdaptWindowStats summarizes one virtual device's adaptive window
// trajectory: the extreme window sizes observed and how many resize
// decisions the controller took.
type AdaptWindowStats struct {
	Dev                  int
	WindowMin, WindowMax int
	Resizes              int
}

// AdaptLog returns a copy of the adaptive-prefetch decision log. Two
// seeded runs of the same config produce deep-equal logs — the
// decision inputs are program-order coverage counters keyed to the
// step counter, never timing (DESIGN.md §13).
func (tr *Trainer) AdaptLog() []AdaptDecision {
	return append([]AdaptDecision(nil), tr.adaptLog...)
}

// AdaptStats returns per-virtual-device window extremes and resize
// counts; nil when the plan is not adaptive.
func (tr *Trainer) AdaptStats() []AdaptWindowStats {
	return append([]AdaptWindowStats(nil), tr.adaptStats...)
}

// adaptTick runs the per-device controllers on a completed step's
// signals: it folds the decisions into the log and window stats and
// stamps them on the trace's adapt lane. Called only on runStep's
// success path, after WaitIdle has drained the DMA engine and the
// step's device workers have joined — the quiescent point where the
// per-device signals are safely readable and budget retunes cannot
// race in-flight admissions.
func (tr *Trainer) adaptTick() {
	if tr.pf == nil {
		return
	}
	decs := tr.pf.endStep(tr.step)
	if len(decs) == 0 {
		return
	}
	for _, dec := range decs {
		if dec.What == "window" {
			st := &tr.adaptStats[dec.Dev]
			st.Resizes++
			if w := int(dec.To); w < st.WindowMin {
				st.WindowMin = w
			}
			if w := int(dec.To); w > st.WindowMax {
				st.WindowMax = w
			}
		}
		if tr.rec != nil {
			now := tr.vm.clk.Now()
			tr.rec.add(tr.pdev(dec.Dev), trace.Adapt, dec.String(), now, now)
		}
	}
	tr.adaptLog = append(tr.adaptLog, decs...)
}

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
func (tr *Trainer) pdev(d int) int {
	if d < 0 || d >= len(tr.devMap) {
		return d
	}
	return tr.devMap[d]
}

// Alive reports which physical devices have not been retired by
// recovery.
func (tr *Trainer) Alive() []bool { return append([]bool(nil), tr.alive...) }

// Recoveries reports how many fatal device faults the trainer has
// recovered from.
func (tr *Trainer) Recoveries() int { return tr.recoveries }

// injectOp consults the fault injector for a compute-side operation
// (kernel launch, collective rendezvous), retrying transient faults
// with backoff.
func (tr *Trainer) injectOp(op fault.Op, dev, layer int) error {
	in := tr.cfg.Injector
	if in.Rules() == 0 {
		return nil
	}
	_, err := injectRetrying(in, op, dev, tr.step, layer, tr.maxRetries())
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

// Replicas returns how many model replicas the trainer maintains.
func (tr *Trainer) Replicas() int { return tr.g.Cfg.Replicas }

// batchesNeeded returns how many (microbatch) slots one Step consumes
// per replica.
func (tr *Trainer) batchesNeeded() int { return tr.g.Cfg.Microbatches }

// Step runs one training iteration. inputs[r][i] is the microbatch i
// fed to replica r (flattened [MicrobatchSize × Widths[0]]), labels
// likewise. It returns the mean loss across all microbatches.
//
// The iteration runs on the parallel device-worker executor unless
// cfg.Serial forces the single-threaded reference path; both produce
// bit-identical weights and losses (see executor.go).
func (tr *Trainer) Step(inputs [][][]float32, labels [][][]int) (float32, error) {
	m := tr.batchesNeeded()
	N := tr.g.Cfg.Replicas
	if len(inputs) != N || len(labels) != N {
		return 0, fmt.Errorf("exec: need data for %d replicas, got %d", N, len(inputs))
	}
	batch := tr.cfg.MicrobatchSize
	for r := 0; r < N; r++ {
		if len(inputs[r]) != m || len(labels[r]) != m {
			return 0, fmt.Errorf("exec: replica %d needs %d microbatches", r, m)
		}
		for i := 0; i < m; i++ {
			if len(inputs[r][i]) != batch*tr.inDim {
				return 0, fmt.Errorf("exec: input %d/%d has %d floats, want %d",
					r, i, len(inputs[r][i]), batch*tr.inDim)
			}
			if len(labels[r][i]) != batch {
				return 0, fmt.Errorf("exec: labels %d/%d has %d entries, want %d",
					r, i, len(labels[r][i]), batch)
			}
			// Validate labels up front: a bad label would otherwise
			// surface as a panic deep inside a backward kernel.
			for _, y := range labels[r][i] {
				if y < 0 || y >= tr.classes {
					return 0, fmt.Errorf("exec: label %d out of range [0,%d) in microbatch %d/%d",
						y, tr.classes, r, i)
				}
			}
		}
	}
	// Prove the streams the workers are about to drain can complete
	// before touching any weight: a cyclic schedule is reported as a
	// deadlock instead of hanging the device workers. Re-armed (not
	// once-only) because Retune swaps the streams mid-run; Step is
	// documented non-concurrent, so a plain flag suffices.
	if !tr.validated {
		if err := schedcheck.Liveness(tr.g.Tasks, tr.streams); err != nil {
			tr.valErr = fmt.Errorf("exec: %w", err)
		}
		tr.validated = true
	}
	if tr.valErr != nil {
		return 0, tr.valErr
	}
	for {
		loss, err := tr.runStep(inputs, labels)
		if err == nil {
			if tr.cfg.Recover {
				if serr := tr.snapshot(); serr != nil {
					return 0, serr
				}
			}
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
func (tr *Trainer) runStep(inputs [][][]float32, labels [][][]int) (float32, error) {
	m := tr.batchesNeeded()
	N := tr.g.Cfg.Replicas
	for r := 0; r < N; r++ {
		for i := 0; i < m; i++ {
			host := tr.vm.HostAlloc(tr.g.Act[r][0][i])
			copy(host, inputs[r][i])
		}
	}
	tr.step++

	if tr.pf != nil {
		// Reset the adaptive coverage counters — a failed attempt's
		// partial signals are discarded here, so recovery re-runs
		// never skew a controller decision.
		tr.pf.beginStep()
	}
	ex := newExecutor(tr, labels)
	var err error
	if tr.cfg.Serial {
		err = ex.runSerial()
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
	tr.adaptTick()

	// Reduce losses in task-ID order regardless of which executor ran
	// (and in which interleaving), so both report bit-identical means.
	var totalLoss float64
	lossCount := 0
	for id, c := range ex.counted {
		if c {
			totalLoss += float64(ex.losses[id])
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

// snapshot captures weights, optimizer state and the step counter in
// the exec/checkpoint format; recoverFrom restores it after a fatal
// fault. Taken at construction and after every completed step, so the
// rollback target is always the last completed weight update. Safe
// because optimizers zero the gradient buffers when they apply them:
// at a step boundary the full persistent state is (W, K, step).
func (tr *Trainer) snapshot() error {
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		return fmt.Errorf("exec: recovery snapshot: %w", err)
	}
	tr.snap = buf.Bytes()
	return nil
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
	// Streams that now share a survivor add their pin demands up;
	// refuse a binding the VM could fail on.
	if err := schedcheck.Residency(tr.s, tr.topology()); err != nil {
		return fmt.Errorf("exec: pin budget exceeded under the surviving binding: %w", err)
	}

	// Roll back: discard the (possibly mid-iteration) VM wholesale —
	// runStep already drained its in-flight DMAs — and restore the last
	// completed step into a fresh one. Rebuilding re-materializes
	// persistent tensors exactly as NewTrainer did, so restoring the
	// snapshot yields bit-identical state to a fresh trainer that
	// loaded the same checkpoint.
	tr.freshVM()
	if err := tr.Load(bytes.NewReader(tr.snap)); err != nil {
		return fmt.Errorf("exec: rollback: %w", err)
	}
	return nil
}

// RetuneRequest describes a mid-run plan change for Trainer.Retune.
// Zero fields keep the current value. A microbatch reshape must
// preserve the per-replica batch (MicrobatchSize × Microbatches), so
// the Step input contract is unchanged apart from the slicing.
type RetuneRequest struct {
	MicrobatchSize int
	Microbatches   int
}

// Retune swaps the trainer's execution plan between iterations: it
// rebuilds the task graph and schedule for the requested microbatch
// shape under the current options, runs the full schedcheck preflight
// on the candidate plan, and adopts it only if verification passes. An
// infeasible retune returns the verifier's Gantt counterexample and
// leaves the running plan untouched — the next Step continues exactly
// as before. Training state survives adoption: weights, optimizer
// state and the step counter round-trip through the
// microbatch-independent checkpoint format into a fresh VM.
//
// Call only between Steps (same non-concurrency contract as Step).
func (tr *Trainer) Retune(req RetuneRequest) error {
	mbs, mbc := tr.cfg.MicrobatchSize, tr.cfg.Microbatches
	if req.MicrobatchSize > 0 {
		mbs = req.MicrobatchSize
	}
	if req.Microbatches > 0 {
		mbc = req.Microbatches
	}
	if mbs*mbc != tr.cfg.MicrobatchSize*tr.cfg.Microbatches {
		return fmt.Errorf("exec: retune must preserve the per-replica batch: %d×%d != %d×%d",
			mbs, mbc, tr.cfg.MicrobatchSize, tr.cfg.Microbatches)
	}
	if mbs == tr.cfg.MicrobatchSize {
		return nil
	}

	// Build and verify the candidate plan without touching the live
	// one: any failure below this point leaves the trainer unchanged.
	g2, err := graph.Build(graph.Config{
		Model:          kernelModel(tr.layers, tr.cfg.Optimizer == Adam),
		MicrobatchSize: mbs,
		Microbatches:   mbc,
		Replicas:       tr.g.Cfg.Replicas,
	})
	if err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	s2, err := sched.Build(g2, tr.s.Opts, tr.cfg.Devices)
	if err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	streams2, err := executorStreams(s2)
	if err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}
	// The candidate must be live and fit under the live device binding
	// (post-recovery, several streams may share a survivor). The full
	// preflight proves both; with verification off they are still
	// checked on their own.
	topo := tr.topology()
	if !tr.cfg.NoVerify {
		if verr := schedcheck.Check(s2, topo).Err(); verr != nil {
			return fmt.Errorf("exec: retune rejected by preflight verification (plan unchanged):\n%w", verr)
		}
	} else {
		if err := schedcheck.Liveness(g2.Tasks, streams2); err != nil {
			return fmt.Errorf("exec: retune: %w", err)
		}
		if err := schedcheck.Residency(s2, topo); err != nil {
			return fmt.Errorf("exec: retune: %w", err)
		}
	}

	// The new graph's tensors need a fresh VM; carry the training state
	// across in the checkpoint format (captured while the old graph's
	// tensor handles are still live).
	var snap bytes.Buffer
	if err := tr.Save(&snap); err != nil {
		return fmt.Errorf("exec: retune: %w", err)
	}

	// ---- adopt ----
	tr.cfg.MicrobatchSize, tr.cfg.Microbatches = mbs, mbc
	tr.g, tr.s, tr.streams = g2, s2, streams2
	tr.comm = buildCommPlan(s2)
	tr.validated, tr.valErr = true, nil // liveness just proven
	tr.armPrefetch()
	tr.freshVM() // step boundary: WaitIdle already drained in-flight DMAs
	if err := tr.Load(&snap); err != nil {
		return fmt.Errorf("exec: retune state restore: %w", err)
	}
	if tr.cfg.Recover {
		return tr.snapshot()
	}
	return nil
}

// maxViews bounds a compute task's declared inputs or outputs
// (Backward reads W, dW, stash and dY), so a kernel's views travel in
// fixed-size arrays instead of per-task slices.
const maxViews = 4

// runTask executes one compute task with real kernels. It returns a
// loss value when the task is the final layer's backward (which owns
// the loss computation). The task's declaration is its access plan:
// acquire pins t.Inputs and t.Outputs, the kernel runs on views bound
// by declared position, release retires them — the same footprint
// schedcheck's residency proof sums, so a plan admitted at its proven
// bound runs at it.
func (tr *Trainer) runTask(dev int, t *graph.Task, labels [][][]int) (float32, bool, error) {
	if t.Kind > graph.Update || len(t.Inputs) > maxViews || len(t.Outputs) > maxViews {
		return 0, false, fmt.Errorf("exec: unexpected task kind %v in queue", t.Kind)
	}
	// Late binding happens here: dev is the schedule's virtual device;
	// all memory traffic below targets the physical device backing it.
	dev = tr.pdev(dev)
	if err := tr.injectOp(fault.Kernel, dev, t.Layer); err != nil {
		return 0, false, err
	}
	if r := tr.rec; r != nil {
		start := tr.vm.clk.Now()
		defer func() { r.add(dev, trace.Compute, t.String(), start, tr.vm.clk.Now()) }()
	}
	layer := tr.layers[t.Layer]
	batch := tr.cfg.MicrobatchSize
	var dy []float32
	var loss float32
	var zeroed *tensor.Tensor
	counted := t.Kind == graph.Backward && t.Layer == len(tr.layers)-1
	if counted {
		// The loss read is the one undeclared access: the final backward
		// turns the logits (which it only frees) and the labels into the
		// loss gradient. It finishes — logits unpinned — before the
		// declared footprint is acquired, so the two are never held
		// together.
		logits := tr.g.Act[t.Replica][t.Layer+1][t.Microbatch]
		y, err := tr.vm.Ensure(dev, logits)
		if err != nil {
			return 0, false, err
		}
		dy = nn.GetScratch(batch * tr.classes)
		defer nn.PutScratch(dy)
		loss = nn.SoftmaxXent(y, labels[t.Replica][t.Microbatch], dy, batch, tr.classes)
		if err := tr.vm.Unpin(logits); err != nil {
			return 0, false, err
		}
	}
	var in, out [maxViews][]float32
	if err := tr.acquire(t, dev, in[:len(t.Inputs)], out[:len(t.Outputs)]); err != nil {
		return 0, false, err
	}
	switch t.Kind {
	case graph.Forward: // W, x → y, stash
		layer.Forward(in[0], in[1], out[0], out[1], batch)
	case graph.Backward: // W, dW, stash, dY → dx
		if !counted {
			dy = in[3]
		}
		layer.Backward(in[0], in[2], dy, out[0], in[1], batch)
	case graph.Update: // W, dW, K
		n := layer.ParamCount()
		if tr.cfg.Optimizer == Adam {
			nn.Adam(in[0][:n], in[1][:n], in[2][:n], in[2][n:2*n], tr.cfg.LR, 0.9, 0.999, 1e-8, tr.step)
		} else {
			nn.SGD(in[0][:n], in[1][:n], tr.cfg.LR)
		}
		// Both optimizers end by resetting the gradient they applied
		// (Fig. 5(a)'s "Reset dW′"; a checkpoint already omits dW on the
		// strength of it), so from here to the next backward the VM need
		// not move the page.
		zeroed = t.Inputs[1]
	}
	return loss, counted, tr.release(t, zeroed)
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
// mutations are marked dirty — zeroed, when non-nil, is the one of them
// the kernel left all zeros, and is marked so instead — inputs and
// outputs unpinned, and tensors whose last use this was destroyed. A
// failure here is a plumbing bug, but it surfaces as a returned error
// (not a panic) so the executor can abort the iteration cleanly and the
// recovery layer can decide what to do with it.
func (tr *Trainer) release(t *graph.Task, zeroed *tensor.Tensor) error {
	for _, x := range t.Mutates {
		if x.Bytes == 0 {
			continue
		}
		var err error
		if x == zeroed {
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
		w, err := tr.vm.Host(tr.g.W[0][l])
		if err != nil {
			if prev != nil {
				nn.PutScratch(prev)
			}
			return nil, err
		}
		y := nn.GetScratch(batch * layer.OutSize())
		stash := nn.GetScratch(batch * layer.StashSize())
		layer.Forward(w, x, y, stash, batch)
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
