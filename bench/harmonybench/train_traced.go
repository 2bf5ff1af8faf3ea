package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"harmony"
	"harmony/internal/trace"
)

// allocOps is how many steps the allocation counters are read across.
// Their batches are generated beforehand so that everything allocated
// in the window is the program's.
const allocOps = 20

// runTrainTraced fills the per-layer ledger for one train-* workload:
// an untraced stretch (op tail, allocations, counters), a stretch with
// the trainer's own tracing on (lanes), reference variants of the same
// config, and the micro-probes this workload owns.
func runTrainTraced(c *runCtx, spec trainSpec, cfg harmony.TrainerConfig) error {
	if err := probeNewTrainer(c, cfg); err != nil {
		return err
	}
	s, err := setUp(c, cfg)
	if err != nil {
		return err
	}
	defer s.tr.Close()
	c.emit("harmony.warmup_ms", sum(s.ms[:warmupSteps]))

	vm0, comm0 := s.tr.Stats(), s.tr.CommStats()
	first := len(s.ms)

	// Untraced half: allocation window first, then the clock.
	n := c.n(allocOps, 2)
	s.pregenerate(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	stepErr := s.steps(n)
	runtime.ReadMemStats(&m1)
	if stepErr == nil {
		stepErr = s.stepsFor(c, c.seconds/2-time.Since(start).Seconds(), 0)
	}
	untraced := s.ms[first:]
	emitAllocs(c, "harmony.alloc_kb_per_op", "harmony.allocs_per_op", &m0, &m1, n)
	c.emit("harmony.gc_cycles_per_100_ops", 100*float64(m1.NumGC-m0.NumGC)/float64(n))

	// Traced quarter: the trainer records its lanes.
	tracedFrom := len(s.ms)
	var tl *trace.Trace
	if stepErr == nil {
		tl = s.tr.EnableTrace()
		stepErr = s.stepsFor(c, c.seconds/4, 2)
	}
	traced := s.ms[tracedFrom:]
	c.attempted = len(s.ms) - first
	if stepErr != nil {
		c.problem("step %d: %v", len(s.ms), stepErr)
		return nil
	}
	for _, msg := range checkLosses(s.losses, nil, -1) {
		c.problem("%s", msg)
	}
	vm1, comm1 := s.tr.Stats(), s.tr.CommStats()

	printTiming(c, "untraced op_ms", untraced)
	printTiming(c, "traced op_ms", traced)
	p50 := median(untraced)
	c.emit("harmony.op_ms_p90", percentile(untraced, 0.9))
	c.emit("harmony.op_ms_max", percentile(untraced, 1))
	c.emit("harmony.trace_overhead_frac", median(traced)/p50-1)
	c.emit("harmony.loss_first", float64(s.losses[first]))
	c.emit("harmony.loss_last", float64(s.losses[len(s.losses)-1]))

	steps := float64(len(untraced) + len(traced))
	wallMS := sum(untraced) + sum(traced)
	emitCounters(c, cfg, vm0, vm1, steps, wallMS)

	data, err := tl.ChromeTrace()
	if err != nil {
		return err
	}
	if err := writeFile(fmt.Sprintf("%s/%s.trace.json", c.outDir, c.workload), data); err != nil {
		return err
	}
	lanes := laneTimes(tl, cfg.Devices, float64(len(traced)), sum(traced))
	c.emit("exec.tasks_per_step", lanes.tasksPerStep)
	c.emit("exec.task_busy_frac", lanes.computeFrac)
	c.emit("exec.idle_frac", lanes.idleFrac)
	c.emit("exec.vm.demand_swapin_ms_per_step", lanes.swapInMS)
	c.emit("exec.vm.swapout_ms_per_step", lanes.swapOutMS)

	kern, err := replayKernels(c, cfg)
	if err != nil {
		return err
	}
	c.emit("nn.kernel_floor_ms_per_step", kern.floorMS)
	c.emit("nn.share", kern.floorMS/p50)
	c.emit("nn.dense_fwd_gflops", kern.fwdGFLOPS)
	c.emit("nn.dense_bwd_gflops", kern.bwdGFLOPS)
	c.emit("nn.sgd_gb_per_s", kern.sgdGBps)
	c.emit("nn.softmax_xent_us", kern.xentUS)
	// What is left of the step once the kernels, each device's own
	// demand-swap stalls and the collectives nothing overlapped are
	// taken out: the runtime's own overhead.
	commOverlap := tl.CommOverlapFraction()
	exposedComm := lanes.commUnionMS * (1 - commOverlap)
	c.emit("exec.residual_ms_per_step", p50-kern.floorMS-(lanes.swapInMS+lanes.swapOutMS)/float64(cfg.Devices)-exposedComm)

	if c.on("exec.comm.chunks_per_step") {
		c.emit("exec.comm.chunks_per_step", float64(comm1.ChunksReduced-comm0.ChunksReduced)/steps)
		c.emit("exec.comm.reduced_mb_per_step", float64(comm1.BytesReduced-comm0.BytesReduced)/steps/(1<<20))
		c.emit("exec.comm.busy_ms_per_step", lanes.commMS)
		c.emit("exec.comm.overlap_frac", commOverlap)
	}
	if c.on("exec.checkpoint.save_ms") {
		if err := probeCheckpoint(c, s.tr); err != nil {
			return err
		}
	}
	if err := runReferences(c, spec, cfg, p50); err != nil {
		return err
	}
	return runTrainProbes(c, cfg)
}

// emitAllocs reports heap traffic per unit of work between two
// MemStats readings that bracket n units.
func emitAllocs(c *runCtx, kbName, countName string, m0, m1 *runtime.MemStats, n int) {
	c.emit(kbName, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(n))
	c.emit(countName, float64(m1.Mallocs-m0.Mallocs)/float64(n))
}

// emitCounters turns the VM's exact counters over `steps` steps into
// per-step numbers. The link's modeled time is bytes over bandwidth:
// what the transfers would cost with nothing hidden.
func emitCounters(c *runCtx, cfg harmony.TrainerConfig, a, b harmony.Stats, steps, wallMS float64) {
	c.emit("exec.vm.swap_in_kb_per_step", float64(b.SwapInBytes-a.SwapInBytes)/1024/steps)
	c.emit("exec.vm.swap_out_kb_per_step", float64(b.SwapOutBytes-a.SwapOutBytes)/1024/steps)
	c.emit("exec.vm.p2p_kb_per_step", float64(b.P2PBytes-a.P2PBytes)/1024/steps)
	c.emit("exec.vm.drops_per_step", float64(b.Drops-a.Drops)/steps)
	c.emit("exec.vm.retries", float64(b.Retries-a.Retries))
	issued := float64(b.PrefetchIssued - a.PrefetchIssued)
	c.emit("exec.dma.prefetch_issued_per_step", issued/steps)
	hitRatio := 0.0
	if issued > 0 {
		hitRatio = float64(b.PrefetchHits-a.PrefetchHits) / issued
	}
	c.emit("exec.dma.prefetch_hit_ratio", hitRatio)
	c.emit("exec.dma.clean_aheads_per_step", float64(b.CleanAheads-a.CleanAheads)/steps)
	c.emit("exec.dma.overlap_frac", float64(b.AsyncDMANanos-a.AsyncDMANanos)/1e6/wallMS)
	c.emit("exec.link.transfers_per_step", float64((b.SwapIns-a.SwapIns)+(b.SwapOuts-a.SwapOuts)+(b.P2PMoves-a.P2PMoves))/steps)
	if c.on("exec.link.modeled_ms_per_step") {
		c.emit("exec.link.modeled_ms_per_step", modeledLinkMS(cfg, a, b, steps))
	}
}

func modeledLinkMS(cfg harmony.TrainerConfig, a, b harmony.Stats, steps float64) float64 {
	bytes := float64((b.SwapInBytes - a.SwapInBytes) + (b.SwapOutBytes - a.SwapOutBytes) + (b.P2PBytes - a.P2PBytes))
	return bytes / float64(cfg.LinkBytesPerSec) * 1e3 / steps
}

// laneSummary is the trainer's trace reduced to per-step numbers.
// Each is built from per-device interval unions: the compute lane's
// span covers the whole task, demand-swap stall included, so kernel
// time comes from the nn replay, not from here.
type laneSummary struct {
	tasksPerStep float64
	computeFrac  float64 // compute lane busy, share of devices × wall
	idleFrac     float64 // no task and no collective running
	swapInMS     float64 // demand swap-in and p2p, summed over devices
	swapOutMS    float64 // demand write-back (not clean-ahead)
	commMS       float64 // collectives, summed over devices
	commUnionMS  float64 // collectives, union across devices
}

func laneTimes(tl *trace.Trace, devices int, steps, wallMS float64) laneSummary {
	// union returns the matching spans' busy time in ms: per device
	// then summed, and across all devices at once.
	union := func(match func(trace.Event) bool) (perDev, global float64) {
		by := make(map[int][]interval)
		var all []interval
		for _, e := range tl.Events {
			if match(e) {
				iv := interval{float64(e.Start), float64(e.End)}
				by[int(e.Dev)] = append(by[int(e.Dev)], iv)
				all = append(all, iv)
			}
		}
		for _, iv := range by {
			perDev += unionLen(iv)
		}
		return perDev * 1e3, unionLen(all) * 1e3
	}
	lane := func(ls ...trace.Lane) func(trace.Event) bool {
		return func(e trace.Event) bool {
			for _, l := range ls {
				if e.Lane == l {
					return true
				}
			}
			return false
		}
	}
	var out laneSummary
	tasks := 0
	for _, e := range tl.Events {
		if e.Lane == trace.Compute || e.Lane == trace.Comms {
			tasks++
		}
	}
	out.tasksPerStep = float64(tasks) / steps
	compute, _ := union(lane(trace.Compute))
	working, _ := union(lane(trace.Compute, trace.Comms))
	out.computeFrac = compute / (float64(devices) * wallMS)
	out.idleFrac = 1 - working/(float64(devices)*wallMS)
	in, _ := union(lane(trace.SwapIn, trace.P2P))
	out.swapInMS = in / steps
	// Clean-ahead write-backs share the swap-out lane but run on the
	// DMA workers; the executor labels them "cl".
	wb, _ := union(func(e trace.Event) bool { return e.Lane == trace.SwapOut && strings.HasPrefix(e.Label, "out ") })
	out.swapOutMS = wb / steps
	comm, commAll := union(lane(trace.Comms))
	out.commMS = comm / steps
	out.commUnionMS = commAll / steps
	return out
}

// probeNewTrainer times NewTrainer with and without the schedcheck
// preflight; the difference is what verification adds to set-up.
func probeNewTrainer(c *runCtx, cfg harmony.TrainerConfig) error {
	defer c.spans.begin("probe NewTrainer")()
	build := func(noVerify bool) (float64, error) {
		cfg := cfg
		cfg.NoVerify = noVerify
		start := time.Now()
		tr, err := harmony.NewTrainer(cfg)
		ms := time.Since(start).Seconds() * 1e3
		if err != nil {
			return 0, err
		}
		tr.Close()
		return ms, nil
	}
	var verified, bare []float64
	for i := 0; i < c.n(7, 1); i++ {
		v, err := build(false)
		if err != nil {
			return err
		}
		b, err := build(true)
		if err != nil {
			return err
		}
		verified, bare = append(verified, v), append(bare, b)
	}
	// The fastest of each: a few ms of NewTrainer sit under a GC
	// cycle's worth of noise, which a median of seven still carries.
	c.emit("harmony.newtrainer_ms", slices.Min(verified))
	c.emit("harmony.preflight_ms", slices.Min(verified)-slices.Min(bare))
	return nil
}

// variant is one reference configuration of a workload.
type variant struct {
	name string
	set  func(*harmony.TrainerConfig)
}

var (
	vDefault    = variant{"default", func(*harmony.TrainerConfig) {}}
	vSerial     = variant{"serial", func(c *harmony.TrainerConfig) { c.Serial = true }}
	vSync       = variant{"sync", func(c *harmony.TrainerConfig) { c.PrefetchDepth = -1 }}
	vAdaptive   = variant{"adaptive", func(c *harmony.TrainerConfig) { c.AdaptivePrefetch = true }}
	vRaw        = variant{"raw", func(c *harmony.TrainerConfig) { c.LinkBytesPerSec = 0 }}
	vRawSync    = variant{"raw-sync", func(c *harmony.TrainerConfig) { c.LinkBytesPerSec = 0; c.PrefetchDepth = -1 }}
	vMonolithic = variant{"monolithic", func(c *harmony.TrainerConfig) { c.CommChunks = 0; c.CommBucketBytes = 0 }}
)

var referenceVariants = map[string][]variant{
	wCompute:  {vSerial, vDefault},
	wSwapLink: {vSync, vDefault, vAdaptive, vRaw, vRawSync},
	wPPLink:   {vSerial, vSync, vDefault},
	wComm:     {vSerial, vMonolithic, vDefault},
}

// refRun is what one repetition of one variant measured.
type refRun struct {
	ms      float64 // median step
	losses  []float32
	stats   harmony.Stats
	resizes int
}

// runReferences re-derives CHANGES.md's speed-up claims with their
// spread: every variant of the workload trains refSteps steps from
// scratch, three times over, variants interleaved so that drift in the
// machine falls on all of them alike. Every variant must reproduce
// the same losses bit for bit — none of them changes the math.
func runReferences(c *runCtx, spec trainSpec, cfg harmony.TrainerConfig, p50 float64) error {
	variants := referenceVariants[c.workload]
	steps := c.n(spec.refSteps, 1)
	stepMS := make(map[string][]float64) // per variant, one median per repetition
	first := make(map[string]refRun)     // per variant, the first repetition
	for rep := 0; rep < c.n(3, 1); rep++ {
		for _, v := range variants {
			end := c.spans.begin("reference " + v.name)
			r, err := runVariant(c, cfg, v, steps)
			end()
			if err != nil {
				return fmt.Errorf("reference %s: %w", v.name, err)
			}
			if rep == 0 {
				first[v.name] = r
			}
			stepMS[v.name] = append(stepMS[v.name], r.ms)
			for _, msg := range checkLosses(r.losses, first[variants[0].name].losses, -1) {
				c.problem("reference %s against %s: %s", v.name, variants[0].name, msg)
			}
		}
	}
	for _, v := range variants {
		ms := stepMS[v.name]
		fmt.Fprintf(c.out, "reference %-10s step ms min/median/max %.3f / %.3f / %.3f\n", v.name, percentile(ms, 0), median(ms), percentile(ms, 1))
	}
	// speedup reports slow÷fast per repetition as median, min and max.
	speedup := func(name, slow, fast string) {
		var r []float64
		for i := range stepMS[fast] {
			r = append(r, stepMS[slow][i]/stepMS[fast][i])
		}
		c.emit(name, median(r))
		c.emit(name+"_min", percentile(r, 0))
		c.emit(name+"_max", percentile(r, 1))
	}
	if c.on("exec.parallel_speedup_vs_serial") {
		speedup("exec.parallel_speedup_vs_serial", "serial", "default")
		c.emit("harmony.serial_op_ms_p50", median(stepMS["serial"]))
	}
	if c.on("exec.dma.prefetch_speedup_vs_sync") {
		speedup("exec.dma.prefetch_speedup_vs_sync", "sync", "default")
	}
	if c.on("exec.dma.adaptive_speedup_vs_static") {
		speedup("exec.dma.adaptive_speedup_vs_static", "default", "adaptive")
		c.emit("exec.dma.adapt_resizes", float64(first["adaptive"].resizes))
	}
	if c.on("exec.comm.speedup_vs_monolithic") {
		speedup("exec.comm.speedup_vs_monolithic", "monolithic", "default")
	}
	if c.on("exec.link.exposed_ms_per_step") {
		// The link's cost, split three ways. Hidden: modeled minus
		// exposed. Exposed: what the link adds to the step with
		// prefetch on. Overshoot: what the sleep-modeled link costs a
		// fully serialized run beyond its bytes over bandwidth.
		c.emit("exec.link.exposed_ms_per_step", p50-median(stepMS["raw"]))
		modeled := modeledLinkMS(cfg, harmony.Stats{}, first["sync"].stats, float64(steps+1))
		c.emit("exec.link.overshoot_ms_per_step", median(stepMS["sync"])-median(stepMS["raw-sync"])-modeled)
	}
	return nil
}

// runVariant trains a fresh trainer for one warm-up step and `steps`
// timed ones.
func runVariant(c *runCtx, cfg harmony.TrainerConfig, v variant, steps int) (refRun, error) {
	v.set(&cfg)
	s, err := newSession(cfg, c.seed)
	if err != nil {
		return refRun{}, err
	}
	defer s.tr.Close()
	if err := s.steps(1 + steps); err != nil {
		return refRun{}, err
	}
	r := refRun{ms: median(s.ms[1:]), losses: s.losses, stats: s.tr.Stats()}
	for _, w := range s.tr.AdaptStats() {
		r.resizes += w.Resizes
	}
	return r, nil
}
