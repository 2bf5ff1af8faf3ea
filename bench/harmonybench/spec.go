package main

// This file is the benchmark's declaration: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// ledger. BENCHMARK.json at the repository root says the same thing in
// the driver's format (`harmonybench -declare` prints it, and a test
// holds the two together).

const (
	wCompute  = "train-compute"
	wSwapLink = "train-swap-link"
	wPPLink   = "train-pp-link"
	wComm     = "train-comm"
	wSim      = "sim-sweep"
	wLint     = "lint-tree"
)

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{wCompute, "Footprint fits device memory, so nn kernels are ~90% of the step and the DMA engine idles: kernel and dispatch gains show here, swap gains must not."},
	{wSwapLink, "5 MiB model on a 4 MiB device behind a 128 MiB/s modeled link: prefetch and eviction policy (how much link time is hidden) decide the step."},
	{wPPLink, "Pipeline schedule on two devices with p2p activations and a 96 MiB/s host link: the only real-trainer run of HarmonyPP and the p2p path."},
	{wComm, "Four replicas, ~19 MB of gradients against a batch of 4: chunked collectives and the comm plan do the work, swap does none."},
	{wSim, "The simulator front door as the figures and the tuner use it: a 15-cell Simulate grid, three closed-form cells and one exhaustive Tune per op."},
	{wLint, "harmonylint on the live tree: set-up is one cold lint (the loader is 98% of it), an op is the twelve passes over the loaded tree, the repo's own analyzer code."},
}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none. On lists the workloads a per-layer metric is measured
// on; everywhere else it reads 0.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     []string
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
}

var (
	trainAll   = []string{wCompute, wSwapLink, wPPLink, wComm}
	everywhere = []string{wCompute, wSwapLink, wPPLink, wComm, wSim, wLint}
	multiDev   = []string{wCompute, wPPLink, wComm}
	swapBound  = []string{wSwapLink, wPPLink}
	oneDevSwap = []string{wSwapLink}
	linked     = []string{wSwapLink, wPPLink, wComm}
)

// lintPasses are the analyzers timed alone on lint-tree. A pass a
// later change folds away reads 0; a new one is printed, not declared.
var lintPasses = []string{
	"lockhold", "claimdiscipline", "determinism", "hygiene", "errcheck", "adaptinputs",
	"lockorder", "chanlife", "atomicproto", "pinbalance", "claimlife", "errpath",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(on []string, better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better, On: on})
		}
	}
	// A speed-up from 3 reference repetitions: median, min and max.
	speedup := func(on []string, name string) {
		add(on, higher, "x", name, name+"_min", name+"_max")
	}

	add(everywhere, lower, "ms", "harmony.op_ms_p90", "harmony.op_ms_max")
	add(everywhere, lower, "KiB", "harmony.alloc_kb_per_op")
	add(everywhere, lower, "count", "harmony.allocs_per_op", "harmony.gc_cycles_per_100_ops")
	add(trainAll, lower, "ms", "harmony.newtrainer_ms", "harmony.preflight_ms", "harmony.warmup_ms")
	add([]string{wCompute, wSwapLink, wPPLink, wComm, wSim}, lower, "ratio", "harmony.trace_overhead_frac")
	add(multiDev, lower, "ms", "harmony.serial_op_ms_p50")
	add(trainAll, lower, "loss", "harmony.loss_first", "harmony.loss_last")

	add(trainAll, lower, "ms", "nn.kernel_floor_ms_per_step")
	add(trainAll, higher, "ratio", "nn.share")
	add(trainAll, higher, "GFLOP/s", "nn.dense_fwd_gflops", "nn.dense_bwd_gflops")
	add(trainAll, higher, "GB/s", "nn.sgd_gb_per_s")
	add(trainAll, lower, "us", "nn.softmax_xent_us")

	add(trainAll, lower, "count", "exec.tasks_per_step")
	add([]string{wCompute, wSwapLink}, lower, "us", "exec.dispatch_us_per_task")
	add(trainAll, higher, "ratio", "exec.task_busy_frac")
	add(trainAll, lower, "ratio", "exec.idle_frac")
	add(trainAll, lower, "ms", "exec.residual_ms_per_step")
	speedup(multiDev, "exec.parallel_speedup_vs_serial")

	add(trainAll, lower, "KiB", "exec.vm.swap_in_kb_per_step", "exec.vm.swap_out_kb_per_step", "exec.vm.p2p_kb_per_step")
	add(trainAll, lower, "count", "exec.vm.drops_per_step", "exec.vm.retries")
	add(trainAll, lower, "ms", "exec.vm.demand_swapin_ms_per_step", "exec.vm.swapout_ms_per_step")
	add([]string{wCompute}, lower, "ns", "exec.vm.ensure_hit_ns", "exec.vm.ensure_hit_ns_2dev")
	add(oneDevSwap, lower, "us", "exec.vm.ensure_miss_us")

	add(trainAll, lower, "count", "exec.dma.prefetch_issued_per_step")
	add(trainAll, higher, "ratio", "exec.dma.prefetch_hit_ratio")
	add(trainAll, lower, "count", "exec.dma.clean_aheads_per_step")
	add(trainAll, higher, "ratio", "exec.dma.overlap_frac")
	add(oneDevSwap, lower, "us", "exec.dma.async_roundtrip_us")
	speedup(swapBound, "exec.dma.prefetch_speedup_vs_sync")
	speedup(oneDevSwap, "exec.dma.adaptive_speedup_vs_static")
	add(oneDevSwap, lower, "count", "exec.dma.adapt_resizes")

	add(trainAll, lower, "count", "exec.link.transfers_per_step")
	add([]string{wSwapLink, wPPLink}, lower, "ms", "exec.link.modeled_ms_per_step")
	add([]string{wSwapLink}, lower, "ms", "exec.link.exposed_ms_per_step", "exec.link.overshoot_ms_per_step")
	add(linked, lower, "us", "exec.link.sleep_floor_us")

	add([]string{wComm}, lower, "count", "exec.comm.chunks_per_step")
	add([]string{wComm}, lower, "MiB", "exec.comm.reduced_mb_per_step")
	add([]string{wComm}, lower, "ms", "exec.comm.busy_ms_per_step")
	add([]string{wComm}, higher, "ratio", "exec.comm.overlap_frac")
	speedup([]string{wComm}, "exec.comm.speedup_vs_monolithic")
	add([]string{wComm}, lower, "ms", "exec.checkpoint.save_ms", "exec.checkpoint.load_ms")

	sim := []string{wSim}
	add(sim, lower, "ms", "graph.build_ms", "sched.build_ms", "schedcheck.check_ms")
	add(sim, lower, "count", "graph.tasks")
	add(sim, higher, "1/s", "sim.engine_events_per_s")
	add(sim, lower, "ns", "sim.fifo_acquire_ns", "memory.acquire_resident_ns", "memory.acquire_evict_ns")
	add(sim, lower, "us", "collective.ring_allreduce_host_us")
	add(sim, lower, "ms", "runtime.run_ms_dp4", "runtime.run_ms_pp4")
	add(sim, lower, "ratio", "runtime.plan_share")
	add(sim, lower, "KiB", "runtime.alloc_kb_per_simulate")
	add(sim, lower, "count", "runtime.allocs_per_simulate")
	add(sim, lower, "ms", "runtime.slowest_cell_ms", "tuner.run_ms", "tuner.hillclimb_ms")

	lint := []string{wLint}
	add(lint, lower, "ms", "analyzers.load_ms", "analyzers.passes_ms")
	add(lint, lower, "ratio", "analyzers.load_share")
	for _, p := range lintPasses {
		add(lint, lower, "ms", "analyzers.pass."+p+"_ms")
	}
	add(lint, lower, "count", "analyzers.packages", "analyzers.findings")
	add(lint, lower, "kLoC", "analyzers.kloc")
	return out
}

// declaration is BENCHMARK.json.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []declMetric   `json:"end_to_end"`
	PerLayer   []declMetric   `json:"per_layer"`
}

type declMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 12

func declare() declaration {
	d := declaration{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		b := m.Bound
		d.EndToEnd = append(d.EndToEnd, declMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, declMetric{m.Name, m.Unit, m.Better, nil})
	}
	return d
}
