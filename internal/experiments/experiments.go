// Package experiments defines one runnable experiment per table and
// figure in the paper, mapping workloads and parameters (DESIGN.md's
// per-experiment index) onto the simulator and returning structured
// rows that cmd/figures renders and this package's tests pin.
package experiments

import (
	"fmt"
	"math"

	"harmony/internal/analytic"
	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/models"
	"harmony/internal/runtime"
	"harmony/internal/sched"
	"harmony/internal/sweep"
	"harmony/internal/trace"
)

// GB converts bytes to gigabytes for reporting.
func GB(b int64) float64 { return float64(b) / (1 << 30) }

// run plans one configuration on all of box's GPUs and executes one
// measured simulation.
func run(model *models.Model, opts sched.Options, box hw.BoxConfig,
	mbSize, mbCount, warmup, measure int) (*runtime.Result, error) {
	s, err := sched.Plan(graph.Config{Model: model, MicrobatchSize: mbSize, Microbatches: mbCount}, opts, box.TotalGPUs())
	if err != nil {
		return nil, err
	}
	return runtime.Run(runtime.Config{
		Box:          box,
		Schedule:     s,
		WarmupIters:  warmup,
		MeasureIters: measure,
	})
}

// ---------------------------------------------------------------- FIG1

// Fig1Row is one model of the growth chart.
type Fig1Row struct {
	Name   string
	Year   int
	Params int64
	// Log10Params drives the paper's log-scale axis.
	Log10Params float64
}

// Fig1 reproduces Fig. 1: DNN model size growth over two decades.
func Fig1() []Fig1Row {
	var out []Fig1Row
	for _, z := range models.Zoo() {
		out = append(out, Fig1Row{
			Name: z.Name, Year: z.Year, Params: z.Params,
			Log10Params: math.Log10(float64(z.Params)),
		})
	}
	return out
}

// ---------------------------------------------------------------- FIG2A

// Fig2aRow is one GPU-count point of Fig. 2(a): DP training of BERT
// with per-GPU memory virtualization.
type Fig2aRow struct {
	GPUs int
	// Throughput is global sequences/second; SwapOutGB the global
	// per-iteration swap-out volume, as in the paper's two series.
	Throughput float64
	SwapOutGB  float64
	// HostLinkSaturation is swap time / iteration time on the shared
	// host link (diagnostic of the bottleneck).
	IterSeconds float64
}

// Fig2aConfig parameterizes the experiment; Default matches the
// paper: BERT (our BERT-48 stand-in), per-GPU batch size 5, four
// 1080Ti GPUs.
type Fig2aConfig struct {
	Model       *models.Model
	BatchPerDev int
	GPUCounts   []int
	Measure     int
}

// DefaultFig2a returns the paper's setup.
func DefaultFig2a() Fig2aConfig {
	return Fig2aConfig{
		Model:       models.BERT48(),
		BatchPerDev: 5,
		GPUCounts:   []int{1, 2, 3, 4},
		Measure:     2,
	}
}

// Fig2a runs DP-baseline training across GPU counts. Expected shape:
// swap volume grows linearly with N while throughput saturates far
// below linear scaling (the shared host link throttles it).
func Fig2a(cfg Fig2aConfig) ([]Fig2aRow, error) {
	var rows []Fig2aRow
	for _, n := range cfg.GPUCounts {
		res, err := run(cfg.Model, sched.DefaultOptions(sched.DPBaseline),
			hw.Commodity1080TiBox(n), cfg.BatchPerDev, 1, 1, cfg.Measure)
		if err != nil {
			return nil, fmt.Errorf("fig2a n=%d: %w", n, err)
		}
		rows = append(rows, Fig2aRow{
			GPUs:        n,
			Throughput:  res.Throughput,
			SwapOutGB:   GB(res.SwapOutBytes),
			IterSeconds: float64(res.IterTime),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- FIG2C

// Fig2cRow is one GPU of Fig. 2(c): per-stage memory demand and swap
// traffic for pipeline-parallel training with per-GPU virtualization.
type Fig2cRow struct {
	GPU        int
	Layers     int
	DemandGB   float64 // peak working set (resident + swapped live)
	CapacityGB float64
	SwapOutGB  float64 // per-iteration swap-out from this stage
	OverCap    bool
	// Timeline is a sparkline of resident bytes over the run ('!'
	// marks buckets whose demand exceeded capacity).
	Timeline string
}

// Fig2c runs PP-baseline (1F1B) BERT training on 4 GPUs. Expected
// shape: the head stage's demand exceeds capacity (heavy swap), the
// tail stage fits (no/light swap) — unbalanced swap load.
func Fig2c(model *models.Model, microbatches int) ([]Fig2cRow, error) {
	const n = 4
	box := hw.Commodity1080TiBox(n)
	s, err := sched.Plan(graph.Config{Model: model, MicrobatchSize: 5, Microbatches: microbatches},
		sched.DefaultOptions(sched.PPBaseline), n)
	if err != nil {
		return nil, err
	}
	res, err := runtime.Run(runtime.Config{Box: box, Schedule: s, WarmupIters: 1, MeasureIters: 2, CaptureUsage: true})
	if err != nil {
		return nil, err
	}
	layerCount := make([]int, n)
	for _, st := range s.StageOfLayer {
		layerCount[st]++
	}
	var rows []Fig2cRow
	for d := 0; d < n; d++ {
		spark := ""
		if res.Usage != nil {
			spark = trace.UsageSparkline(res.Usage[d], 40, box.GPUMemBytes)
		}
		rows = append(rows, Fig2cRow{
			GPU:        d + 1,
			Layers:     layerCount[d],
			DemandGB:   GB(res.PerDevDemand[d]),
			CapacityGB: GB(box.GPUMemBytes),
			SwapOutGB:  GB(res.PerDevSwapOut[d]),
			OverCap:    res.PerDevDemand[d] > box.GPUMemBytes,
			Timeline:   spark,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------- FIG4

// Fig4 reproduces the toy schedule of Fig. 4: a four-layer "large"
// model trained with virtualized pipeline parallelism in Harmony on
// two GPUs with two microbatches, layer-granularity tasks and uniform
// layer runtimes. It returns the Gantt chart of one iteration.
func Fig4() (string, error) {
	// Four identical layers; device memory fits roughly one layer's
	// working set so weights must swap, exactly like the figure.
	model := models.Uniform("fig4", 4, 4_000_000, 8<<20, 64e9)
	box := hw.Commodity1080TiBox(2)
	box.GPUMemBytes = 96 << 20
	s, err := sched.Plan(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 2},
		sched.DefaultOptions(sched.HarmonyPP), 2)
	if err != nil {
		return "", err
	}
	res, err := runtime.Run(runtime.Config{Box: box, Schedule: s, WarmupIters: 0, MeasureIters: 1, CaptureTrace: true})
	if err != nil {
		return "", err
	}
	return res.Trace.Gantt(100), nil
}

// ---------------------------------------------------------------- FIG5

// Fig5Row compares the analytical swap model against the simulator
// for one (mode, m, N) cell.
type Fig5Row struct {
	Mode        string
	M, N        int
	AnalyticW   int64 // paper's ideal closed form, bytes/iteration
	CorrectedW  int64 // boundary-corrected form
	SimulatedW  int64 // measured weight swap volume
	RelErrIdeal float64
	RelErrCorr  float64
}

// Fig5 sweeps microbatch counts and GPU counts over a uniform
// transformer-like model, measuring weight swap volume per iteration
// under each mode and comparing with §3's closed forms.
func Fig5(ms, ns []int) ([]Fig5Row, error) {
	const R = 16
	model := models.Uniform("fig5", R, 1000, 4096, 1e9)
	box := func(n int) hw.BoxConfig {
		b := hw.Commodity1080TiBox(n)
		b.GPUMemBytes = 22 << 10 // one layer-level op at a time (§3)
		return b
	}
	type cell struct {
		m, n int
		mode sched.Mode
	}
	var cells []cell
	for _, m := range ms {
		for _, n := range ns {
			for _, mode := range []sched.Mode{sched.DPBaseline, sched.HarmonyDP, sched.HarmonyPP} {
				if mode.IsPipeline() && n < 2 {
					continue
				}
				cells = append(cells, cell{m, n, mode})
			}
		}
	}
	// Every cell is an independent deterministic simulation: sweep
	// them on all cores.
	rows, err := sweep.Run(cells, 0, func(c cell) (Fig5Row, error) {
		p := analytic.FromModel(model, 1, c.m, c.n)
		// The analytical model assumes the idealized Fig. 5(c)
		// timeline: updates strictly adjacent to the last backward,
		// so deferral is pinned off here.
		opts := sched.DefaultOptions(c.mode)
		opts.DeferBlockedUpdates = false
		res, err := run(model, opts, box(c.n), 1, c.m, 2, 2)
		if err != nil {
			return Fig5Row{}, fmt.Errorf("fig5 %v m=%d n=%d: %w", c.mode, c.m, c.n, err)
		}
		var simW int64
		for d := 0; d < c.n; d++ {
			simW += res.PerDev[d].KindSwapIn[0] + res.PerDev[d].KindSwapOut[0]
		}
		simW /= 4 // warmup 2 + measure 2 iterations, steady state
		ideal := analytic.WeightVolumeIdeal(c.mode, p)
		corr := analytic.WeightVolumeCorrected(c.mode, p)
		return Fig5Row{
			Mode: c.mode.String(), M: c.m, N: c.n,
			AnalyticW: ideal, CorrectedW: corr, SimulatedW: simW,
			RelErrIdeal: relErr(simW, ideal),
			RelErrCorr:  relErr(simW, corr),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func relErr(got, want int64) float64 {
	if want == 0 {
		return 0
	}
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// ---------------------------------------------------------------- EXT1

// Ext1Row extends Fig. 2(a) with the Harmony fix: baseline vs
// Harmony-DP and Harmony-PP throughput and swap volume per GPU count.
type Ext1Row struct {
	GPUs                int
	BaseThroughput      float64
	HarmonyDPThroughput float64
	HarmonyPPThroughput float64
	BaseSwapGB          float64
	HarmonyDPSwapGB     float64
	HarmonyPPSwapGB     float64
}

// Ext1 runs the three modes over GPU counts on the Fig. 2 workload.
// Expected: Harmony-DP reduces swap volume ~(4m+2)/3 per GPU and
// scales better; Harmony-PP's swap volume stays flat in N.
// gpuMemBytes overrides the per-GPU capacity (0 keeps the 1080Ti's
// 11 GB) so scaled-down workloads still exercise the
// footprint-exceeds-memory regime.
func Ext1(model *models.Model, gpuCounts []int, batchPerDev int, gpuMemBytes int64) ([]Ext1Row, error) {
	var rows []Ext1Row
	for _, n := range gpuCounts {
		box := hw.Commodity1080TiBox(n)
		if gpuMemBytes > 0 {
			box.GPUMemBytes = gpuMemBytes
		}
		row := Ext1Row{GPUs: n}

		base, err := run(model, sched.DefaultOptions(sched.DPBaseline), box, batchPerDev, 1, 1, 2)
		if err != nil {
			return nil, fmt.Errorf("ext1 baseline n=%d: %w", n, err)
		}
		row.BaseThroughput = base.Throughput
		row.BaseSwapGB = GB(base.SwapInBytes + base.SwapOutBytes)

		// Harmony decomposes the same per-GPU batch into single-sample
		// microbatches for grouping.
		hdp, err := run(model, sched.DefaultOptions(sched.HarmonyDP), box, 1, batchPerDev, 1, 2)
		if err != nil {
			return nil, fmt.Errorf("ext1 %v n=%d: %w", sched.HarmonyDP, n, err)
		}
		row.HarmonyDPThroughput = hdp.Throughput
		row.HarmonyDPSwapGB = GB(hdp.SwapInBytes + hdp.SwapOutBytes)

		if n >= 2 {
			// Group size = one wave per stage count: pipelines the
			// mini-batch as N waves, the tango sweet spot between
			// swap volume and pipeline bubbles (see the tuner).
			hppOpts := sched.DefaultOptions(sched.HarmonyPP)
			hppOpts.GroupSize = batchPerDev
			hpp, err := run(model, hppOpts, box, 1, batchPerDev*n, 1, 2)
			if err != nil {
				return nil, fmt.Errorf("ext1 %v n=%d: %w", sched.HarmonyPP, n, err)
			}
			row.HarmonyPPThroughput = hpp.Throughput
			row.HarmonyPPSwapGB = GB(hpp.SwapInBytes + hpp.SwapOutBytes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- EXT3

// Ext3Row compares the three parallelism strategies the paper's task
// decomposition enables — data, pipeline, and intra-op sharding — on
// the same workload and server.
type Ext3Row struct {
	Strategy   string
	Throughput float64
	SwapGB     float64
	// WeightTrafficGB isolates the weight class: replication (DP)
	// versus partitioning (PP/TP) is the structural difference.
	WeightTrafficGB float64
}

// Ext3 runs Harmony-DP, Harmony-PP and Harmony-TP on the Fig. 2
// workload at the given GPU count, all with the same global batch.
func Ext3(model *models.Model, gpus, batchPerDev int) ([]Ext3Row, error) {
	box := hw.Commodity1080TiBox(gpus)
	weightGB := func(res *runtime.Result) float64 {
		var b int64
		for d := 0; d < gpus; d++ {
			b += res.PerDev[d].KindSwapIn[0] + res.PerDev[d].KindSwapOut[0]
		}
		return GB(b)
	}
	pp := sched.DefaultOptions(sched.HarmonyPP)
	pp.GroupSize = batchPerDev
	var rows []Ext3Row
	for _, c := range []struct {
		opts    sched.Options
		mbCount int // the replica's microbatches: a single copy streams the global batch
	}{
		{sched.DefaultOptions(sched.HarmonyDP), batchPerDev},
		{pp, batchPerDev * gpus},
		{sched.DefaultOptions(sched.HarmonyTP), batchPerDev * gpus},
	} {
		res, err := run(model, c.opts, box, 1, c.mbCount, 1, 2)
		if err != nil {
			return nil, fmt.Errorf("ext3 %v: %w", c.opts.Mode, err)
		}
		rows = append(rows, Ext3Row{c.opts.Mode.String(), res.Throughput, GB(res.SwapInBytes + res.SwapOutBytes), weightGB(res)})
	}
	return rows, nil
}

// ---------------------------------------------------------------- EXT4

// Ext4Row compares server layouts holding the total GPU count fixed:
// the paper's §4 multi-machine discussion — schedules and
// optimizations extend across servers, with NICs replacing PCIe for
// cross-server edges.
type Ext4Row struct {
	Layout     string // e.g. "1x4", "2x2", "4x1"
	Strategy   string
	Throughput float64
	SwapGB     float64
}

// Ext4 runs Harmony-DP and Harmony-PP over single-box and clustered
// layouts of four GPUs.
func Ext4(model *models.Model, batchPerDev int) ([]Ext4Row, error) {
	layouts := []struct {
		name string
		box  hw.BoxConfig
	}{
		{"1x4", hw.Commodity1080TiBox(4)},
		{"2x2", hw.CommodityCluster(2, 2)},
		{"4x1", hw.CommodityCluster(4, 1)},
	}
	var rows []Ext4Row
	for _, lay := range layouts {
		hdp, err := run(model, sched.DefaultOptions(sched.HarmonyDP), lay.box, 1, batchPerDev, 1, 2)
		if err != nil {
			return nil, fmt.Errorf("ext4 %s %v: %w", lay.name, sched.HarmonyDP, err)
		}
		rows = append(rows, Ext4Row{lay.name, sched.HarmonyDP.String(), hdp.Throughput, GB(hdp.SwapInBytes + hdp.SwapOutBytes)})

		ppOpts := sched.DefaultOptions(sched.HarmonyPP)
		ppOpts.GroupSize = batchPerDev
		hpp, err := run(model, ppOpts, lay.box, 1, batchPerDev*lay.box.TotalGPUs(), 1, 2)
		if err != nil {
			return nil, fmt.Errorf("ext4 %s %v: %w", lay.name, sched.HarmonyPP, err)
		}
		rows = append(rows, Ext4Row{lay.name, sched.HarmonyPP.String(), hpp.Throughput, GB(hpp.SwapInBytes + hpp.SwapOutBytes)})
	}
	return rows, nil
}

// ---------------------------------------------------------------- EXT5

// Ext5Row estimates development feasibility for one Fig. 1 model on
// the commodity server — the paper's §4 "Feasibility of end-to-end
// training" discussion with numbers: Harmony makes *fine-tuning and
// debugging* practical on modest deployments while pre-training the
// largest models remains a datacenter job.
type Ext5Row struct {
	Model    string
	Params   int64
	Feasible bool   // a schedule exists on 4×11 GB at all
	Reason   string // why not, when infeasible
	// Strategy records what made the model schedulable: pipeline
	// tasks at layer granularity, or (when even one layer's working
	// set exceeds a GPU) the paper's second key idea — decomposing
	// individual operations into per-GPU subtasks.
	Strategy    string
	IterSeconds float64 // measured steady-state iteration (batch 4)
	// FineTuneDays extrapolates 30k iterations (a typical
	// fine-tuning run); PreTrainYears extrapolates 10M iterations
	// (pre-training-scale optimization steps).
	FineTuneDays  float64
	PreTrainYears float64
}

// Ext5 measures one training iteration for each zoo model under
// Harmony-PP on the 4-GPU commodity box and extrapolates.
func Ext5() ([]Ext5Row, error) {
	zoo := []*models.Model{
		models.LeNet(),
		models.AlexNet(),
		models.GNMT(),
		models.AmoebaNet(),
		models.GPT2XL(),
		models.T511B(),
		models.GPT3(),
	}
	const gpus = 4
	var rows []Ext5Row
	for _, m := range zoo {
		row := Ext5Row{Model: m.Name, Params: m.TotalParams()}
		// A model is schedulable only if every single task fits in
		// one GPU; GPT-3-class layers do not even satisfy that.
		opts := sched.DefaultOptions(sched.HarmonyPP)
		opts.GroupSize = 1
		opts.WaveInterleave = true
		box := hw.Commodity1080TiBox(gpus)
		res, err := run(m, opts, box, 1, gpus, 1, 1)
		row.Strategy = sched.HarmonyPP.String()
		if err != nil {
			// One layer's working set exceeds a GPU: decompose the
			// operations themselves across all GPUs (key idea #2).
			res, err = run(m, sched.DefaultOptions(sched.HarmonyTP), box, 1, gpus, 1, 1)
			row.Strategy = sched.HarmonyTP.String() + " (op sharding)"
		}
		if err != nil {
			row.Feasible = false
			row.Strategy = ""
			row.Reason = trimReason(err.Error())
			rows = append(rows, row)
			continue
		}
		row.Feasible = true
		row.IterSeconds = float64(res.IterTime)
		row.FineTuneDays = row.IterSeconds * 30_000 / 86_400
		row.PreTrainYears = row.IterSeconds * 10_000_000 / (86_400 * 365)
		rows = append(rows, row)
	}
	return rows, nil
}

func trimReason(s string) string {
	if len(s) > 90 {
		return s[:87] + "..."
	}
	return s
}

// ---------------------------------------------------------------- TAB-ABL

// AblationRow is one configuration of the ablation table: the
// Harmony-DP default with one optimization changed.
type AblationRow struct {
	Name       string
	Throughput float64 // samples/s
	SwapGB     float64 // swap-in + swap-out per iteration
}

// Ablation flips each Harmony optimization off one at a time
// (DESIGN.md §5) on a memory-pressured DP workload — 12 uniform layers
// of 2 M parameters, 2 GPUs of 48 MiB, 4 microbatches of 1 — so the
// deltas against the first row, all-on, quantify each technique's
// contribution. The last row swaps LRU for schedule-informed (Belady)
// eviction, the paper's scheduler/swapper co-design.
func Ablation() ([]AblationRow, error) {
	model := models.Uniform("ablation", 12, 2_000_000, 64<<10, 2e10)
	box := hw.Commodity1080TiBox(2)
	box.GPUMemBytes = 48 << 20
	variants := []struct {
		name string
		set  func(*sched.Options)
	}{
		{"all-on", func(*sched.Options) {}},
		{"no-grouping", func(o *sched.Options) { o.GroupSize, o.WaveInterleave = 1, true }},
		{"no-jit", func(o *sched.Options) { o.JIT = false }},
		{"no-p2p", func(o *sched.Options) { o.P2P = false }},
		{"no-prefetch", func(o *sched.Options) { o.Prefetch = false }},
		{"no-dirty-tracking", func(o *sched.Options) { o.DirtyTracking = false }},
		{"no-defer", func(o *sched.Options) { o.DeferBlockedUpdates = false }},
		{"group-of-2", func(o *sched.Options) { o.GroupSize = 2 }},
		{"lookahead-eviction", func(o *sched.Options) { o.LookaheadEviction = true }},
	}
	var rows []AblationRow
	for _, v := range variants {
		opts := sched.DefaultOptions(sched.HarmonyDP)
		v.set(&opts)
		res, err := run(model, opts, box, 1, 4, 1, 2)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		rows = append(rows, AblationRow{v.name, res.Throughput, GB(res.SwapInBytes + res.SwapOutBytes)})
	}
	return rows, nil
}
