package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"harmony"
	"harmony/bench/golden"
	"harmony/internal/analytic"
	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/models"
	simrt "harmony/internal/runtime"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// cellStats are the simulated statistics of one grid cell. They are
// compared exactly with the checked-in golden on every op: this
// benchmark gates host time, and a simulator speed-up that moves a
// simulated number is a different simulator.
type cellStats struct {
	Throughput   float64 `json:"throughput"`
	IterSeconds  float64 `json:"iter_seconds"`
	SwapInBytes  int64   `json:"swap_in_bytes"`
	SwapOutBytes int64   `json:"swap_out_bytes"`
	P2PBytes     int64   `json:"p2p_bytes"`
	// Closed-form cells only: simulated per-iteration weight swap
	// volume next to the paper's closed form for the cell's mode.
	WeightSwapBytes int64 `json:"weight_swap_bytes,omitempty"`
	ClosedFormBytes int64 `json:"closed_form_bytes,omitempty"`
}

// tuneStats is the tuner's winning candidate.
type tuneStats struct {
	MicrobatchSize int     `json:"microbatch_size"`
	Microbatches   int     `json:"microbatches"`
	GroupSize      int     `json:"group_size"`
	Prefetch       bool    `json:"prefetch"`
	Defer          bool    `json:"defer"`
	Throughput     float64 `json:"throughput"`
	SwapGB         float64 `json:"swap_gb"`
	Explored       int     `json:"explored"`
}

// sweepStats is what one op computes and what the golden file holds.
type sweepStats struct {
	Cells map[string]cellStats `json:"cells"`
	Tune  tuneStats            `json:"tune"`
}

type simCell struct {
	name string
	run  func() (cellStats, error)
}

// simGrid is the sweep: six modes × {2,4} GPUs on BERT-48, two GPT-2
// XL pipelines, a dense 8-GPU box, and the three §3 closed-form cells.
// capture turns the simulator's own tracing on in every cell.
func simGrid(capture bool) []simCell {
	var cells []simCell
	simulate := func(name string, cfg harmony.SimConfig) {
		cfg.CaptureTrace = capture
		cells = append(cells, simCell{name, func() (cellStats, error) {
			rep, err := harmony.Simulate(cfg)
			if err != nil {
				return cellStats{}, err
			}
			return cellStats{
				Throughput: rep.Throughput, IterSeconds: rep.IterSeconds,
				SwapInBytes: rep.SwapInBytes, SwapOutBytes: rep.SwapOutBytes, P2PBytes: rep.P2PBytes,
			}, nil
		}})
	}
	bert, gpt := harmony.BERT48(), harmony.GPT2XL()
	modes := []harmony.Mode{harmony.DPBaseline, harmony.PPBaseline, harmony.HarmonyDP, harmony.HarmonyPP, harmony.TPBaseline, harmony.HarmonyTP}
	for _, mode := range modes {
		for _, gpus := range []int{2, 4} {
			simulate(fmt.Sprintf("bert48/%s/%dgpu", mode, gpus), harmony.SimConfig{
				Model: bert, Mode: mode, Server: harmony.CommodityServer(gpus), MicrobatchSize: 1, Microbatches: 8,
			})
		}
	}
	simulate("gpt2xl/harmony-pp/4gpu/mb20-group5", harmony.SimConfig{
		Model: gpt, Mode: harmony.HarmonyPP, Server: harmony.CommodityServer(4), MicrobatchSize: 1, Microbatches: 20,
		Toggles: &harmony.Toggles{GroupSize: 5},
	})
	simulate("gpt2xl/pp-baseline/4gpu/mb8", harmony.SimConfig{
		Model: gpt, Mode: harmony.PPBaseline, Server: harmony.CommodityServer(4), MicrobatchSize: 1, Microbatches: 8,
	})
	simulate("bert48/dp-baseline/dense8/mb5", harmony.SimConfig{
		Model: bert, Mode: harmony.DPBaseline, Server: harmony.DenseServer(8), MicrobatchSize: 1, Microbatches: 5,
	})
	for _, cf := range []struct {
		mode  sched.Mode
		amode analytic.Mode
	}{
		{sched.DPBaseline, analytic.DPBaseline}, // (4m+2)·N·|W|
		{sched.HarmonyDP, analytic.HarmonyDP},   // 3·N·|W|
		{sched.HarmonyPP, analytic.HarmonyPP},   // 3·|W|
	} {
		cells = append(cells, simCell{"closed-form/" + cf.mode.String(), func() (cellStats, error) {
			return closedFormCell(cf.mode, cf.amode, capture)
		}})
	}
	return cells
}

// closedFormCell simulates the §3 idealized workload (16 uniform
// layers, m=2 microbatches, N=2 GPUs, one layer-level op resident at
// a time) and sets its steady-state weight swap volume beside the
// paper's closed form.
func closedFormCell(mode sched.Mode, amode analytic.Mode, capture bool) (cellStats, error) {
	const m, n, warm, measure = 2, 2, 2, 2
	model := models.Uniform("closed-form", 16, 1000, 4096, 1e9)
	replicas := n
	if mode.IsPipeline() {
		replicas = 1
	}
	g, err := graph.Build(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: m, Replicas: replicas})
	if err != nil {
		return cellStats{}, err
	}
	opts := sched.DefaultOptions(mode)
	opts.DeferBlockedUpdates = false // the idealized Fig. 5(c) timeline
	s, err := sched.Build(g, opts, n)
	if err != nil {
		return cellStats{}, err
	}
	box := hw.Commodity1080TiBox(n)
	box.GPUMemBytes = 22 << 10
	res, err := simrt.Run(simrt.Config{Box: box, Schedule: s, WarmupIters: warm, MeasureIters: measure, CaptureTrace: capture})
	if err != nil {
		return cellStats{}, err
	}
	var weights int64
	for d := 0; d < n; d++ {
		weights += res.PerDev[d].KindSwapIn[tensor.Weight] + res.PerDev[d].KindSwapOut[tensor.Weight]
	}
	return cellStats{
		Throughput: res.Throughput, IterSeconds: float64(res.IterTime),
		SwapInBytes: res.SwapInBytes, SwapOutBytes: res.SwapOutBytes, P2PBytes: res.P2PBytes,
		WeightSwapBytes: weights / (warm + measure),
		ClosedFormBytes: analytic.WeightVolumeIdeal(amode, analytic.FromModel(model, 1, m, n)),
	}, nil
}

// tangoConfig is EXT2's memory–performance tango: 8×4 MB layers on two
// 20 MB devices, searched exhaustively.
func tangoConfig(greedy bool) harmony.TuneConfig {
	return harmony.TuneConfig{
		Model:  harmony.UniformModel(8, 1_000_000, 16<<10, 5e9),
		Mode:   harmony.HarmonyPP,
		Server: harmony.CommodityServer(2).WithGPUMemory(20 << 20), BatchPerReplica: 4, Greedy: greedy,
	}
}

// sweep is one op: every cell of the grid, in an order drawn from the
// seed, then one exhaustive Tune. cellMS, when non-nil, collects each
// cell's host time by name.
func sweep(c *runCtx, grid []simCell, rng *rand.Rand, cellMS map[string][]float64) (sweepStats, error) {
	defer c.spans.begin("op")()
	out := sweepStats{Cells: make(map[string]cellStats)}
	for _, i := range rng.Perm(len(grid)) {
		cell := grid[i]
		start := time.Now()
		st, err := cell.run()
		if err != nil {
			return out, fmt.Errorf("%s: %w", cell.name, err)
		}
		if cellMS != nil {
			cellMS[cell.name] = append(cellMS[cell.name], time.Since(start).Seconds()*1e3)
		}
		out.Cells[cell.name] = st
	}
	end := c.spans.begin("Tune")
	res, err := harmony.Tune(tangoConfig(false))
	end()
	if err != nil {
		return out, fmt.Errorf("tune: %w", err)
	}
	out.Tune = tuneStats{
		MicrobatchSize: res.BestMicrobatchSize, Microbatches: res.BestMicrobatches, GroupSize: res.BestGroupSize,
		Prefetch: res.BestPrefetch, Defer: res.BestDefer, Throughput: res.BestThroughput, SwapGB: res.BestSwapGB,
		Explored: res.Explored,
	}
	return out, nil
}

// simOps runs sweeps for at least minOps ops and `seconds` seconds,
// comparing each with the golden statistics. An op's size in
// simulations is the grid's cells plus the candidates the tuner tried.
func simOps(c *runCtx, grid []simCell, rng *rand.Rand, want sweepStats, seconds float64, minOps int, cellMS map[string][]float64) (ms []float64, sims int) {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		c.cpus.turnWhenDue()
		opStart := time.Now()
		got, err := sweep(c, grid, rng, cellMS)
		ms = append(ms, time.Since(opStart).Seconds()*1e3)
		c.attempted++
		sims += len(got.Cells) + got.Tune.Explored
		switch {
		case err != nil:
			c.problem("op %d: %v", i, err)
		case !reflect.DeepEqual(got, want):
			c.problem("op %d: simulated statistics differ from bench/golden/sim-sweep.json: %s", i, diffStats(got, want))
		}
	}
	return ms, sims
}

// diffStats names the first statistic that differs.
func diffStats(got, want sweepStats) string {
	for name, w := range want.Cells {
		if g, ok := got.Cells[name]; !ok || g != w {
			return fmt.Sprintf("cell %s: got %+v, want %+v", name, g, w)
		}
	}
	if len(got.Cells) != len(want.Cells) {
		return fmt.Sprintf("%d cells, golden has %d", len(got.Cells), len(want.Cells))
	}
	return fmt.Sprintf("tune: got %+v, want %+v", got.Tune, want.Tune)
}

func runSim(c *runCtx) error {
	if c.goldenOut != "" {
		st, err := sweep(c, simGrid(false), rand.New(rand.NewSource(int64(c.seed))), nil)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		c.attempted = 1
		return writeFile(c.goldenOut, append(data, '\n'))
	}
	var want sweepStats
	if err := json.Unmarshal(golden.SimSweep, &want); err != nil {
		return fmt.Errorf("bench/golden/sim-sweep.json: %w", err)
	}
	rng := rand.New(rand.NewSource(int64(c.seed)))

	// Set-up is the model zoo and one warm sweep, measured a few times
	// over; the warm sweeps are checked like any other.
	var setups []float64
	var grid []simCell
	for i := 0; i < c.n(setupReps, 1); i++ {
		c.cpus.turn()
		start := time.Now()
		end := c.spans.begin("setup")
		grid = simGrid(false)
		if got, err := sweep(c, grid, rng, nil); err != nil {
			return err
		} else if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("warm sweep differs from golden: %s", diffStats(got, want))
		}
		end()
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	if c.trace {
		return runSimTraced(c, grid, rng, want)
	}
	ms, sims := simOps(c, grid, rng, want, c.seconds, 2, nil)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	emitEndToEnd(c, median(setups), ms, float64(sims)/float64(len(ms)), rss)
	return nil
}
