package harmony

import (
	"fmt"

	"harmony/internal/graph"
	"harmony/internal/models"
	"harmony/internal/runtime"
	"harmony/internal/sched"
	"harmony/internal/tuner"
)

// ModelSpec names a workload for simulation. Use one of the zoo
// constructors or wrap a custom *models.Model.
type ModelSpec struct {
	m *models.Model
}

// BERT48 is the paper's "large BERT" workload (~1.4 B parameters,
// footprint ≈ 2× an 11 GB GPU with Adam).
func BERT48() ModelSpec { return ModelSpec{models.BERT48()} }

// BERTLarge is the standard 24-layer BERT-Large.
func BERTLarge() ModelSpec { return ModelSpec{models.BERTLarge()} }

// GPT2XL is the 1.5 B-parameter GPT-2.
func GPT2XL() ModelSpec { return ModelSpec{models.GPT2XL()} }

// UniformModel is the §3 analytical workload: R identical layers.
func UniformModel(layers int, paramsPerLayer, actBytesPerSample int64, flopsPerSample float64) ModelSpec {
	return ModelSpec{models.Uniform("uniform", layers, paramsPerLayer, actBytesPerSample, flopsPerSample)}
}

// CustomModel wraps an explicit model description.
func CustomModel(m *models.Model) ModelSpec { return ModelSpec{m} }

// Name returns the model's name.
func (m ModelSpec) Name() string { return m.m.Name }

// PersistentGB is the per-replica persistent footprint (weights +
// gradients + optimizer state) in GiB.
func (m ModelSpec) PersistentGB() float64 { return float64(m.m.PersistentBytes()) / (1 << 30) }

// Model exposes the underlying description for advanced callers.
func (m ModelSpec) Model() *models.Model { return m.m }

// SimConfig describes one simulated training measurement.
type SimConfig struct {
	Model  ModelSpec
	Mode   Mode
	Server Server

	// MicrobatchSize × Microbatches is the per-replica batch for DP
	// modes and the whole mini-batch stream for the single-copy
	// (pipeline and op-sharded) modes.
	MicrobatchSize int
	Microbatches   int

	// Toggles override the mode's default optimizations (ablation).
	Toggles *Toggles

	// Recompute enables activation recomputation: checkpoint only
	// each layer's input and re-run the forward during backward,
	// trading FLOPs for stash memory.
	Recompute bool

	// WarmupIters (default 1) and MeasureIters (default 2).
	WarmupIters  int
	MeasureIters int

	// CaptureTrace records a Gantt-renderable execution trace.
	CaptureTrace bool
}

// SimReport is the outcome of a simulated run.
type SimReport struct {
	// Throughput in samples/second and steady-state seconds per
	// iteration.
	Throughput  float64
	IterSeconds float64

	// Per-iteration swap traffic in bytes, summed over devices.
	SwapInBytes  int64
	SwapOutBytes int64
	P2PBytes     int64

	// PerGPUSwapOutBytes and PerGPUDemandBytes mirror Fig. 2(c):
	// per-device swap load and peak working-set demand.
	PerGPUSwapOutBytes []int64
	PerGPUDemandBytes  []int64

	// Gantt is a text rendering of the schedule when CaptureTrace
	// was set.
	Gantt string
}

// SwapGB returns total per-iteration swap traffic in GiB.
func (r *SimReport) SwapGB() float64 {
	return float64(r.SwapInBytes+r.SwapOutBytes) / (1 << 30)
}

// Simulate runs the configuration on the simulated server.
func Simulate(cfg SimConfig) (*SimReport, error) {
	if cfg.Model.m == nil {
		return nil, fmt.Errorf("harmony: SimConfig.Model is required")
	}
	if cfg.Server.cfg.NumGPUs == 0 {
		return nil, fmt.Errorf("harmony: SimConfig.Server is required (use CommodityServer)")
	}
	mbs, mbn := cfg.MicrobatchSize, cfg.Microbatches
	if mbs == 0 {
		mbs = 1
	}
	if mbn == 0 {
		mbn = 1
	}
	s, err := sched.Plan(graph.Config{
		Model:          cfg.Model.m,
		MicrobatchSize: mbs,
		Microbatches:   mbn,
		Recompute:      cfg.Recompute,
	}, cfg.Toggles.Apply(sched.DefaultOptions(cfg.Mode)), cfg.Server.cfg.TotalGPUs())
	if err != nil {
		return nil, err
	}
	warm, meas := cfg.WarmupIters, cfg.MeasureIters
	if meas == 0 {
		meas = 2
	}
	if warm == 0 {
		warm = 1
	}
	res, err := runtime.Run(runtime.Config{
		Box:          cfg.Server.cfg,
		Schedule:     s,
		WarmupIters:  warm,
		MeasureIters: meas,
		CaptureTrace: cfg.CaptureTrace,
	})
	if err != nil {
		return nil, err
	}
	rep := &SimReport{
		Throughput:         res.Throughput,
		IterSeconds:        float64(res.IterTime),
		SwapInBytes:        res.SwapInBytes,
		SwapOutBytes:       res.SwapOutBytes,
		P2PBytes:           res.P2PBytes,
		PerGPUSwapOutBytes: res.PerDevSwapOut,
		PerGPUDemandBytes:  res.PerDevDemand,
	}
	if res.Trace != nil {
		rep.Gantt = res.Trace.Gantt(100)
	}
	return rep, nil
}

// TuneConfig describes a tango search.
type TuneConfig struct {
	Model  ModelSpec
	Mode   Mode
	Server Server
	// BatchPerReplica is the samples one replica trains per iteration.
	// The single-copy modes (pipeline, op-sharded) train it per GPU, so
	// their best candidate simulates with BestMicrobatches × GPUs.
	BatchPerReplica int
	// Greedy is accepted and read by nothing: Tune always measures the
	// whole grid.
	//
	// Deprecated: no effect; removed by the benchmark PR that drops
	// tuner.hillclimb_ms (ROADMAP item 18a).
	Greedy bool
}

// TuneResult reports the winning configuration and the explored
// space. Simulate reproduces the winner's throughput with its
// microbatching and Toggles{GroupSize: BestGroupSize, Prefetch:
// &BestPrefetch, DeferBlockedUpdates: &BestDefer, WaveInterleave:
// &BestInterleave}.
type TuneResult struct {
	BestMicrobatchSize int
	BestMicrobatches   int
	BestGroupSize      int
	BestPrefetch       bool
	BestDefer          bool
	BestInterleave     bool
	BestThroughput     float64
	BestSwapGB         float64
	Explored           int // candidates measured: the whole grid
	// Table lists every measurement, best first, for reporting.
	Table []tuner.Measurement
}

// Tune searches the memory–performance tango for the best-throughput
// feasible configuration: it measures every candidate of the grid.
func Tune(cfg TuneConfig) (*TuneResult, error) {
	if cfg.Model.m == nil {
		return nil, fmt.Errorf("harmony: TuneConfig.Model is required")
	}
	res, err := tuner.Run(tuner.Config{
		Model:           cfg.Model.m,
		Mode:            cfg.Mode,
		Box:             cfg.Server.cfg,
		BatchPerReplica: cfg.BatchPerReplica,
	})
	if err != nil {
		return nil, err
	}
	b := res.Best
	return &TuneResult{
		BestMicrobatchSize: b.Candidate.MicrobatchSize,
		BestMicrobatches:   b.Candidate.Microbatches,
		BestGroupSize:      b.Candidate.GroupSize,
		BestPrefetch:       b.Candidate.Prefetch,
		BestDefer:          b.Candidate.Defer,
		BestInterleave:     b.Candidate.Interleave,
		BestThroughput:     b.Throughput,
		BestSwapGB:         b.SwapGB,
		Explored:           len(res.Measurements),
		Table:              res.Measurements,
	}, nil
}
