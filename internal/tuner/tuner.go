// Package tuner implements Harmony's Performance Tuner (paper Fig. 3):
// it profiles candidate configurations — microbatch split, group size,
// prefetch, update deferral, wave interleave — by running short
// measured simulations, and searches the "memory–performance tango" of
// §4 for the configuration that maximizes steady-state throughput
// subject to feasibility (every task must fit in device memory).
//
// The paper leaves "algorithmically determining the optimal task
// granularity and the size of microbatches" as an open problem and
// suggests online tuning; this tuner is the straightforward
// measure-and-pick instantiation over a deterministic simulator: it
// measures every candidate of Space, so its pick is the grid's exact
// optimum. The grid is small (112 candidates for HarmonyDP at a batch
// of 64) and its candidates run in parallel.
package tuner

import (
	"fmt"
	"sort"

	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/models"
	"harmony/internal/runtime"
	"harmony/internal/sched"
	"harmony/internal/sweep"
)

// Candidate is one point of the search space.
type Candidate struct {
	// MicrobatchSize × Microbatches is held equal to the requested
	// per-replica batch across candidates, so throughput numbers are
	// comparable.
	MicrobatchSize int
	Microbatches   int
	// GroupSize and Interleave are the wave shape (sched.Options'
	// GroupSize and WaveInterleave). Only a mode that groups by default
	// searches them: group sizes in every such mode, interleave in
	// pipelines with a sub-batch group. Any other mode's candidates
	// keep its default shape.
	GroupSize  int
	Prefetch   bool
	Defer      bool
	Interleave bool
}

func (c Candidate) String() string {
	s := fmt.Sprintf("mb=%d×%d group=%d prefetch=%v", c.MicrobatchSize, c.Microbatches, c.GroupSize, c.Prefetch)
	if c.Defer {
		s += " defer=true"
	}
	if c.Interleave {
		s += " interleave=true"
	}
	return s
}

// Measurement is the outcome of profiling one candidate.
type Measurement struct {
	Candidate  Candidate
	Throughput float64 // samples/second; 0 when infeasible
	SwapGB     float64 // per-iteration swap traffic (in+out)
	P2PGB      float64
	IterSec    float64
	Feasible   bool
	Err        string // infeasibility reason
}

// Config describes a tuning session.
type Config struct {
	Model *models.Model
	Mode  sched.Mode
	Box   hw.BoxConfig
	// BatchPerReplica is the samples each replica processes per
	// iteration; candidates factor it into microbatches differently.
	// A single-copy mode (pipeline or op-sharded) trains
	// BatchPerReplica × GPUs samples: Microbatches × GPUs of them.
	BatchPerReplica int
}

// measureIters is the measured iterations per candidate, after one
// warm-up iteration.
const measureIters = 2

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("tuner: nil model")
	}
	if c.BatchPerReplica <= 0 {
		return fmt.Errorf("tuner: BatchPerReplica must be positive, got %d", c.BatchPerReplica)
	}
	if err := sched.CheckMode(c.Mode); err != nil {
		return err
	}
	return c.Box.Validate()
}

// Result is a completed tuning session.
type Result struct {
	Best         Measurement
	Measurements []Measurement // all candidates, best first
}

// Space enumerates the candidate grid for a batch size: every divisor
// split of the batch into microbatches; in a mode that groups by
// default, every group size that divides the microbatch count (0 for
// all of them); prefetch on and off; defer on and off in HarmonyDP;
// and, in a grouped pipeline with a sub-batch group, both wave orders.
func Space(mode sched.Mode, batch int) []Candidate {
	def := sched.DefaultOptions(mode)
	var out []Candidate
	for _, mbs := range divisors(batch) {
		m := batch / mbs
		groups := []int{def.GroupSize}
		if grouping(mode) && m > 1 {
			for _, g := range divisors(m) {
				if g != m { // 0 already means "all"
					groups = append(groups, g)
				}
			}
		}
		for _, g := range groups {
			for _, pf := range []bool{true, false} {
				defers := []bool{false}
				if mode == sched.HarmonyDP {
					defers = []bool{false, true}
				}
				interleaves := []bool{def.WaveInterleave}
				if grouping(mode) && mode.IsPipeline() && g > 0 {
					interleaves = []bool{false, true}
				}
				for _, df := range defers {
					for _, il := range interleaves {
						out = append(out, Candidate{
							MicrobatchSize: mbs, Microbatches: m,
							GroupSize: g, Prefetch: pf, Defer: df, Interleave: il,
						})
					}
				}
			}
		}
	}
	return out
}

// grouping reports whether mode groups microbatches by default, which
// is what puts the wave shape in its search space.
func grouping(mode sched.Mode) bool { return sched.DefaultOptions(mode).GroupSize != 1 }

func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// Run profiles every candidate in the grid on all of cfg.Box's GPUs and
// returns them sorted by throughput (best first). Infeasible candidates
// are kept with their error so callers can see the feasibility frontier.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Candidate measurements are independent deterministic
	// simulations: profile them on all cores.
	ms, err := sweep.Run(Space(cfg.Mode, cfg.BatchPerReplica), 0, func(c Candidate) (Measurement, error) {
		return measureOne(cfg, c), nil
	})
	if err != nil {
		return nil, err
	}
	sortMeasurements(ms)
	res := &Result{Measurements: ms}
	if len(ms) == 0 || !ms[0].Feasible {
		return res, fmt.Errorf("tuner: no feasible candidate for %s on %d GPUs", cfg.Model.Name, cfg.Box.TotalGPUs())
	}
	res.Best = ms[0]
	return res, nil
}

func sortMeasurements(ms []Measurement) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Feasible != ms[j].Feasible {
			return ms[i].Feasible
		}
		if ms[i].Throughput != ms[j].Throughput {
			return ms[i].Throughput > ms[j].Throughput
		}
		return ms[i].Candidate.String() < ms[j].Candidate.String()
	})
}

func measureOne(cfg Config, c Candidate) Measurement {
	out := Measurement{Candidate: c}
	gpus := cfg.Box.TotalGPUs()
	mbCount := c.Microbatches
	if cfg.Mode.IsPipeline() || cfg.Mode.IsSharded() {
		// A single model copy processes the global batch as one stream
		// of microbatches.
		mbCount = c.Microbatches * gpus
	}
	// The candidate is laid over the mode's defaults the way Simulate
	// lays a SimConfig's Toggles.
	tg := sched.Toggles{GroupSize: c.GroupSize, Prefetch: &c.Prefetch, DeferBlockedUpdates: &c.Defer, WaveInterleave: &c.Interleave}
	s, err := sched.Plan(graph.Config{
		Model:          cfg.Model,
		MicrobatchSize: c.MicrobatchSize,
		Microbatches:   mbCount,
	}, tg.Apply(sched.DefaultOptions(cfg.Mode)), gpus)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	res, err := runtime.Run(runtime.Config{Box: cfg.Box, Schedule: s, WarmupIters: 1, MeasureIters: measureIters})
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Feasible = true
	out.Throughput = res.Throughput
	out.SwapGB = float64(res.SwapInBytes+res.SwapOutBytes) / (1 << 30)
	out.P2PGB = float64(res.P2PBytes) / (1 << 30)
	out.IterSec = float64(res.IterTime)
	return out
}
