// Package tuner implements Harmony's Performance Tuner (paper Fig. 3):
// it profiles candidate configurations — group size, microbatch size,
// prefetch, update deferral — by running short measured simulations,
// and searches the "memory–performance tango" of §4 for the
// configuration that maximizes steady-state throughput subject to
// feasibility (every task must fit in device memory).
//
// The paper leaves "algorithmically determining the optimal task
// granularity and the size of microbatches" as an open problem and
// suggests online tuning; this tuner is the straightforward
// measure-and-pick instantiation over a deterministic simulator, with
// an optional greedy hill-climbing mode for larger spaces.
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
	return c.Box.Validate()
}

// Result is a completed tuning session.
type Result struct {
	Best         Measurement
	Measurements []Measurement // all candidates, best first
	Explored     int
}

// Space enumerates the default candidate grid for a batch size:
// every divisor split of the batch into microbatches, group sizes at
// the interesting powers, and both binary knobs where they matter.
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
	return measureAll(cfg, Space(cfg.Mode, cfg.BatchPerReplica))
}

// HillClimb explores the space greedily: it starts from the
// single-sample, prefetching candidate in the mode's default wave shape
// (fully grouped for the Harmony modes) and moves to the best neighbor until
// no neighbor improves. For large batches this measures far fewer
// candidates than Run while typically finding the same optimum
// (greedy works well because throughput is unimodal along each knob
// in practice).
func HillClimb(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	def := sched.DefaultOptions(cfg.Mode)
	start := Candidate{MicrobatchSize: 1, Microbatches: cfg.BatchPerReplica,
		GroupSize: def.GroupSize, Prefetch: true, Interleave: def.WaveInterleave}
	seen := map[Candidate]Measurement{}
	measure := func(c Candidate) Measurement {
		if m, ok := seen[c]; ok {
			return m
		}
		m := measureOne(cfg, c)
		seen[c] = m
		return m
	}
	cur := measure(start)
	for {
		improved := false
		for _, nb := range neighbors(cfg, cur.Candidate) {
			m := measure(nb)
			if m.Feasible && m.Throughput > cur.Throughput {
				cur = m
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	res := &Result{Explored: len(seen)}
	for _, m := range seen {
		res.Measurements = append(res.Measurements, m)
	}
	sortMeasurements(res.Measurements)
	if !cur.Feasible {
		// The climb moves only to feasible neighbours, so an infeasible
		// end point means no candidate it measured fit.
		return res, noFeasible(cfg)
	}
	res.Best = cur
	return res, nil
}

// noFeasible is the error of a search in which no candidate fit.
func noFeasible(cfg Config) error {
	return fmt.Errorf("tuner: no feasible candidate for %s on %d GPUs", cfg.Model.Name, cfg.Box.TotalGPUs())
}

// neighbors perturbs one knob at a time.
func neighbors(cfg Config, c Candidate) []Candidate {
	var out []Candidate
	mode, batch := cfg.Mode, cfg.BatchPerReplica
	// Halve/double the microbatch size along divisor boundaries,
	// keeping the wave shape: a sub-batch wave keeps its order and at
	// most its samples, as the largest group of the new microbatches
	// that holds no more (one microbatch at least).
	for _, mbs := range divisors(batch) {
		if mbs == c.MicrobatchSize*2 || (c.MicrobatchSize%2 == 0 && mbs == c.MicrobatchSize/2) {
			nb := c
			nb.MicrobatchSize, nb.Microbatches = mbs, batch/mbs
			if grouping(mode) && c.GroupSize > 0 {
				g := 1
				for _, d := range divisors(nb.Microbatches) {
					if d*mbs <= c.GroupSize*c.MicrobatchSize {
						g = d
					}
				}
				nb = withGroup(mode, nb, g)
			}
			out = append(out, nb)
		}
	}
	if grouping(mode) {
		// Step the group size among divisors of m. Which order suits a
		// pipeline depends on its group, so a step there tries both.
		m := c.Microbatches
		ds := divisors(m)
		curG := c.GroupSize
		if curG == 0 {
			curG = m
		}
		for i, d := range ds {
			if d != curG {
				continue
			}
			for _, j := range []int{i - 1, i + 1} {
				if j < 0 || j == len(ds) {
					continue
				}
				nb := withGroup(mode, c, ds[j])
				out = append(out, nb)
				if mode.IsPipeline() && nb.GroupSize > 0 {
					nb.Interleave = !nb.Interleave
					out = append(out, nb)
				}
			}
		}
	}
	// Flip the binary knobs.
	flipped := c
	flipped.Prefetch = !c.Prefetch
	out = append(out, flipped)
	if mode == sched.HarmonyDP {
		flipped = c
		flipped.Defer = !c.Defer
		out = append(out, flipped)
	}
	if grouping(mode) && mode.IsPipeline() && c.GroupSize > 0 {
		flipped = c
		flipped.Interleave = !c.Interleave
		out = append(out, flipped)
	}
	return out
}

// withGroup sets c's group to g of its microbatches: 0 when g spans
// them all, with the mode's default order, the only one Space pairs
// with it.
func withGroup(mode sched.Mode, c Candidate, g int) Candidate {
	c.GroupSize = g
	if g == c.Microbatches {
		c.GroupSize, c.Interleave = 0, sched.DefaultOptions(mode).WaveInterleave
	}
	return c
}

func measureAll(cfg Config, cands []Candidate) (*Result, error) {
	res := &Result{}
	// Candidate measurements are independent deterministic
	// simulations: profile them on all cores.
	ms, err := sweep.Run(cands, 0, func(c Candidate) (Measurement, error) {
		return measureOne(cfg, c), nil
	})
	if err != nil {
		return nil, err
	}
	res.Measurements = ms
	res.Explored = len(ms)
	sortMeasurements(res.Measurements)
	if len(res.Measurements) == 0 || !res.Measurements[0].Feasible {
		return res, noFeasible(cfg)
	}
	res.Best = res.Measurements[0]
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
