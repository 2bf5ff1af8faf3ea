// Package sched builds execution schedules over the fine-grained task
// graph: the per-GPU-virtualization baselines (data-parallel and
// 1F1B pipeline-parallel) and the Harmony variants that add the four
// optimizations of the paper — input-batch grouping, just-in-time
// weight updates, peer-to-peer transfers, and load-balanced task
// packing. Every optimization is an independent Options toggle so the
// ablation benches can flip one at a time.
//
// One function orders every device queue, in every mode: microbatches
// run in waves, plain or 1F1B-interleaved, and a baseline is the wave
// schedule with a group of one. Interleaved at pipeline depth 1 that is
// the data-parallel microbatch loop; at a stage's depth it is the
// classic 1F1B pipeline.
//
// A Schedule is a total order of tasks per device plus a memory
// policy; the runtime executes it respecting both the order and the
// task graph's dependency edges (late binding happens here: the graph
// itself never mentions devices). Plan is the front door: it shapes the
// graph for the mode and builds both, the hand-off from the paper's
// Task Decomposer to its Scheduler (Fig. 3).
package sched

import (
	"fmt"
	"strings"

	"harmony/internal/graph"
	"harmony/internal/memory"
)

// Mode selects the training strategy.
type Mode int

const (
	// DPBaseline is data parallelism with naive per-GPU memory
	// virtualization (IBM-LMS style): each replica re-swaps weights
	// for every microbatch and writes back clean tensors.
	DPBaseline Mode = iota
	// PPBaseline is 1F1B pipeline parallelism with naive per-GPU
	// virtualization; stages are split by layer count.
	PPBaseline
	// HarmonyDP is data parallelism with grouping, JIT updates,
	// dirty tracking and prefetch.
	HarmonyDP
	// HarmonyPP is pipeline parallelism with all four Harmony
	// optimizations.
	HarmonyPP
	// TPBaseline is intra-op sharding (each operation decomposed
	// across all GPUs, Megatron-style) with naive per-GPU
	// virtualization.
	TPBaseline
	// HarmonyTP is intra-op sharding with the Harmony optimizations.
	HarmonyTP
)

var modeNames = [...]string{"dp-baseline", "pp-baseline", "harmony-dp", "harmony-pp", "tp-baseline", "harmony-tp"}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// CheckMode is the one check that m is a mode this package plans:
// Plan and Build run it first, and so can a caller that must refuse
// an unknown mode before planning anything.
func CheckMode(m Mode) error {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Errorf("sched: unknown mode %v", m)
	}
	return nil
}

// ModeNames lists every mode's name, comma-separated, for usage text.
func ModeNames() string { return strings.Join(modeNames[:], ", ") }

// ParseMode returns the mode whose String is name.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("sched: unknown mode %q (want %s)", name, ModeNames())
}

// IsPipeline reports whether the mode splits layers across devices.
func (m Mode) IsPipeline() bool { return m == PPBaseline || m == HarmonyPP }

// IsSharded reports whether the mode decomposes individual operations
// across devices (intra-op sharding).
func (m Mode) IsSharded() bool { return m == TPBaseline || m == HarmonyTP }

// DefaultPrefetchDepth is how many tasks ahead of the running one a
// plan with Prefetch asks for inputs when nothing else is configured:
// the paper's double buffering. The simulator always uses it; the
// trainer's PrefetchDepth overrides it.
const DefaultPrefetchDepth = 2

// Options selects a mode and its optimization toggles.
type Options struct {
	Mode Mode

	// JIT schedules each layer's weight update immediately after its
	// last backward, while W and dW are still resident (§3 opt 2).
	JIT bool
	// P2P moves shared tensors between devices over direct links
	// instead of bouncing through host memory (§3 opt 3).
	P2P bool
	// Packing balances pipeline stages by compute, weight and stash
	// load instead of naive equal layer counts (§3 opt 4).
	Packing bool
	// Prefetch overlaps the next task's swap-ins with the current
	// task's compute (the double-buffering of §4).
	Prefetch bool
	// DirtyTracking drops clean tensors on eviction instead of
	// writing them back.
	DirtyTracking bool
	// DeferBlockedUpdates lets the simulator's runtime skip past an
	// update task whose AllReduce has not finished instead of stalling
	// the device queue. This trades the JIT residency of W/dW (they may
	// be evicted by the intervening tasks) for collective/compute
	// overlap — one axis of the paper's §4 memory–performance tango.
	// DefaultOptions turns it on for HarmonyDP only, the one mode with
	// per-layer collectives: under extreme memory pressure the re-swap
	// cost exceeds the stall, and Fig. 5's 3N|W| volume assumes strict
	// adjacency, so the closed-form configurations turn it off. The
	// trainer runs its woven streams in order and refuses the toggle.
	DeferBlockedUpdates bool

	// CommChunks splits each gradient collective into that many
	// fixed, plan-time chunk rendezvous, each reduced by a
	// deterministically assigned device worker (global chunk index k →
	// worker k mod NGPUs), so reduce work spreads across workers and a
	// worker whose chunks are done resumes compute while other chunks
	// still reduce. 0 keeps the monolithic rendezvous. Only meaningful
	// for data-parallel modes; sharded modes reject it (their gathers
	// sit on the critical path by construction).
	CommChunks int
	// CommBucketBytes coalesces consecutive per-layer gradients (in
	// reverse layer order, mirroring backward) into byte-budgeted
	// buckets sharing one rendezvous, so tiny layers stop paying a
	// rendezvous each (DDP-style bucketing). 0 keeps one bucket per
	// layer. Setting it implies CommChunks >= 1. Bucketing regroups
	// JIT updates: a bucket's updates are emitted together after the
	// bucket's deepest member finishes its backward sweep.
	CommBucketBytes int64

	// GroupSize is input-batch grouping (§3 opt 1): how many
	// microbatches one wave covers, each layer's task running across
	// them back-to-back so its state is swapped once per phase per
	// wave (0 = all of them, one wave). It is the paper's §4 tango
	// knob: grouping the full mini-batch minimizes weight swaps (3|W|)
	// but serializes pipeline stages; smaller groups pipeline as waves
	// at the cost of re-swapping weights once per wave
	// ((2·⌈m/G⌉+1)|W|). A group of one is no grouping at all, the
	// baselines' microbatch loop. The tuner searches this dimension.
	GroupSize int

	// LookaheadEviction selects schedule-informed (Belady-style)
	// eviction over plain LRU: the memory manager asks the runtime
	// for each tensor's next scheduled use and evicts the
	// farthest-future one. The paper's scheduler/swapper co-design.
	LookaheadEviction bool

	// WaveInterleave runs the waves in 1F1B order (forward wave /
	// backward wave alternation after a warmup) instead of all
	// forwards then all backwards, in every mode. This bounds
	// in-flight stash to ~(pipeline depth)·GroupSize microbatches per
	// device rather than all m — essential for stash-heavy workloads
	// (long-sequence transformers) where the plain grouped schedule's
	// stash demand would itself blow past device memory. With one wave
	// (GroupSize 0) it changes nothing. A group of one interleaved is
	// the baselines' order: the DP/TP microbatch loop, or 1F1B in a
	// pipeline.
	WaveInterleave bool
}

// DefaultOptions returns the canonical option set for a mode:
// baselines disable every optimization and run a group of one
// microbatch interleaved, Harmony modes enable everything and group
// all microbatches in one wave.
func DefaultOptions(m Mode) Options {
	switch m {
	case HarmonyTP:
		// Sharded mode has no AllReduce, so deferral never triggers;
		// gathers sit on the critical path by construction.
		return Options{Mode: m, JIT: true, P2P: true, Packing: true,
			Prefetch: true, DirtyTracking: true}
	case HarmonyDP:
		// DeferBlockedUpdates keeps per-layer AllReduces off the
		// critical path (the scheduler running ready tasks instead of
		// stalling); the measured win over strict adjacency outweighs
		// the occasional re-swap except at extreme memory pressure
		// (see the tuner and the Fig. 5 idealized configuration).
		return Options{Mode: m, JIT: true, P2P: true, Packing: true,
			Prefetch: true, DirtyTracking: true, DeferBlockedUpdates: true}
	case HarmonyPP:
		// Pipeline mode has a single replica and no collectives, so
		// update deferral never triggers.
		return Options{Mode: m, JIT: true, P2P: true, Packing: true,
			Prefetch: true, DirtyTracking: true}
	default:
		return Options{Mode: m, GroupSize: 1, WaveInterleave: true}
	}
}

// Toggles exposes the paper's optimizations individually for
// ablation; the zero value of a field means "use the mode's default".
type Toggles struct {
	JIT           *bool
	P2P           *bool
	Packing       *bool
	Prefetch      *bool
	DirtyTracking *bool
	// DeferBlockedUpdates lets a device run past an update task whose
	// collective is not ready. It acts in the simulator only: the
	// trainer refuses a Toggles that sets it.
	DeferBlockedUpdates *bool
	// LookaheadEviction switches eviction from LRU to
	// schedule-informed Belady (the scheduler/swapper co-design). It
	// acts in the simulator only: the trainer's VM evicts by LRU and
	// refuses a Toggles that sets it.
	LookaheadEviction *bool
	// GroupSize sets the input-batch grouping window: 1 turns
	// grouping off, a larger value bounds it (see the memory–performance
	// tango); 0 keeps the mode's default, and a negative value is
	// rejected by the plan build.
	GroupSize int
	// WaveInterleave runs the waves in 1F1B order, bounding in-flight
	// stash per device (for stash-heavy workloads).
	WaveInterleave *bool
}

// Apply returns o with every set toggle overriding it; a nil Toggles
// returns o unchanged.
func (t *Toggles) Apply(o Options) Options {
	if t == nil {
		return o
	}
	set := func(dst *bool, v *bool) {
		if v != nil {
			*dst = *v
		}
	}
	set(&o.JIT, t.JIT)
	set(&o.P2P, t.P2P)
	set(&o.Packing, t.Packing)
	set(&o.Prefetch, t.Prefetch)
	set(&o.DirtyTracking, t.DirtyTracking)
	set(&o.DeferBlockedUpdates, t.DeferBlockedUpdates)
	set(&o.LookaheadEviction, t.LookaheadEviction)
	set(&o.WaveInterleave, t.WaveInterleave)
	if t.GroupSize != 0 {
		o.GroupSize = t.GroupSize
	}
	return o
}

// Schedule is a bound, ordered execution plan for one iteration.
type Schedule struct {
	Graph *graph.Graph
	Opts  Options
	NGPUs int

	// Queues is the per-device total order of compute tasks: a task
	// runs on the device whose queue holds it.
	Queues [][]*graph.Task
	// Collectives holds the collective tasks, which run on the
	// interconnect, touching all devices; the runtime launches each as
	// soon as its dependencies complete.
	Collectives []*graph.Task
	// Comm is the chunked/bucketed collective plan (nil when
	// Opts.CommChunks == 0 or the plan has no gradient collectives).
	// Bucket membership, chunk boundaries and reducer assignment are
	// all pure functions of the plan — never arrival order — so the
	// chunked path stays bit-exact with the monolithic one.
	Comm []CommBucket

	// StageOfLayer maps layer → stage for pipeline modes (nil for
	// DP).
	StageOfLayer []int

	// MemPolicy configures the memory manager.
	MemPolicy memory.Policy
}

// Plan is the one way from a training configuration to a schedule: the
// mode shapes the task graph for gpus devices — data parallelism keeps
// one replica per GPU, a pipeline one replica whose layers spread across
// them, op sharding one replica whose every operation splits into gpus
// shards — then graph.Build decomposes it and Build schedules it. cfg
// leaves Replicas and OpShards unset; the plan's graph is Schedule.Graph.
func Plan(cfg graph.Config, opts Options, gpus int) (*Schedule, error) {
	if cfg.Replicas != 0 || cfg.OpShards != 0 {
		return nil, fmt.Errorf("sched: the mode decides Replicas and OpShards, the config sets them to %d and %d",
			cfg.Replicas, cfg.OpShards)
	}
	if err := CheckMode(opts.Mode); err != nil {
		return nil, err
	}
	switch opts.Mode {
	case DPBaseline, HarmonyDP:
		cfg.Replicas = gpus
	case PPBaseline, HarmonyPP:
		cfg.Replicas = 1
	case TPBaseline, HarmonyTP:
		cfg.Replicas, cfg.OpShards = 1, gpus
	}
	g, err := graph.Build(cfg)
	if err != nil {
		return nil, err
	}
	return Build(g, opts, gpus)
}

// Build constructs the schedule for a graph on nGPUs devices.
func Build(g *graph.Graph, opts Options, nGPUs int) (*Schedule, error) {
	if err := CheckMode(opts.Mode); err != nil {
		return nil, err
	}
	if nGPUs <= 0 {
		return nil, fmt.Errorf("sched: nGPUs must be positive, got %d", nGPUs)
	}
	if opts.GroupSize < 0 {
		return nil, fmt.Errorf("sched: GroupSize must be non-negative, got %d", opts.GroupSize)
	}
	if opts.CommChunks < 0 || opts.CommBucketBytes < 0 {
		return nil, fmt.Errorf("sched: comm knobs must be non-negative (chunks=%d, bucket=%d)",
			opts.CommChunks, opts.CommBucketBytes)
	}
	if opts.CommBucketBytes > 0 && opts.CommChunks == 0 {
		// Bucketing implies the chunked rendezvous machinery; one chunk
		// per bucket is the degenerate-but-valid resolution.
		opts.CommChunks = 1
	}
	if opts.CommChunks > 0 && opts.Mode.IsSharded() {
		return nil, fmt.Errorf("sched: %s has no gradient AllReduce to chunk (gathers are on the critical path)", opts.Mode)
	}
	s := &Schedule{
		Graph:  g,
		Opts:   opts,
		NGPUs:  nGPUs,
		Queues: make([][]*graph.Task, nGPUs),
		MemPolicy: memory.Policy{
			DirtyTracking: opts.DirtyTracking,
			P2P:           opts.P2P,
			Lookahead:     opts.LookaheadEviction,
		},
	}
	switch opts.Mode {
	case DPBaseline, HarmonyDP:
		if g.Cfg.Replicas != nGPUs {
			return nil, fmt.Errorf("sched: %s needs one replica per GPU (replicas=%d, gpus=%d)",
				opts.Mode, g.Cfg.Replicas, nGPUs)
		}
		if g.Cfg.OpShards > 1 {
			return nil, fmt.Errorf("sched: %s cannot schedule an op-sharded graph", opts.Mode)
		}
		s.buildDP()
	case TPBaseline, HarmonyTP:
		if g.Cfg.OpShards != nGPUs {
			return nil, fmt.Errorf("sched: %s needs one shard per GPU (shards=%d, gpus=%d)",
				opts.Mode, g.Cfg.OpShards, nGPUs)
		}
		s.buildDP() // shard queues have the same shape as replica queues
	case PPBaseline, HarmonyPP:
		if g.Cfg.Replicas != 1 || g.Cfg.OpShards > 1 {
			return nil, fmt.Errorf("sched: %s needs a single unsharded replica", opts.Mode)
		}
		if g.Layers() < nGPUs {
			return nil, fmt.Errorf("sched: %d layers cannot fill %d pipeline stages", g.Layers(), nGPUs)
		}
		s.buildPP()
	}
	if opts.CommChunks > 0 && len(s.Collectives) > 0 {
		// Pipeline modes have no gradient collectives, so Comm stays
		// nil there and the knob is an accepted no-op.
		s.buildComm()
	}
	return s, nil
}

// MustBuild panics on error; for tests and static configs.
func MustBuild(g *graph.Graph, opts Options, nGPUs int) *Schedule {
	s, err := Build(g, opts, nGPUs)
	if err != nil {
		panic(err)
	}
	return s
}

// buildDP binds replica (or shard) r to GPU r and queues all its
// layers at pipeline depth 1: the baseline's group of one interleaved
// runs microbatch-major, the standard PyTorch loop (Fig. 5(b)); grouping
// runs layer-major waves (Fig. 5(c)).
func (s *Schedule) buildDP() {
	g := s.Graph
	R := g.Layers()
	layers := make([]int, R)
	for l := range layers {
		layers[l] = l
	}
	updAfter := s.commUpdateGroups()
	for r := 0; r < s.NGPUs; r++ {
		s.queue(r, r, layers, 1, updAfter)
	}
	if g.AR != nil {
		// Gradients all-reduce per layer, launched as dependencies
		// complete (reverse layer order mirrors backward).
		for l := R - 1; l >= 0; l-- {
			s.Collectives = append(s.Collectives, g.AR[l])
		}
	}
	// Op-sharded graphs: the gathers are the collectives.
	for _, row := range g.AGf {
		for _, ag := range row {
			if ag != nil {
				s.Collectives = append(s.Collectives, ag)
			}
		}
	}
	for _, row := range g.AGb {
		for _, ag := range row {
			if ag != nil {
				s.Collectives = append(s.Collectives, ag)
			}
		}
	}
}

// buildPP partitions the one replica's layers into contiguous stages
// and queues stage st at pipeline depth NGPUs−st. The baseline's group
// of one interleaved is classic 1F1B (PipeDream, DAPPLE): in-flight
// microbatches at stage st are min(m, NGPUs−st), so the head stashes the
// most, the Fig. 2(c) imbalance. Harmony-PP (Fig. 4) runs larger groups,
// all microbatches in one wave by default.
func (s *Schedule) buildPP() {
	s.StageOfLayer = s.partition()
	layersOf := make([][]int, s.NGPUs)
	for l, st := range s.StageOfLayer {
		layersOf[st] = append(layersOf[st], l)
	}
	updAfter := s.commUpdateGroups()
	for st := 0; st < s.NGPUs; st++ {
		s.queue(st, 0, layersOf[st], s.NGPUs-st, updAfter)
	}
}

// queue orders device d's queue over replica r's layers. Microbatches
// run in waves of GroupSize (0 = all m), and a wave runs each layer
// across its microbatches back-to-back, so W[l] is swapped once per
// phase per wave. Plain, forward waves ascend and backward waves
// descend, so the last forward wave's stash is consumed first while
// still warm. Under WaveInterleave the waves run 1F1B: enough forward
// waves to cover the pipeline depth in microbatches, then
// backward/forward alternation, then the drain, which bounds in-flight
// stash per device. With JIT, updAfter[l]'s updates follow layer l's
// backward in the last backward wave that runs (commUpdateGroups);
// without it, every update trails the queue, forcing W/dW to be
// re-swapped (§2 inefficiency 2).
func (s *Schedule) queue(d, r int, layers []int, depth int, updAfter [][]int) {
	g, m := s.Graph, s.Graph.Cfg.Microbatches
	G, interleave := s.Opts.GroupSize, s.Opts.WaveInterleave
	if G == 0 || G > m {
		G = m
	}
	waves := (m + G - 1) / G
	last := 0 // the backward wave that runs last
	if interleave {
		last = waves - 1
	}
	q := make([]*graph.Task, 0, len(layers)*(2*m+1))
	fwd := func(w int) {
		for _, l := range layers {
			for i := w * G; i < min((w+1)*G, m); i++ {
				q = append(q, g.Fwd[r][l][i])
			}
		}
	}
	bwd := func(w int) {
		for k := len(layers) - 1; k >= 0; k-- {
			l := layers[k]
			for i := w * G; i < min((w+1)*G, m); i++ {
				q = append(q, g.Bwd[r][l][i])
			}
			if s.Opts.JIT && w == last {
				for _, ul := range updAfter[l] {
					q = append(q, g.Upd[r][ul])
				}
			}
		}
	}
	if interleave {
		warm := min(max((depth+G-1)/G, 1), waves)
		for w := 0; w < warm; w++ {
			fwd(w)
		}
		for w := warm; w < waves; w++ {
			bwd(w - warm)
			fwd(w)
		}
		for w := waves - warm; w < waves; w++ {
			bwd(w)
		}
	} else {
		for w := 0; w < waves; w++ {
			fwd(w)
		}
		for w := waves - 1; w >= 0; w-- {
			bwd(w)
		}
	}
	if !s.Opts.JIT {
		for _, l := range layers {
			q = append(q, g.Upd[r][l])
		}
	}
	s.Queues[d] = q
}

// partition splits layers into NGPUs contiguous stages. Without
// Packing it balances layer counts; with Packing it balances a
// composite load of compute, weight bytes and stash bytes (the
// multi-dimensional "task packing" of §3 opt 4) using the classic
// linear-partition dynamic program.
func (s *Schedule) partition() []int {
	g := s.Graph
	R := g.Layers()
	N := s.NGPUs
	cost := make([]float64, R)
	if s.Opts.Packing {
		var totFlops, totBytes float64
		flops := make([]float64, R)
		bytes := make([]float64, R)
		for l, spec := range g.Cfg.Model.Layers {
			flops[l] = spec.FwdFLOPsPerSample * (1 + 2) // fwd + bwd
			bytes[l] = float64(spec.WeightBytes())*(2+g.Cfg.Model.OptStateParamsFactor) +
				float64(spec.StashBytesPerSample*int64(g.Cfg.MicrobatchSize*g.Cfg.Microbatches))
			totFlops += flops[l]
			totBytes += bytes[l]
		}
		for l := 0; l < R; l++ {
			cost[l] = flops[l]/totFlops + bytes[l]/totBytes
		}
	} else {
		for l := 0; l < R; l++ {
			cost[l] = 1
		}
	}
	return linearPartition(cost, N)
}

// linearPartition assigns each index a bin 0..k-1 with contiguous
// bins, minimizing the maximum bin cost (standard O(n²k) DP).
func linearPartition(cost []float64, k int) []int {
	n := len(cost)
	prefix := make([]float64, n+1)
	for i, c := range cost {
		prefix[i+1] = prefix[i] + c
	}
	rangeCost := func(i, j int) float64 { return prefix[j] - prefix[i] } // [i, j)
	const inf = 1e300
	// best[i][p] = minimal max-load splitting cost[0:i] into p bins.
	best := make([][]float64, n+1)
	cut := make([][]int, n+1)
	for i := range best {
		best[i] = make([]float64, k+1)
		cut[i] = make([]int, k+1)
		for p := range best[i] {
			best[i][p] = inf
		}
	}
	best[0][0] = 0
	for p := 1; p <= k; p++ {
		for i := 1; i <= n; i++ {
			for j := p - 1; j < i; j++ {
				if best[j][p-1] == inf {
					continue
				}
				load := rangeCost(j, i)
				v := best[j][p-1]
				if load > v {
					v = load
				}
				if v < best[i][p] {
					best[i][p] = v
					cut[i][p] = j
				}
			}
		}
	}
	out := make([]int, n)
	i := n
	for p := k; p >= 1; p-- {
		j := cut[i][p]
		for x := j; x < i; x++ {
			out[x] = p - 1
		}
		i = j
	}
	return out
}
