// Package sched builds execution schedules over the fine-grained task
// graph: the per-GPU-virtualization baselines (data-parallel and
// 1F1B pipeline-parallel) and the Harmony variants that add the four
// optimizations of the paper — input-batch grouping, just-in-time
// weight updates, peer-to-peer transfers, and load-balanced task
// packing. Every optimization is an independent Options toggle so the
// ablation benches can flip one at a time.
//
// A Schedule is a total order of tasks per device plus a memory
// policy; the runtime executes it respecting both the order and the
// task graph's dependency edges (late binding happens here: the graph
// itself never mentions devices).
package sched

import (
	"fmt"

	"harmony/internal/graph"
	"harmony/internal/hw"
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
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// IsPipeline reports whether the mode splits layers across devices.
func (m Mode) IsPipeline() bool { return m == PPBaseline || m == HarmonyPP }

// IsSharded reports whether the mode decomposes individual operations
// across devices (intra-op sharding).
func (m Mode) IsSharded() bool { return m == TPBaseline || m == HarmonyTP }

// Options selects a mode and its optimization toggles.
type Options struct {
	Mode Mode

	// Grouping enables input-batch grouping: a layer's task runs
	// across all microbatches back-to-back, so its state is swapped
	// once per phase instead of once per microbatch (§3 opt 1).
	Grouping bool
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
	// AdaptivePrefetch lets the executor retune each device's
	// prefetch lookahead window and byte budget online, between
	// iterations, from deterministic per-step coverage counters (§4's
	// open problem of online tuning). Implies Prefetch. The byte
	// budget never exceeds the engine cap, so static verification
	// bounds residency by the maximum admissible budget rather than
	// the starting one.
	AdaptivePrefetch bool
	// DirtyTracking drops clean tensors on eviction instead of
	// writing them back.
	DirtyTracking bool
	// DeferBlockedUpdates lets the runtime skip past an update task
	// whose AllReduce has not finished instead of stalling the device
	// queue. This trades the JIT residency of W/dW (they may be
	// evicted by the intervening tasks) for collective/compute
	// overlap — one axis of the paper's §4 memory–performance tango.
	// Off by default: under memory pressure the re-swap cost exceeds
	// the stall, and Fig. 5's 3N|W| volume assumes strict adjacency.
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

	// GroupSize bounds how many microbatches one grouped task sweep
	// covers (0 = all of them). It is the paper's §4 tango knob for
	// pipeline mode: grouping the full mini-batch minimizes weight
	// swaps (3|W|) but serializes stages; smaller groups pipeline as
	// waves at the cost of re-swapping weights once per wave
	// ((2·⌈m/G⌉+1)|W|). The tuner searches this dimension.
	GroupSize int

	// LookaheadEviction selects schedule-informed (Belady-style)
	// eviction over plain LRU: the memory manager asks the runtime
	// for each tensor's next scheduled use and evicts the
	// farthest-future one. The paper's scheduler/swapper co-design.
	LookaheadEviction bool

	// WaveInterleave runs pipeline waves in 1F1B order (forward wave
	// / backward wave alternation after a warmup) instead of all
	// forwards then all backwards. This bounds in-flight stash to
	// ~(pipeline depth)·GroupSize microbatches per stage rather than
	// all m — essential for stash-heavy workloads (long-sequence
	// transformers) where the plain grouped schedule's stash demand
	// would itself blow past device memory. Requires GroupSize > 0.
	WaveInterleave bool
}

// DefaultOptions returns the canonical option set for a mode:
// baselines disable everything, Harmony modes enable everything.
func DefaultOptions(m Mode) Options {
	switch m {
	case HarmonyTP:
		// Sharded mode has no AllReduce, so deferral never triggers;
		// gathers sit on the critical path by construction.
		return Options{Mode: m, Grouping: true, JIT: true, P2P: true, Packing: true,
			Prefetch: true, DirtyTracking: true}
	case HarmonyDP:
		// DeferBlockedUpdates keeps per-layer AllReduces off the
		// critical path (the scheduler running ready tasks instead of
		// stalling); the measured win over strict adjacency outweighs
		// the occasional re-swap except at extreme memory pressure
		// (see the tuner and the Fig. 5 idealized configuration).
		return Options{Mode: m, Grouping: true, JIT: true, P2P: true, Packing: true,
			Prefetch: true, DirtyTracking: true, DeferBlockedUpdates: true}
	case HarmonyPP:
		// Pipeline mode has a single replica and no collectives, so
		// update deferral never triggers.
		return Options{Mode: m, Grouping: true, JIT: true, P2P: true, Packing: true,
			Prefetch: true, DirtyTracking: true}
	default:
		return Options{Mode: m}
	}
}

// Schedule is a bound, ordered execution plan for one iteration.
type Schedule struct {
	Graph *graph.Graph
	Opts  Options
	NGPUs int

	// Assign maps task ID → device. AllReduce tasks are assigned
	// hw.Host as a sentinel (they run on the interconnect, touching
	// all devices).
	Assign []hw.DeviceID
	// Queues is the per-device total order of compute tasks.
	Queues [][]*graph.Task
	// Collectives holds AllReduce tasks; the runtime launches each
	// as soon as its dependencies complete.
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

	// MemPolicy and Prefetch configure the memory manager.
	MemPolicy memory.Policy
	Prefetch  bool
}

// Device returns the device a task is bound to.
func (s *Schedule) Device(t *graph.Task) hw.DeviceID { return s.Assign[t.ID] }

// Build constructs the schedule for a graph on nGPUs devices.
func Build(g *graph.Graph, opts Options, nGPUs int) (*Schedule, error) {
	if nGPUs <= 0 {
		return nil, fmt.Errorf("sched: nGPUs must be positive, got %d", nGPUs)
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
	if opts.AdaptivePrefetch {
		// Adaptive mode is a refinement of static prefetch.
		opts.Prefetch = true
	}
	s := &Schedule{
		Graph:  g,
		Opts:   opts,
		NGPUs:  nGPUs,
		Assign: make([]hw.DeviceID, len(g.Tasks)),
		Queues: make([][]*graph.Task, nGPUs),
		MemPolicy: memory.Policy{
			DirtyTracking: opts.DirtyTracking,
			P2P:           opts.P2P,
			Lookahead:     opts.LookaheadEviction,
		},
		Prefetch: opts.Prefetch,
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
	default:
		return nil, fmt.Errorf("sched: unknown mode %v", opts.Mode)
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

// buildDP binds replica r to GPU r and orders each queue either
// microbatch-major (baseline, Fig. 5(b)) or layer-major with grouping
// (Harmony, Fig. 5(c)).
func (s *Schedule) buildDP() {
	g := s.Graph
	R, m := g.Layers(), g.Cfg.Microbatches
	updAfter := s.commUpdateGroups()
	for r := 0; r < s.NGPUs; r++ {
		dev := hw.DeviceID(r)
		q := make([]*graph.Task, 0, R*m*2+R)
		if s.Opts.Grouping {
			// Layer-major: each layer crosses a group of microbatches
			// back-to-back, so W[l] is swapped once per phase per
			// wave (GroupSize = 0 means one wave covering all m).
			G := s.Opts.GroupSize
			if G <= 0 || G > m {
				G = m
			}
			waves := (m + G - 1) / G
			for w := 0; w < waves; w++ {
				lo, hi := w*G, min((w+1)*G, m)
				for l := 0; l < R; l++ {
					for i := lo; i < hi; i++ {
						q = append(q, g.Fwd[r][l][i])
					}
				}
			}
			for w := waves - 1; w >= 0; w-- {
				lo, hi := w*G, min((w+1)*G, m)
				for l := R - 1; l >= 0; l-- {
					for i := lo; i < hi; i++ {
						q = append(q, g.Bwd[r][l][i])
					}
					if s.Opts.JIT && w == 0 {
						for _, ul := range updAfter[l] {
							q = append(q, g.Upd[r][ul])
						}
					}
				}
			}
		} else {
			// Microbatch-major: the standard PyTorch loop.
			for i := 0; i < m; i++ {
				for l := 0; l < R; l++ {
					q = append(q, g.Fwd[r][l][i])
				}
				for l := R - 1; l >= 0; l-- {
					q = append(q, g.Bwd[r][l][i])
					if s.Opts.JIT && i == m-1 {
						for _, ul := range updAfter[l] {
							q = append(q, g.Upd[r][ul])
						}
					}
				}
			}
		}
		if !s.Opts.JIT {
			// Rigid scheduling: all updates after the full backward
			// pass, forcing W/dW to be re-swapped (§2 inefficiency 2).
			for l := 0; l < R; l++ {
				q = append(q, g.Upd[r][l])
			}
		}
		for _, t := range q {
			s.Assign[t.ID] = dev
		}
		s.Queues[r] = q
	}
	if g.AR != nil {
		// Gradients all-reduce per layer, launched as dependencies
		// complete (reverse layer order mirrors backward).
		for l := R - 1; l >= 0; l-- {
			s.Assign[g.AR[l].ID] = hw.Host
			s.Collectives = append(s.Collectives, g.AR[l])
		}
	}
	// Op-sharded graphs: the gathers are the collectives.
	for _, row := range g.AGf {
		for _, ag := range row {
			if ag != nil {
				s.Assign[ag.ID] = hw.Host
				s.Collectives = append(s.Collectives, ag)
			}
		}
	}
	for _, row := range g.AGb {
		for _, ag := range row {
			if ag != nil {
				s.Assign[ag.ID] = hw.Host
				s.Collectives = append(s.Collectives, ag)
			}
		}
	}
}

// buildPP partitions layers into contiguous stages and orders each
// stage's queue: 1F1B for the baseline, grouped phases for Harmony.
func (s *Schedule) buildPP() {
	g := s.Graph
	m := g.Cfg.Microbatches
	s.StageOfLayer = s.partition()
	layersOf := make([][]int, s.NGPUs)
	for l, st := range s.StageOfLayer {
		layersOf[st] = append(layersOf[st], l)
	}
	for st := 0; st < s.NGPUs; st++ {
		dev := hw.DeviceID(st)
		ls := layersOf[st]
		var q []*graph.Task
		fwd := func(i int) {
			for _, l := range ls {
				q = append(q, g.Fwd[0][l][i])
			}
		}
		bwd := func(i int, jit bool) {
			for k := len(ls) - 1; k >= 0; k-- {
				l := ls[k]
				q = append(q, g.Bwd[0][l][i])
				if jit && i == m-1 {
					q = append(q, g.Upd[0][l])
				}
			}
		}
		if s.Opts.Grouping {
			// Harmony-PP (Fig. 4): each layer runs a group of
			// microbatches back-to-back, forward then backward, with
			// JIT updates folded into the final backward sweep.
			// GroupSize < m splits the mini-batch into waves that
			// pipeline across stages (forward waves ascending,
			// backward waves descending so the last forward wave's
			// stash is consumed first while still warm).
			G := s.Opts.GroupSize
			if G <= 0 || G > m {
				G = m
			}
			waves := (m + G - 1) / G
			fwdWave := func(w int) {
				lo, hi := w*G, min((w+1)*G, m)
				for _, l := range ls {
					for i := lo; i < hi; i++ {
						q = append(q, g.Fwd[0][l][i])
					}
				}
			}
			bwdWave := func(w int, jit bool) {
				lo, hi := w*G, min((w+1)*G, m)
				for k := len(ls) - 1; k >= 0; k-- {
					l := ls[k]
					for i := lo; i < hi; i++ {
						q = append(q, g.Bwd[0][l][i])
					}
					if jit {
						q = append(q, g.Upd[0][l])
					}
				}
			}
			if s.Opts.WaveInterleave && waves > 1 {
				// 1F1B at wave granularity: warm up with enough
				// forward waves to cover the same microbatch depth
				// as classic 1F1B (stages − this stage), alternate,
				// then drain. Bounds in-flight stash per stage.
				warm := (s.NGPUs - st + G - 1) / G
				if warm > waves {
					warm = waves
				}
				if warm < 1 {
					warm = 1
				}
				for w := 0; w < warm; w++ {
					fwdWave(w)
				}
				for w := warm; w < waves; w++ {
					bwdWave(w-warm, s.Opts.JIT && w-warm == waves-1)
					fwdWave(w)
				}
				for w := waves - warm; w < waves; w++ {
					bwdWave(w, s.Opts.JIT && w == waves-1)
				}
			} else {
				for w := 0; w < waves; w++ {
					fwdWave(w)
				}
				for w := waves - 1; w >= 0; w-- {
					bwdWave(w, s.Opts.JIT && w == 0)
				}
			}
		} else {
			// 1F1B (memory-efficient pipeline): warmup forwards, a
			// steady 1F1B phase, then drain backwards. In-flight
			// microbatches at stage st: min(m, NGPUs-st) — the head
			// stashes the most, the Fig. 2(c) imbalance.
			warm := s.NGPUs - st
			if warm > m {
				warm = m
			}
			for i := 0; i < warm; i++ {
				fwd(i)
			}
			for i := warm; i < m; i++ {
				bwd(i-warm, s.Opts.JIT)
				fwd(i)
			}
			for i := m - warm; i < m; i++ {
				bwd(i, s.Opts.JIT)
			}
		}
		if !s.Opts.JIT {
			for _, l := range ls {
				q = append(q, g.Upd[0][l])
			}
		}
		for _, t := range q {
			s.Assign[t.ID] = dev
		}
		s.Queues[st] = q
	}
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
