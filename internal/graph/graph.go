// Package graph implements Harmony's Task Decomposer (paper Fig. 3):
// it refines a model into a fine-grained task graph that decouples
// forward, backward and weight-update per layer per microbatch, with
// dependencies encoded as graph edges. These tasks are the unit of
// scheduling; schedulers (internal/sched) order them and late-bind
// them to devices.
//
// The same graph serves every execution mode: baseline data-parallel,
// baseline pipeline-parallel, Harmony-DP and Harmony-PP differ only in
// task ordering, device binding, and memory policy.
package graph

import (
	"fmt"

	"harmony/internal/models"
	"harmony/internal/tensor"
)

// Kind is the task type.
type Kind int

const (
	// Forward computes layer l's output for one microbatch.
	Forward Kind = iota
	// Backward computes input gradients and accumulates weight
	// gradients for one microbatch.
	Backward
	// Update applies the optimizer to one layer's weights.
	Update
	// AllReduce averages one layer's weight gradients across
	// data-parallel replicas.
	AllReduce
	// Gather all-gathers per-shard partial tensors into full copies
	// on every shard's device (intra-op sharding).
	Gather
)

var kindNames = [...]string{"FWD", "BWD", "UPD", "AR", "AG"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Task is one schedulable unit.
type Task struct {
	ID   int
	Kind Kind
	// Replica is the data-parallel replica the task belongs to
	// (always 0 in pipeline mode). AllReduce tasks span replicas and
	// use -1.
	Replica int
	// Layer is the layer index; Microbatch is -1 for Update and
	// AllReduce.
	Layer      int
	Microbatch int

	// FLOPs is the compute cost (0 for AllReduce; its cost is
	// communication, computed by the collective package from
	// CommBytes).
	FLOPs float64
	// CommBytes is the per-replica payload for AllReduce tasks.
	CommBytes int64
	// WorkspaceBytes must be free on the device while running.
	WorkspaceBytes int64

	// Inputs must be resident (and are pinned) while the task runs.
	Inputs []*tensor.Tensor
	// Outputs are produced on the device by the task.
	Outputs []*tensor.Tensor
	// Mutates are inputs modified in place (marked dirty).
	Mutates []*tensor.Tensor
	// Frees are tensors whose last use is this task; the runtime
	// destroys them on completion.
	Frees []*tensor.Tensor

	// Deps are tasks that must complete first.
	Deps []*Task
	// Succs is the reverse adjacency, filled by the builder.
	Succs []*Task
}

func (t *Task) String() string {
	switch t.Kind {
	case Update:
		return fmt.Sprintf("UPD[r%d,L%d]", t.Replica, t.Layer)
	case AllReduce:
		return fmt.Sprintf("AR[L%d]", t.Layer)
	case Gather:
		return fmt.Sprintf("AG[L%d,mb%d]", t.Layer, t.Microbatch)
	default:
		return fmt.Sprintf("%s[r%d,L%d,mb%d]", t.Kind, t.Replica, t.Layer, t.Microbatch)
	}
}

// Config describes one training iteration to decompose.
type Config struct {
	Model *models.Model
	// MicrobatchSize is samples per microbatch; Microbatches is m,
	// the number of microbatches each replica processes per
	// iteration (the grouping window of Harmony's input-batch
	// grouping).
	MicrobatchSize int
	Microbatches   int
	// Replicas is N for data parallelism; use 1 for pipeline
	// parallelism (a single model copy whose layers are spread
	// across devices).
	Replicas int

	// Recompute enables activation recomputation (Chen et al.,
	// cited as [7] by the paper): the stash shrinks to just each
	// layer's input (the checkpoint) and the backward pass re-runs
	// the forward computation, trading FLOPs for memory — the other
	// end of the §4 memory–performance tango.
	Recompute bool

	// OpShards > 1 decomposes each individual operation into that
	// many subtasks running on different devices (the paper's second
	// key idea: "we further decompose individual operations—such as
	// a matrix multiplication—into subtasks"). Weights, gradients,
	// optimizer state and stash are partitioned across shards;
	// partial layer outputs are combined by all-gather tasks.
	// Requires Replicas == 1 (shards replace data-parallel
	// replicas). The shard index reuses the replica dimension of the
	// Graph's arrays.
	OpShards int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("graph: nil model")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.MicrobatchSize <= 0 {
		return fmt.Errorf("graph: MicrobatchSize must be positive, got %d", c.MicrobatchSize)
	}
	if c.Microbatches <= 0 {
		return fmt.Errorf("graph: Microbatches must be positive, got %d", c.Microbatches)
	}
	if c.Replicas <= 0 {
		return fmt.Errorf("graph: Replicas must be positive, got %d", c.Replicas)
	}
	if c.OpShards < 0 {
		return fmt.Errorf("graph: OpShards must be non-negative, got %d", c.OpShards)
	}
	if c.OpShards > 1 && c.Replicas != 1 {
		return fmt.Errorf("graph: OpShards (%d) requires a single replica, got %d", c.OpShards, c.Replicas)
	}
	return nil
}

// MiniBatch is the global batch size of one iteration.
func (c Config) MiniBatch() int { return c.MicrobatchSize * c.Microbatches * c.Replicas }

// Graph is a decomposed training iteration.
type Graph struct {
	Cfg   Config
	Reg   *tensor.Registry
	Tasks []*Task

	// Tensor handles, indexed [replica][layer] or
	// [replica][layer][microbatch].
	W, DW, K [][]*tensor.Tensor
	// Act[r][l][i] is layer l's output for microbatch i; Act[r][0]
	// holds the model *input* batch at layer index 0, so layer l's
	// input is Act[r][l][i] and its output Act[r][l+1][i].
	Act   [][][]*tensor.Tensor
	Stash [][][]*tensor.Tensor
	// Grad[r][l][i] is the gradient flowing into layer l's output
	// (dY for layer l) — produced by BWD of layer l+1, consumed by
	// BWD of layer l. Grad[r][R] is the loss gradient.
	Grad [][][]*tensor.Tensor

	// Intra-op sharding (OpShards > 1) reuses the replica dimension
	// for shards and adds partial tensors plus gather tasks.
	// PartialAct[s][l][i] is shard s's slice of the full Act[·][l][i]
	// (l ≥ 1); PartialGrad likewise for interior gradients.
	PartialAct  [][][]*tensor.Tensor
	PartialGrad [][][]*tensor.Tensor

	// Task handles.
	Fwd [][][]*Task // [replica][layer][microbatch]
	Bwd [][][]*Task
	Upd [][]*Task // [replica][layer]
	AR  []*Task   // [layer], nil when Replicas == 1
	// AGf[l][i] gathers layer l−1's forward partials into Act[·][l][i]
	// replicas (l = 1..R); AGb[l][i] gathers backward partials into
	// Grad[·][l][i] replicas (l = 1..R−1). Nil without OpShards.
	AGf [][]*Task
	AGb [][]*Task
}

// Layers returns the model depth R.
func (g *Graph) Layers() int { return len(g.Cfg.Model.Layers) }

// builder lays a graph out for its whole life in a few arrays: the tasks
// in one slab, and every task's tensor and task lists carved from shared
// backing arrays as cap == len slices, so a caller's append to one list
// reallocates instead of writing into its neighbour's.
type builder struct {
	g    *Graph
	slab []Task
	// tens and links are the unused tails of the chunks the lists are
	// carved from. A chunk holds one entry per task, so a graph's lists
	// take a handful of chunks.
	tens  []*tensor.Tensor
	links []*Task
}

// newBuilder starts a graph of exactly n tasks and nt tensors.
func newBuilder(cfg Config, n, nt int) *builder {
	reg := tensor.NewRegistry()
	reg.Grow(nt)
	return &builder{
		g:    &Graph{Cfg: cfg, Reg: reg, Tasks: make([]*Task, 0, n)},
		slab: make([]Task, n),
	}
}

// task appends the next task. A task's lists are all set before the next
// task is created, which is what keeps link's edge order the build order.
func (b *builder) task(k Kind, replica, layer, microbatch int) *Task {
	id := len(b.g.Tasks)
	t := &b.slab[id]
	*t = Task{ID: id, Kind: k, Replica: replica, Layer: layer, Microbatch: microbatch}
	b.g.Tasks = append(b.g.Tasks, t)
	return t
}

// tensors and deps copy a list into the shared backing; an empty list
// stays nil.
func (b *builder) tensors(ts ...*tensor.Tensor) []*tensor.Tensor {
	return carve(&b.tens, len(ts), len(b.slab), ts)
}

func (b *builder) deps(ts ...*Task) []*Task { return carve(&b.links, len(ts), len(b.slab), ts) }

// carve takes a cap == n slice off the front of *buf, starting a new
// chunk when the current one is short, and copies xs into it. The slice
// has xs's length, so a nil xs reserves room for n appends.
func carve[T any](buf *[]T, n, chunk int, xs []T) []T {
	if n == 0 {
		return nil
	}
	if len(*buf) < n {
		*buf = make([]T, max(n, chunk))
	}
	out := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return out[:copy(out, xs)]
}

// link fills every task's Succs from the Deps, carved like them: each
// task's successors in ascending task ID, then in the order the
// successor lists its dependencies.
func (b *builder) link() *Graph {
	tasks := b.g.Tasks
	succs := make([]int, len(tasks))
	for _, t := range tasks {
		for _, on := range t.Deps {
			succs[on.ID]++
		}
	}
	for _, t := range tasks {
		t.Succs = carve(&b.links, succs[t.ID], len(b.slab), nil)
	}
	for _, t := range tasks {
		for _, on := range t.Deps {
			on.Succs = append(on.Succs, t)
		}
	}
	return b.g
}

// rows returns n slices of m elements each, carved from one array.
func rows[T any](n, m int) [][]T {
	buf := make([]T, n*m)
	out := make([][]T, n)
	for i := range out {
		out[i] = buf[i*m : (i+1)*m : (i+1)*m]
	}
	return out
}

// Build decomposes one training iteration into the fine-grained task
// graph.
func Build(cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.OpShards > 1 {
		return buildTP(cfg)
	}
	R := len(cfg.Model.Layers)
	N := cfg.Replicas
	m := cfg.Microbatches
	mb := int64(cfg.MicrobatchSize)
	// Forward and backward per replica, layer and microbatch, an update
	// per replica and layer, and an all-reduce per layer across replicas.
	n := N*R*(2*m+1) + R
	if N == 1 {
		n -= R
	}
	// W, dW and K per replica and layer; Act (R+1 of them), Stash (R) and
	// Grad (R−1) per replica and microbatch.
	b := newBuilder(cfg, n, N*3*R*(m+1))
	g := b.g

	// Tensors.
	g.W = make([][]*tensor.Tensor, N)
	g.DW = make([][]*tensor.Tensor, N)
	g.K = make([][]*tensor.Tensor, N)
	g.Act = make([][][]*tensor.Tensor, N)
	g.Stash = make([][][]*tensor.Tensor, N)
	g.Grad = make([][][]*tensor.Tensor, N)
	for r := 0; r < N; r++ {
		g.W[r] = make([]*tensor.Tensor, R)
		g.DW[r] = make([]*tensor.Tensor, R)
		g.K[r] = make([]*tensor.Tensor, R)
		g.Act[r] = rows[*tensor.Tensor](R+1, m)
		g.Stash[r] = rows[*tensor.Tensor](R, m)
		g.Grad[r] = rows[*tensor.Tensor](R+1, m)
		for l := 0; l < R; l++ {
			spec := cfg.Model.Layers[l]
			wb := spec.WeightBytes()
			g.W[r][l] = g.Reg.Add(tensor.Weight, wb, l, -1)
			g.DW[r][l] = g.Reg.Add(tensor.WeightGrad, wb, l, -1)
			kb := int64(float64(wb) * cfg.Model.OptStateParamsFactor)
			g.K[r][l] = g.Reg.Add(tensor.OptState, kb, l, -1)
		}
		for l := 0; l <= R; l++ {
			for i := 0; i < m; i++ {
				var actBytes int64
				if l == 0 {
					actBytes = cfg.Model.SampleBytes * mb
				} else {
					actBytes = cfg.Model.Layers[l-1].ActBytesPerSample * mb
				}
				g.Act[r][l][i] = g.Reg.Add(tensor.Activation, actBytes, l, i)
				// Gradient w.r.t. Act[l], same size. Only interior
				// indices exist: Grad[0] (input gradient) is never
				// computed and Grad[R] (loss gradient) is produced
				// inside the last backward task.
				if l >= 1 && l <= R-1 {
					g.Grad[r][l][i] = g.Reg.Add(tensor.ActivationGrad, actBytes, l, i)
				}
				if l < R {
					sb := cfg.Model.Layers[l].StashBytesPerSample * mb
					if cfg.Recompute {
						// Checkpoint only the layer input; backward
						// recomputes the rest.
						sb = actBytes
					}
					g.Stash[r][l][i] = g.Reg.Add(tensor.Stash, sb, l, i)
				}
			}
		}
	}

	// Tasks.
	g.Fwd = make([][][]*Task, N)
	g.Bwd = make([][][]*Task, N)
	g.Upd = make([][]*Task, N)
	for r := 0; r < N; r++ {
		g.Fwd[r] = rows[*Task](R, m)
		g.Bwd[r] = rows[*Task](R, m)
		g.Upd[r] = make([]*Task, R)
		for l := 0; l < R; l++ {
			spec := cfg.Model.Layers[l]
			for i := 0; i < m; i++ {
				f := b.task(Forward, r, l, i)
				f.FLOPs = spec.FwdFLOPsPerSample * float64(mb)
				f.WorkspaceBytes = spec.WorkspaceBytes
				f.Inputs = b.tensors(g.W[r][l], g.Act[r][l][i])
				f.Outputs = b.tensors(g.Act[r][l+1][i], g.Stash[r][l][i])
				if l > 0 {
					f.Deps = b.deps(g.Fwd[r][l-1][i])
					// Layer l's input (Act[l]) is last read here; the
					// stash retains what backward needs.
					f.Frees = b.tensors(g.Act[r][l][i])
				}
				g.Fwd[r][l][i] = f
			}
		}
		// Backward tasks are built in reverse layer order so each can
		// reference the next layer's backward (its dY producer).
		for l := R - 1; l >= 0; l-- {
			spec := cfg.Model.Layers[l]
			for i := 0; i < m; i++ {
				bw := b.task(Backward, r, l, i)
				bw.FLOPs = spec.FwdFLOPsPerSample * float64(mb) * models.BwdFLOPsFactor
				if cfg.Recompute {
					// Re-run the forward from the checkpoint before
					// differentiating.
					bw.FLOPs += spec.FwdFLOPsPerSample * float64(mb)
					// The recomputed intermediates need transient
					// space on top of the usual workspace.
					bw.WorkspaceBytes = spec.WorkspaceBytes +
						(spec.StashBytesPerSample-spec.ActBytesPerSample)*mb
					if bw.WorkspaceBytes < spec.WorkspaceBytes {
						bw.WorkspaceBytes = spec.WorkspaceBytes
					}
				} else {
					bw.WorkspaceBytes = spec.WorkspaceBytes
				}
				w, dw, stash, fwd := g.W[r][l], g.DW[r][l], g.Stash[r][l][i], g.Fwd[r][l][i]
				if l < R-1 {
					// dY produced by the next layer's backward.
					dy := g.Grad[r][l+1][i]
					bw.Inputs = b.tensors(w, dw, stash, dy)
					bw.Deps = b.deps(g.Bwd[r][l+1][i], fwd)
					bw.Frees = b.tensors(dy, stash)
				} else {
					// Loss gradient: produced locally from the forward
					// output; no extra input tensor. The edge from the
					// forward is listed twice, once as the loss's producer
					// and once as the layer's own forward. The final
					// activation's last use is the loss.
					bw.Inputs = b.tensors(w, dw, stash)
					bw.Deps = b.deps(fwd, fwd)
					bw.Frees = b.tensors(stash, g.Act[r][l+1][i])
				}
				if l > 0 {
					bw.Outputs = b.tensors(g.Grad[r][l][i])
				}
				bw.Mutates = b.tensors(dw)
				g.Bwd[r][l][i] = bw
			}
		}
	}
	if N > 1 {
		var dws []*tensor.Tensor
		var deps []*Task
		g.AR = make([]*Task, R)
		for l := 0; l < R; l++ {
			ar := b.task(AllReduce, -1, l, -1)
			ar.CommBytes = g.DW[0][l].Bytes
			dws, deps = dws[:0], deps[:0]
			for r := 0; r < N; r++ {
				dws = append(dws, g.DW[r][l])
				deps = append(deps, g.Bwd[r][l]...)
			}
			ar.Inputs = b.tensors(dws...)
			ar.Mutates = b.tensors(dws...)
			ar.Deps = b.deps(deps...)
			g.AR[l] = ar
		}
	}
	for r := 0; r < N; r++ {
		for l := 0; l < R; l++ {
			u := b.task(Update, r, l, -1)
			u.FLOPs = float64(cfg.Model.Layers[l].Params) * models.UpdateFLOPsPerParam
			u.Inputs = b.tensors(g.W[r][l], g.DW[r][l], g.K[r][l])
			u.Mutates = b.tensors(g.W[r][l], g.DW[r][l], g.K[r][l])
			if g.AR != nil {
				u.Deps = b.deps(g.AR[l])
			} else {
				u.Deps = b.deps(g.Bwd[r][l]...)
			}
			g.Upd[r][l] = u
		}
	}
	return b.link(), nil
}

// MustBuild panics on error; for tests and static configs.
func MustBuild(cfg Config) *Graph {
	g, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// PersistentTensors returns all weights, gradient buffers and
// optimizer state (host-resident at iteration start).
func (g *Graph) PersistentTensors() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, t := range g.Reg.All() {
		if t.Kind.IsPersistent() {
			out = append(out, t)
		}
	}
	return out
}

// InputTensors returns the per-replica model input batches (Act layer
// 0), which the data loader materializes in host memory each
// iteration.
func (g *Graph) InputTensors() []*tensor.Tensor {
	var out []*tensor.Tensor
	for r := range g.Act {
		out = append(out, g.Act[r][0]...)
	}
	return out
}

// CheckAcyclic verifies the dependency graph has no cycles and
// returns a topological order.
func (g *Graph) CheckAcyclic() ([]*Task, error) {
	indeg := make([]int, len(g.Tasks))
	for _, t := range g.Tasks {
		indeg[t.ID] = len(t.Deps)
	}
	queue := make([]*Task, 0, len(g.Tasks))
	for _, t := range g.Tasks {
		if indeg[t.ID] == 0 {
			queue = append(queue, t)
		}
	}
	order := make([]*Task, 0, len(g.Tasks))
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, s := range t.Succs {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, fmt.Errorf("graph: dependency cycle (%d of %d tasks orderable)", len(order), len(g.Tasks))
	}
	return order, nil
}
