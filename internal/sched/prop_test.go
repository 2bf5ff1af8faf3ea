package sched

import (
	"math/rand"
	"testing"

	"harmony/internal/graph"
	"harmony/internal/models"
	"harmony/internal/tensor"
)

// Randomized schedule soundness: for random models, parallel modes and
// optimization toggles, every schedule the builder emits must be
// executable (acyclic once queue order is added to the dependency
// edges), cover every (replica, layer, microbatch) task exactly once,
// and never queue a task whose pinned working set exceeds the
// analytic per-layer device-capacity bound.
func TestRandomizedSchedulesAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	modes := []Mode{DPBaseline, HarmonyDP, PPBaseline, HarmonyPP, TPBaseline, HarmonyTP}
	for trial := 0; trial < 80; trial++ {
		R := 2 + rng.Intn(5)      // layers
		m := 1 + rng.Intn(5)      // microbatches
		mbSize := 1 + rng.Intn(3) // samples per microbatch
		act := int64(256 << rng.Intn(3))
		model := models.Uniform("rand", R, int64(500+rng.Intn(2000)), act, 1e6)
		if rng.Intn(2) == 0 {
			// Heterogeneous weights stress the packing partitioner.
			model.Layers[rng.Intn(R)].Params *= int64(2 + rng.Intn(8))
		}

		mode := modes[rng.Intn(len(modes))]
		cfg := graph.Config{Model: model, MicrobatchSize: mbSize, Microbatches: m, Replicas: 1}
		var n int
		switch {
		case mode.IsPipeline():
			n = 1 + rng.Intn(min(R, 4))
		case mode.IsSharded():
			n = 2 + rng.Intn(2)
			cfg.OpShards = n
		default:
			n = 1 + rng.Intn(3)
			cfg.Replicas = n
		}

		opts := Options{
			Mode:                mode,
			JIT:                 rng.Intn(2) == 0,
			P2P:                 rng.Intn(2) == 0,
			Packing:             rng.Intn(2) == 0,
			Prefetch:            rng.Intn(2) == 0,
			DirtyTracking:       rng.Intn(2) == 0,
			DeferBlockedUpdates: rng.Intn(2) == 0,
			GroupSize:           rng.Intn(m + 2),
			WaveInterleave:      rng.Intn(2) == 0,
		}

		g, err := graph.Build(cfg)
		if err != nil {
			t.Fatalf("trial %d: graph %+v: %v", trial, cfg, err)
		}
		s, err := Build(g, opts, n)
		if err != nil {
			t.Fatalf("trial %d: sched mode=%v n=%d: %v", trial, mode, n, err)
		}
		if !t.Run("trial", func(t *testing.T) {
			checkCover(t, s)
			checkQueueOrder(t, s)
			checkExecutable(t, s)
			checkSemanticCoverage(t, s, cfg)
			checkDemandBound(t, s)
		}) {
			t.Fatalf("trial %d failed: mode=%v n=%d R=%d m=%d opts=%+v", trial, mode, n, R, m, opts)
		}
	}
}

// checkExecutable runs Kahn's algorithm over the union of dependency
// edges and per-device queue-adjacency edges: a cycle there means the
// in-order runtime deadlocks even though the task graph alone is
// acyclic (e.g. two queues ordered against each other's dependencies).
func checkExecutable(t *testing.T, s *Schedule) {
	t.Helper()
	nTasks := len(s.Graph.Tasks)
	succs := make([][]int, nTasks)
	indeg := make([]int, nTasks)
	addEdge := func(from, to int) {
		succs[from] = append(succs[from], to)
		indeg[to]++
	}
	for _, task := range s.Graph.Tasks {
		for _, dep := range task.Deps {
			addEdge(dep.ID, task.ID)
		}
	}
	for _, q := range s.Queues {
		for i := 1; i < len(q); i++ {
			addEdge(q[i-1].ID, q[i].ID)
		}
	}
	ready := make([]int, 0, nTasks)
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	done := 0
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		for _, nxt := range succs[id] {
			if indeg[nxt]--; indeg[nxt] == 0 {
				ready = append(ready, nxt)
			}
		}
	}
	if done != nTasks {
		for _, task := range s.Graph.Tasks {
			if indeg[task.ID] > 0 {
				t.Errorf("stuck task %s", task)
			}
		}
		t.Fatalf("schedule deadlocks: %d of %d tasks executable", done, nTasks)
	}
}

// checkSemanticCoverage recounts the queues against the training
// semantics: every (replica/shard, layer, microbatch) forward and
// backward exactly once, every (replica/shard, layer) update exactly
// once — independent of how the graph enumerated its task list.
func checkSemanticCoverage(t *testing.T, s *Schedule, cfg graph.Config) {
	t.Helper()
	groups := cfg.Replicas
	if cfg.OpShards > 1 {
		groups = cfg.OpShards
	}
	R, m := len(cfg.Model.Layers), cfg.Microbatches
	type key struct {
		kind    graph.Kind
		r, l, i int
	}
	counts := map[key]int{}
	for _, q := range s.Queues {
		for _, task := range q {
			counts[key{task.Kind, task.Replica, task.Layer, task.Microbatch}]++
		}
	}
	for r := 0; r < groups; r++ {
		for l := 0; l < R; l++ {
			for i := 0; i < m; i++ {
				if c := counts[key{graph.Forward, r, l, i}]; c != 1 {
					t.Fatalf("FWD[r%d,L%d,mb%d] scheduled %d times", r, l, i, c)
				}
				if c := counts[key{graph.Backward, r, l, i}]; c != 1 {
					t.Fatalf("BWD[r%d,L%d,mb%d] scheduled %d times", r, l, i, c)
				}
			}
			if c := counts[key{graph.Update, r, l, -1}]; c != 1 {
				t.Fatalf("UPD[r%d,L%d] scheduled %d times", r, l, c)
			}
		}
	}
}

// checkDemandBound verifies two capacity invariants for every queued
// compute task: it only pins its own replica's tensors from its own or
// adjacent layers (locality — the property that makes per-device
// memory bounded at all), and its pinned working set stays under the
// analytic per-layer bound a user would size DeviceBytes against.
func checkDemandBound(t *testing.T, s *Schedule) {
	t.Helper()
	model := s.Graph.Cfg.Model
	mb := int64(s.Graph.Cfg.MicrobatchSize)
	bound := func(l int) int64 {
		spec := model.Layers[l]
		shared := int64(float64(spec.WeightBytes()) * (2 + model.OptStateParamsFactor))
		actIn := model.SampleBytes
		if l > 0 {
			actIn = model.Layers[l-1].ActBytesPerSample
		}
		perMB := mb * (2*actIn + 2*spec.ActBytesPerSample + spec.StashBytesPerSample)
		ws := spec.WorkspaceBytes
		if adj := (spec.StashBytesPerSample - spec.ActBytesPerSample) * mb; adj > 0 {
			ws += adj
		}
		return shared + perMB + ws
	}
	for d, q := range s.Queues {
		for _, task := range q {
			demand := task.WorkspaceBytes
			for _, ts := range [][]*tensor.Tensor{task.Inputs, task.Outputs} {
				for _, ten := range ts {
					demand += ten.Bytes
					if ten.Layer < task.Layer-1 || ten.Layer > task.Layer+1 {
						t.Fatalf("%s on gpu%d pins non-adjacent layer tensor %s", task, d, ten)
					}
				}
			}
			if b := bound(task.Layer); demand > b {
				t.Fatalf("%s on gpu%d pins %d bytes, analytic layer bound is %d", task, d, demand, b)
			}
		}
	}
}
