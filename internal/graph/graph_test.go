package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"harmony/internal/models"
	"harmony/internal/tensor"
)

func toyModel(layers int) *models.Model {
	return models.Uniform("toy", layers, 1000, 4096, 1e6)
}

func TestBuildShapes(t *testing.T) {
	g := MustBuild(Config{Model: toyModel(4), MicrobatchSize: 2, Microbatches: 3, Replicas: 2})
	R, m, N := 4, 3, 2
	// FWD + BWD per (replica, layer, microbatch); UPD per (replica,
	// layer); AR per layer.
	want := N*R*m*2 + N*R + R
	if len(g.Tasks) != want {
		t.Fatalf("tasks = %d, want %d", len(g.Tasks), want)
	}
	if g.Layers() != R {
		t.Fatalf("Layers = %d", g.Layers())
	}
	if g.Cfg.MiniBatch() != 2*3*2 {
		t.Fatalf("MiniBatch = %d", g.Cfg.MiniBatch())
	}
	// Single replica: no AllReduce.
	g1 := MustBuild(Config{Model: toyModel(4), MicrobatchSize: 2, Microbatches: 3, Replicas: 1})
	if g1.AR != nil {
		t.Fatal("single replica should have no AllReduce tasks")
	}
	for _, task := range g1.Tasks {
		if task.Kind == AllReduce {
			t.Fatal("AllReduce task in single-replica graph")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	base := Config{Model: toyModel(2), MicrobatchSize: 1, Microbatches: 1, Replicas: 1}
	bad := []Config{
		{},
		{Model: toyModel(2), Microbatches: 1, Replicas: 1},
		{Model: toyModel(2), MicrobatchSize: 1, Replicas: 1},
		{Model: toyModel(2), MicrobatchSize: 1, Microbatches: 1},
	}
	if _, err := Build(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, c := range bad {
		if _, err := Build(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDependencyStructure(t *testing.T) {
	g := MustBuild(Config{Model: toyModel(3), MicrobatchSize: 1, Microbatches: 2, Replicas: 2})
	// Forward chain within a microbatch.
	f := g.Fwd[1][2][1]
	if len(f.Deps) != 1 || f.Deps[0] != g.Fwd[1][1][1] {
		t.Fatalf("FWD deps = %v", f.Deps)
	}
	// Backward of an interior layer depends on next layer's backward
	// and its own forward.
	b := g.Bwd[0][1][0]
	depSet := map[*Task]bool{}
	for _, d := range b.Deps {
		depSet[d] = true
	}
	if !depSet[g.Bwd[0][2][0]] || !depSet[g.Fwd[0][1][0]] {
		t.Fatalf("BWD[L1] deps = %v", b.Deps)
	}
	// Last layer's backward consumes no gradient tensor.
	last := g.Bwd[0][2][0]
	for _, in := range last.Inputs {
		if in.Kind == tensor.ActivationGrad {
			t.Fatal("last-layer backward should not consume a gradient tensor")
		}
	}
	// AllReduce depends on all replicas' backwards for its layer.
	ar := g.AR[1]
	if len(ar.Deps) != 2*2 {
		t.Fatalf("AR deps = %d, want 4", len(ar.Deps))
	}
	// Update depends on AllReduce in DP mode.
	u := g.Upd[1][1]
	if len(u.Deps) != 1 || u.Deps[0] != ar {
		t.Fatalf("UPD deps = %v, want [AR]", u.Deps)
	}
	// Update mutates W, dW and K.
	if len(u.Mutates) != 3 {
		t.Fatalf("UPD mutates %d tensors, want 3", len(u.Mutates))
	}
}

func TestUpdateDependsOnBackwardsWithoutAR(t *testing.T) {
	g := MustBuild(Config{Model: toyModel(2), MicrobatchSize: 1, Microbatches: 3, Replicas: 1})
	u := g.Upd[0][1]
	if len(u.Deps) != 3 {
		t.Fatalf("UPD deps = %d, want 3 (one per microbatch)", len(u.Deps))
	}
}

func TestAcyclicAndComplete(t *testing.T) {
	g := MustBuild(Config{Model: toyModel(5), MicrobatchSize: 2, Microbatches: 4, Replicas: 3})
	order, err := g.CheckAcyclic()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(g.Tasks) {
		t.Fatalf("topo order %d tasks, want %d", len(order), len(g.Tasks))
	}
	pos := make(map[*Task]int)
	for i, task := range order {
		pos[task] = i
	}
	for _, task := range g.Tasks {
		for _, d := range task.Deps {
			if pos[d] >= pos[task] {
				t.Fatalf("%s scheduled before its dep %s", task, d)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := MustBuild(Config{Model: toyModel(2), MicrobatchSize: 1, Microbatches: 1, Replicas: 1})
	// Artificially create a cycle.
	a, b := g.Tasks[0], g.Tasks[1]
	a.Deps = append(a.Deps, b)
	b.Succs = append(b.Succs, a)
	if _, err := g.CheckAcyclic(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTensorAccounting(t *testing.T) {
	m := toyModel(3)
	g := MustBuild(Config{Model: m, MicrobatchSize: 2, Microbatches: 2, Replicas: 2})
	// Per replica: R weights of 4000 bytes.
	if got, want := g.Reg.TotalBytes(tensor.Weight), int64(2*3*4000); got != want {
		t.Fatalf("weight bytes = %d, want %d", got, want)
	}
	// Optimizer state is 2x weights (Adam).
	if got, want := g.Reg.TotalBytes(tensor.OptState), int64(2*2*3*4000); got != want {
		t.Fatalf("opt state bytes = %d, want %d", got, want)
	}
	// Gradient tensors exist only for interior activations.
	nGrad := 0
	for _, tt := range g.Reg.All() {
		if tt.Kind == tensor.ActivationGrad {
			nGrad++
		}
	}
	if want := 2 * 2 * (3 - 1); nGrad != want { // N * m * (R-1)
		t.Fatalf("gradient tensors = %d, want %d", nGrad, want)
	}
	// Persistent + input tensors are well formed.
	for _, p := range g.PersistentTensors() {
		if !p.Kind.IsPersistent() {
			t.Fatalf("%s in PersistentTensors", p)
		}
	}
	ins := g.InputTensors()
	if len(ins) != 2*2 { // N * m
		t.Fatalf("input tensors = %d, want 4", len(ins))
	}
	for _, in := range ins {
		if in.Bytes != m.SampleBytes*2 {
			t.Fatalf("input size %d, want %d", in.Bytes, m.SampleBytes*2)
		}
	}
}

func TestEveryTransientTensorIsFreed(t *testing.T) {
	g := MustBuild(Config{Model: toyModel(4), MicrobatchSize: 1, Microbatches: 2, Replicas: 2})
	freed := map[int]int{}
	for _, task := range g.Tasks {
		for _, f := range task.Frees {
			freed[f.ID]++
		}
	}
	for _, tt := range g.Reg.All() {
		if tt.Kind.IsPersistent() {
			if freed[tt.ID] != 0 {
				t.Fatalf("persistent tensor %s freed by a task", tt)
			}
			continue
		}
		if tt.Kind == tensor.Activation && tt.Layer == 0 {
			// Act[0] is the model input batch, owned by the data
			// loader; the runtime frees it at iteration end.
			continue
		}
		if freed[tt.ID] != 1 {
			t.Fatalf("transient tensor %s freed %d times, want exactly once", tt, freed[tt.ID])
		}
	}
}

// Property: graph size formula holds for arbitrary shapes and the
// graph is always acyclic.
func TestBuildProperty(t *testing.T) {
	f := func(rRaw, mRaw, nRaw uint8) bool {
		R := int(rRaw%6) + 1
		m := int(mRaw%4) + 1
		N := int(nRaw%3) + 1
		g, err := Build(Config{Model: toyModel(R), MicrobatchSize: 1, Microbatches: m, Replicas: N})
		if err != nil {
			return false
		}
		want := N*R*m*2 + N*R
		if N > 1 {
			want += R
		}
		if len(g.Tasks) != want {
			return false
		}
		_, err = g.CheckAcyclic()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRecomputeShrinksStashAndRaisesBwdFLOPs(t *testing.T) {
	m := models.Transformer(models.TransformerConfig{
		Name: "rc", NumLayers: 4, Hidden: 256, SeqLen: 64, Vocab: 1000,
	})
	plain := MustBuild(Config{Model: m, MicrobatchSize: 2, Microbatches: 2, Replicas: 1})
	rc := MustBuild(Config{Model: m, MicrobatchSize: 2, Microbatches: 2, Replicas: 1, Recompute: true})

	plainStash := plain.Reg.TotalBytes(tensor.Stash)
	rcStash := rc.Reg.TotalBytes(tensor.Stash)
	if rcStash >= plainStash {
		t.Fatalf("recompute stash %d should be far below plain %d", rcStash, plainStash)
	}
	// Backward costs one extra forward.
	pb := plain.Bwd[0][1][0]
	rb := rc.Bwd[0][1][0]
	spec := m.Layers[1]
	wantExtra := spec.FwdFLOPsPerSample * 2
	if got := rb.FLOPs - pb.FLOPs; got != wantExtra {
		t.Fatalf("recompute extra FLOPs = %v, want %v", got, wantExtra)
	}
	// Recompute needs workspace for the regenerated intermediates.
	if rb.WorkspaceBytes <= pb.WorkspaceBytes {
		t.Fatal("recompute should reserve extra workspace")
	}
	// Forward tasks are unchanged.
	if plain.Fwd[0][1][0].FLOPs != rc.Fwd[0][1][0].FLOPs {
		t.Fatal("recompute must not change forward cost")
	}
}

func TestRecomputeStashIsCheckpointSized(t *testing.T) {
	m := models.Uniform("u", 3, 1000, 4096, 1e6)
	rc := MustBuild(Config{Model: m, MicrobatchSize: 2, Microbatches: 1, Replicas: 1, Recompute: true})
	// Layer 1's checkpoint is its input activation: layer 0's output.
	want := m.Layers[0].ActBytesPerSample * 2
	if got := rc.Stash[0][1][0].Bytes; got != want {
		t.Fatalf("checkpoint = %d, want input size %d", got, want)
	}
	// Layer 0's checkpoint is the sample batch.
	if got := rc.Stash[0][0][0].Bytes; got != m.SampleBytes*2 {
		t.Fatalf("layer-0 checkpoint = %d, want %d", got, m.SampleBytes*2)
	}
}

func TestMustBuildPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustBuild(Config{})
}

func TestMiniBatchForTP(t *testing.T) {
	c := Config{Model: toyModel(2), MicrobatchSize: 2, Microbatches: 3, Replicas: 1, OpShards: 4}
	if c.MiniBatch() != 6 {
		t.Fatalf("TP mini-batch = %d, want 6 (shards split work, not data)", c.MiniBatch())
	}
}

// TestTaskListsAreCarvedApart: tasks live in one slab and their lists in
// shared backing arrays, so every list is cut with cap == len; a caller's
// append then reallocates instead of writing into the next task's list.
func TestTaskListsAreCarvedApart(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"dp", Config{Model: toyModel(4), MicrobatchSize: 1, Microbatches: 3, Replicas: 2}},
		{"pp", Config{Model: toyModel(4), MicrobatchSize: 1, Microbatches: 3, Replicas: 1}},
		{"tp", Config{Model: toyModel(4), MicrobatchSize: 1, Microbatches: 3, Replicas: 1, OpShards: 3}},
		{"dp-recompute", Config{Model: toyModel(4), MicrobatchSize: 1, Microbatches: 2, Replicas: 2, Recompute: true}},
		{"tp-recompute", Config{Model: toyModel(4), MicrobatchSize: 1, Microbatches: 2, Replicas: 1, OpShards: 2, Recompute: true}},
	} {
		g := MustBuild(c.cfg)
		type lists struct {
			tensors [4][]*tensor.Tensor
			tasks   [2][]*Task
		}
		of := func(task *Task) lists {
			return lists{
				[4][]*tensor.Tensor{task.Inputs, task.Outputs, task.Mutates, task.Frees},
				[2][]*Task{task.Deps, task.Succs},
			}
		}
		before := make([]lists, len(g.Tasks))
		for i, task := range g.Tasks {
			if task.ID != i {
				t.Fatalf("%s: Tasks[%d].ID = %d", c.name, i, task.ID)
			}
			l := of(task)
			for k, ts := range l.tensors {
				if cap(ts) != len(ts) {
					t.Fatalf("%s: %s tensor list %d has len %d, cap %d", c.name, task, k, len(ts), cap(ts))
				}
				l.tensors[k] = append([]*tensor.Tensor(nil), ts...)
			}
			for k, ts := range l.tasks {
				if cap(ts) != len(ts) {
					t.Fatalf("%s: %s task list %d has len %d, cap %d", c.name, task, k, len(ts), cap(ts))
				}
				l.tasks[k] = append([]*Task(nil), ts...)
			}
			before[i] = l
		}
		stray, strayTask := &tensor.Tensor{ID: -1}, &Task{ID: -1}
		for _, task := range g.Tasks {
			_ = append(task.Inputs, stray)
			_ = append(task.Deps, strayTask)
		}
		for i, task := range g.Tasks {
			l := of(task)
			for k := range l.tensors {
				if !slices.Equal(l.tensors[k], before[i].tensors[k]) {
					t.Fatalf("%s: an append to another task's list changed %s's tensor list %d", c.name, task, k)
				}
			}
			for k := range l.tasks {
				if !slices.Equal(l.tasks[k], before[i].tasks[k]) {
					t.Fatalf("%s: an append to another task's list changed %s's task list %d", c.name, task, k)
				}
			}
		}
	}
}
