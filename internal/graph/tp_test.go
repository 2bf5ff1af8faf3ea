package graph

import (
	"testing"

	"harmony/internal/models"
	"harmony/internal/tensor"
)

func tpGraph(t *testing.T, R, m, K int) *Graph {
	t.Helper()
	g, err := Build(Config{
		Model:          models.Uniform("tp", R, 1200, 4096, 1e6),
		MicrobatchSize: 2,
		Microbatches:   m,
		Replicas:       1,
		OpShards:       K,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTPValidation(t *testing.T) {
	if _, err := Build(Config{
		Model: models.Uniform("x", 2, 100, 100, 1e3), MicrobatchSize: 1,
		Microbatches: 1, Replicas: 2, OpShards: 2,
	}); err == nil {
		t.Fatal("sharding with multiple replicas accepted")
	}
	if _, err := Build(Config{
		Model: models.Uniform("x", 2, 100, 100, 1e3), MicrobatchSize: 1,
		Microbatches: 1, Replicas: 1, OpShards: -1,
	}); err == nil {
		t.Fatal("negative shards accepted")
	}
}

func TestTPTaskCounts(t *testing.T) {
	R, m, K := 4, 3, 2
	g := tpGraph(t, R, m, K)
	// K·R·m forwards + K·R·m backwards + K·R updates +
	// R·m forward gathers + (R−1)·m backward gathers.
	want := K*R*m*2 + K*R + R*m + (R-1)*m
	if len(g.Tasks) != want {
		t.Fatalf("tasks = %d, want %d", len(g.Tasks), want)
	}
	if _, err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestTPWeightsPartitionedExactly(t *testing.T) {
	g := tpGraph(t, 4, 2, 3)
	// Shards must partition the weights exactly: total unchanged.
	model := models.Uniform("tp", 4, 1200, 4096, 1e6)
	if got, want := g.Reg.TotalBytes(tensor.Weight), model.WeightBytes(); got != want {
		t.Fatalf("sharded weights sum to %d, want %d", got, want)
	}
	// 1200 params = 4800 bytes over 3 shards = 1600 each.
	for s := 0; s < 3; s++ {
		if g.W[s][0].Bytes != 1600 {
			t.Fatalf("shard %d weight = %d", s, g.W[s][0].Bytes)
		}
	}
	// Uneven division spreads the remainder.
	g2 := tpGraph(t, 2, 1, 3)
	var partialSum int64
	for s := 0; s < 3; s++ {
		partialSum += g2.PartialAct[s][1][0].Bytes
	}
	if partialSum != g2.Act[0][1][0].Bytes {
		t.Fatalf("partials sum to %d, want full activation %d", partialSum, g2.Act[0][1][0].Bytes)
	}
}

func TestTPFlopsDividedAcrossShards(t *testing.T) {
	g := tpGraph(t, 2, 1, 2)
	full := MustBuild(Config{
		Model:          models.Uniform("tp", 2, 1200, 4096, 1e6),
		MicrobatchSize: 2, Microbatches: 1, Replicas: 1,
	})
	if got, want := g.Fwd[0][0][0].FLOPs, full.Fwd[0][0][0].FLOPs/2; got != want {
		t.Fatalf("shard FLOPs = %v, want half of %v", got, full.Fwd[0][0][0].FLOPs)
	}
}

func TestTPGatherStructure(t *testing.T) {
	g := tpGraph(t, 3, 2, 2)
	ag := g.AGf[1][0]
	if ag.Kind != Gather {
		t.Fatalf("AGf kind = %v", ag.Kind)
	}
	if len(ag.Inputs) != 2 || len(ag.Outputs) != 2 || len(ag.Frees) != 2 {
		t.Fatalf("gather arity: in=%d out=%d frees=%d", len(ag.Inputs), len(ag.Outputs), len(ag.Frees))
	}
	// Inputs are the partials; outputs the full replicas.
	if ag.Inputs[0] != g.PartialAct[0][1][0] || ag.Outputs[1] != g.Act[1][1][0] {
		t.Fatal("gather wiring wrong")
	}
	// Comm is the full activation (sum of partials).
	if ag.CommBytes != g.Act[0][1][0].Bytes {
		t.Fatalf("gather comm = %d, want %d", ag.CommBytes, g.Act[0][1][0].Bytes)
	}
	// The next layer's forward on each shard depends on the gather.
	found := false
	for _, d := range g.Fwd[1][1][0].Deps {
		if d == ag {
			found = true
		}
	}
	if !found {
		t.Fatal("next forward missing gather dependency")
	}
	// Backward gathers exist for interior layers only.
	if g.AGb[1][0] == nil || g.AGb[1][0].Kind != Gather {
		t.Fatal("AGb missing for interior layer")
	}
}

func TestTPNoAllReduce(t *testing.T) {
	g := tpGraph(t, 3, 2, 2)
	if g.AR != nil {
		t.Fatal("sharded graph must not all-reduce (weights are partitioned)")
	}
	// Updates depend only on the shard's own backwards.
	u := g.Upd[1][0]
	if len(u.Deps) != 2 {
		t.Fatalf("update deps = %d, want m=2", len(u.Deps))
	}
	for _, d := range u.Deps {
		if d.Kind != Backward || d.Replica != 1 {
			t.Fatalf("update dep %s should be shard 1's backward", d)
		}
	}
}

func TestTPEveryTransientFreed(t *testing.T) {
	g := tpGraph(t, 3, 2, 2)
	freed := map[int]int{}
	for _, task := range g.Tasks {
		for _, f := range task.Frees {
			freed[f.ID]++
		}
	}
	for _, tt := range g.Reg.All() {
		if tt.Kind.IsPersistent() {
			if freed[tt.ID] != 0 {
				t.Fatalf("persistent %s freed", tt)
			}
			continue
		}
		if tt.Kind == tensor.Activation && tt.Layer == 0 {
			continue // input replicas, freed by the runtime
		}
		if freed[tt.ID] != 1 {
			t.Fatalf("transient %s freed %d times", tt, freed[tt.ID])
		}
	}
}

// TestBuildAllocationBudget holds graph.Build of the BERT-48 Harmony-TP
// plan on four shards to a budget that does not grow with the number of
// tensors: a tensor is carved from one presized chunk and carries no
// name to format. Measured: 117 allocations at 8 microbatches (8 568
// tensors) and at 16 (16 536); 8 816 at 8 when every tensor had a
// formatted name and the registry a map of them. Budget: 117 plus 25 %.
func TestBuildAllocationBudget(t *testing.T) {
	const budget = 146
	for _, m := range []int{8, 16} {
		cfg := Config{Model: models.BERT48(), MicrobatchSize: 1, Microbatches: m, Replicas: 1, OpShards: 4}
		if n := testing.AllocsPerRun(10, func() { MustBuild(cfg) }); n > budget {
			t.Errorf("%d microbatches: %v allocations per Build, budget %d", m, n, budget)
		}
	}
}
