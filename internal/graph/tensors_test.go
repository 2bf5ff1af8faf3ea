package graph_test

import (
	"fmt"
	"testing"

	"harmony/internal/graph"
	"harmony/internal/models"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// TestEveryTensorRegisteredOnce holds what a registry keyed by tensor
// name used to guard, without names: no tensor is registered twice and
// none is left out. On every mode's plan of three models over 1, 2 and
// 4 replicas or shards, each W/DW/K/Act/Grad/Stash/PartialAct/
// PartialGrad slot holds its own *Tensor, every registered tensor sits
// in exactly one slot, and a tensor's ID is its index in the registry.
func TestEveryTensorRegisteredOnce(t *testing.T) {
	for m := sched.DPBaseline; m <= sched.HarmonyTP; m++ {
		for _, model := range []*models.Model{models.BERT48(), models.GPT2XL(), models.Uniform("uniform", 6, 1000, 4096, 1e6)} {
			for _, gpus := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/%d", m, model.Name, gpus)
				s, err := sched.Plan(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 3}, sched.DefaultOptions(m), gpus)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkRegisteredOnce(t, name, s.Graph)
			}
		}
	}
}

func checkRegisteredOnce(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	all := g.Reg.All()
	if cap(all) != len(all) {
		t.Errorf("%s: %d tensors registered, the builder made room for %d", name, len(all), cap(all))
	}
	slot := make(map[*tensor.Tensor]string, len(all))
	put := func(ts *tensor.Tensor, where string) {
		if ts == nil {
			return
		}
		if prev, dup := slot[ts]; dup {
			t.Fatalf("%s: %v is in both %s and %s", name, ts, prev, where)
		}
		slot[ts] = where
	}
	for r := range g.W {
		for l := range g.W[r] {
			put(g.W[r][l], fmt.Sprintf("W[%d][%d]", r, l))
			put(g.DW[r][l], fmt.Sprintf("DW[%d][%d]", r, l))
			put(g.K[r][l], fmt.Sprintf("K[%d][%d]", r, l))
		}
	}
	for kind, grid := range map[string][][][]*tensor.Tensor{
		"Act": g.Act, "Grad": g.Grad, "Stash": g.Stash, "PartialAct": g.PartialAct, "PartialGrad": g.PartialGrad,
	} {
		for r := range grid {
			for l := range grid[r] {
				for i, ts := range grid[r][l] {
					put(ts, fmt.Sprintf("%s[%d][%d][%d]", kind, r, l, i))
				}
			}
		}
	}
	if len(slot) != len(all) {
		t.Fatalf("%s: %d tensors in slots, %d registered", name, len(slot), len(all))
	}
	for i, ts := range all {
		if ts.ID != i {
			t.Fatalf("%s: registry entry %d has ID %d", name, i, ts.ID)
		}
		if _, ok := slot[ts]; !ok {
			t.Fatalf("%s: registered %v (ID %d) is in no slot", name, ts, ts.ID)
		}
	}
}
