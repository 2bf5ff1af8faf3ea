package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"harmony/internal/graph"
	"harmony/internal/models"
)

// heteroModel is a 7-layer model whose layers differ in weights,
// compute and stash, one of them weightless, so packing cuts unequal
// stages and a chunked plan carries an empty gradient.
func heteroModel() *models.Model {
	m := models.Uniform("het", 7, 1000, 4096, 1e6)
	for l := range m.Layers {
		m.Layers[l].Params = int64(500 * (1 + l%3))
		m.Layers[l].FwdFLOPsPerSample = float64(1+(l*5)%7) * 1e6
		m.Layers[l].StashBytesPerSample = int64(1024 * (1 + (l*3)%4))
	}
	m.Layers[3].Params = 0
	return m
}

// hashPlan writes the plan's queues and collectives, task IDs only,
// into h.
func hashPlan(h hash.Hash, s *Schedule) {
	for d, q := range s.Queues {
		fmt.Fprintf(h, "q%d:", d)
		for _, t := range q {
			fmt.Fprintf(h, " %d", t.ID)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprint(h, "c:")
	for _, c := range s.Collectives {
		fmt.Fprintf(h, " %d", c.ID)
	}
	fmt.Fprintln(h)
}

// TestQueueOrdersArePinned holds every queue and collective list of a
// 12 800-plan matrix to one digest: a change to how queues are built
// that moves one task of one plan fails here. The digest changes only
// with a deliberate change of schedule, which regenerates it.
//
// The grouping label is no option: grouping=false is a group of one,
// interleaved, and grouping=true is groupsize's waves, interleaved only
// in pipelines. The labels are hashed, so they stay as they are.
func TestQueueOrdersArePinned(t *testing.T) {
	const want = "31dfa2c0569cbde73233ac3cbce87d62c92c4e80656e5316bcf44ae3a54e3861"
	h := sha256.New()
	plans := 0
	for _, model := range []*models.Model{models.Uniform("uni", 6, 1000, 4096, 1e6), heteroModel()} {
		for _, mode := range []Mode{DPBaseline, PPBaseline, HarmonyDP, HarmonyPP, TPBaseline, HarmonyTP} {
			for gpus := 1; gpus <= 4; gpus++ {
				for _, m := range []int{1, 2, 3, 5, 8} {
					for _, grouping := range []bool{false, true} {
						for _, jit := range []bool{false, true} {
							for _, gs := range []int{0, 1, 2, 3} {
								for _, wi := range []bool{false, true} {
									for _, chunks := range []int{0, 2} {
										opts := Options{Mode: mode, JIT: jit, GroupSize: gs,
											WaveInterleave: wi && mode.IsPipeline(), CommChunks: chunks}
										if !grouping {
											opts.GroupSize, opts.WaveInterleave = 1, true
										}
										s, err := Plan(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: m}, opts, gpus)
										if err != nil {
											if chunks > 0 && mode.IsSharded() {
												continue
											}
											t.Fatalf("%s %s gpus=%d m=%d: %v", model.Name, mode, gpus, m, err)
										}
										fmt.Fprintf(h, "model=%s mode=%s gpus=%d m=%d grouping=%t jit=%t groupsize=%d interleave=%t chunks=%d\n",
											model.Name, mode, gpus, m, grouping, jit, gs, wi, chunks)
										hashPlan(h, s)
										plans++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if plans != 12800 {
		t.Fatalf("planned %d, want 12800", plans)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("queue digest %s, want %s", got, want)
	}
}

// planCells are BenchmarkSimulate's three cells, as the plans Simulate
// asks for.
var planCells = []struct {
	name string
	cfg  graph.Config
	opts Options
	gpus int
}{
	{"bert48/harmony-tp/4gpu", graph.Config{Model: models.BERT48(), MicrobatchSize: 1, Microbatches: 8},
		DefaultOptions(HarmonyTP), 4},
	{"bert48/dp-baseline/dense8/mb5", graph.Config{Model: models.BERT48(), MicrobatchSize: 1, Microbatches: 5},
		DefaultOptions(DPBaseline), 8},
	{"closed-form/harmony-dp", graph.Config{Model: models.Uniform("uniform", 16, 1000, 4096, 1e9), MicrobatchSize: 1, Microbatches: 2},
		func() Options { o := DefaultOptions(HarmonyDP); o.DeferBlockedUpdates = false; return o }(), 2},
}

// TestPlanAllocations guards the plan build's allocations on the
// dp-baseline cell, 169 when the guard was set, with one to spare: a
// queue builder that grows its queues or recomputes the update groups
// per device passes every order test and shows only here.
func TestPlanAllocations(t *testing.T) {
	const limit = 170
	c := planCells[1]
	got := testing.AllocsPerRun(100, func() {
		if _, err := Plan(c.cfg, c.opts, c.gpus); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Fatalf("%s: %v allocs per plan, want at most %d", c.name, got, limit)
	}
}

// BenchmarkPlan measures the plan build, graph included, for
// BenchmarkSimulate's cells:
//
//	go test -run XXX -bench BenchmarkPlan -benchmem ./internal/sched/
func BenchmarkPlan(b *testing.B) {
	for _, c := range planCells {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(c.cfg, c.opts, c.gpus); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
