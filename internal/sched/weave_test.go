package sched

import (
	"strings"
	"testing"

	"harmony/internal/graph"
)

// checkWeave asserts the anchor rule on one woven plan: stripped of
// rendezvous every stream is its queue; every rendezvous sits exactly
// once in each participant's stream (and in no one else's), after every
// member dependency and before every member successor queued on that
// device — at the earliest such point for comm plans, the latest for
// monolithic ones.
func checkWeave(t *testing.T, s *Schedule) {
	t.Helper()
	ws, err := Weave(s)
	if err != nil {
		t.Fatalf("Weave: %v", err)
	}
	wantRdv := len(s.Collectives)
	if s.Comm != nil {
		wantRdv = len(s.Comm)
	}
	if len(ws.Members) != wantRdv || len(ws.Parties) != wantRdv || len(ws.Dev) != s.NGPUs {
		t.Fatalf("%d rendezvous, %d party counts, %d streams; want %d, %d, %d",
			len(ws.Members), len(ws.Parties), len(ws.Dev), wantRdv, wantRdv, s.NGPUs)
	}
	for d, st := range ws.Dev {
		at := make(map[int]int) // task ID → stream index
		rdvAt := make([][]int, wantRdv)
		var compute []*graph.Task
		for i, e := range st {
			if e.Rdv >= 0 {
				rdvAt[e.Rdv] = append(rdvAt[e.Rdv], i)
				if e.Task != ws.Members[e.Rdv][0] {
					t.Errorf("gpu%d[%d]: rendezvous %d labeled %s, want its first member", d, i, e.Rdv, e.Task)
				}
				continue
			}
			at[e.Task.ID] = i
			compute = append(compute, e.Task)
		}
		if len(compute) != len(s.Queues[d]) {
			t.Fatalf("gpu%d: %d compute entries for a queue of %d", d, len(compute), len(s.Queues[d]))
		}
		for i, task := range compute {
			if task != s.Queues[d][i] {
				t.Fatalf("gpu%d: compute entry %d is %s, queue has %s", d, i, task, s.Queues[d][i])
			}
		}
		for ri, members := range ws.Members {
			if d >= ws.Parties[ri] {
				if len(rdvAt[ri]) != 0 {
					t.Errorf("rendezvous %d woven into non-participant gpu%d", ri, d)
				}
				continue
			}
			if len(rdvAt[ri]) != 1 {
				t.Fatalf("rendezvous %d appears %d times in gpu%d's stream", ri, len(rdvAt[ri]), d)
			}
			pos := rdvAt[ri][0]
			lastDep, firstSucc := -1, len(st)
			for _, c := range members {
				if len(c.Inputs) != ws.Parties[ri] {
					t.Errorf("rendezvous %d: member %s has %d inputs, party count %d", ri, c, len(c.Inputs), ws.Parties[ri])
				}
				for _, dep := range c.Deps {
					if i, ok := at[dep.ID]; ok {
						lastDep = max(lastDep, i)
					}
				}
				for _, succ := range c.Succs {
					if i, ok := at[succ.ID]; ok {
						firstSucc = min(firstSucc, i)
					}
				}
			}
			if pos < lastDep || pos > firstSucc {
				t.Errorf("rendezvous %d at gpu%d[%d] outside its window (last dependency %d, first successor %d)",
					ri, d, pos, lastDep, firstSucc)
			}
			// Earliest / latest: only other rendezvous may sit between
			// the anchor and the edge of the window it hugs.
			lo, hi, edge := lastDep+1, pos, "after its last dependency"
			if s.Comm == nil {
				lo, hi, edge = pos+1, min(firstSucc, len(st)), "before its first successor"
			}
			for i := lo; i < hi; i++ {
				if st[i].Rdv < 0 {
					t.Errorf("rendezvous %d at gpu%d[%d] is not anchored right %s: %s at %d lies between",
						ri, d, pos, edge, st[i].Task, i)
				}
			}
		}
	}
}

func TestWeaveAnchorsEveryRendezvous(t *testing.T) {
	chunked := DefaultOptions(HarmonyDP)
	chunked.CommChunks = 3
	bucketed := chunked
	bucketed.CommBucketBytes = 8000 // two 1000-param layers per bucket
	const R, m = 6, 4
	rows := []struct {
		name     string
		variants []Options
		g        func(n int) *graph.Graph
		devs     []int
	}{
		{"dp-baseline", OptionVariants(DPBaseline, m), func(n int) *graph.Graph { return dpGraph(R, m, n) }, []int{1, 2, 3}},
		{"harmony-dp", OptionVariants(HarmonyDP, m), func(n int) *graph.Graph { return dpGraph(R, m, n) }, []int{1, 2, 3}},
		{"pp-baseline", OptionVariants(PPBaseline, m), func(int) *graph.Graph { return ppGraph(R, m) }, []int{2, 3}},
		{"harmony-pp", OptionVariants(HarmonyPP, m), func(int) *graph.Graph { return ppGraph(R, m) }, []int{2, 3}},
		{"tp-baseline", OptionVariants(TPBaseline, m), func(n int) *graph.Graph { return tpGraph(R, m, n) }, []int{2}},
		{"harmony-tp", OptionVariants(HarmonyTP, m), func(n int) *graph.Graph { return tpGraph(R, m, n) }, []int{2}},
		{"chunked", []Options{chunked}, func(n int) *graph.Graph { return dpGraph(R, m, n) }, []int{2, 3, 4}},
		{"bucketed", []Options{bucketed}, func(n int) *graph.Graph { return dpGraph(R, m, n) }, []int{2, 3, 4}},
	}
	for _, row := range rows {
		plans, rdvs := 0, 0
		for _, n := range row.devs {
			for _, opts := range row.variants {
				s := MustBuild(row.g(n), opts, n)
				checkWeave(t, s)
				if t.Failed() {
					t.Fatalf("%s n=%d opts=%+v", row.name, n, opts)
				}
				plans++
				rdvs += len(s.Collectives)
			}
		}
		t.Logf("%s: %d plans, %d collectives woven", row.name, plans, rdvs)
	}
}

// A plan whose queue leaves a rendezvous no legal anchor — a member's
// successor queued ahead of a member's dependency — must be rejected,
// on both the monolithic and the chunked path, as must a bucket whose
// members disagree on their party count.
func TestWeaveRejectsMisanchoredPlans(t *testing.T) {
	chunked := DefaultOptions(HarmonyDP)
	chunked.CommChunks = 2
	for _, opts := range []Options{DefaultOptions(HarmonyDP), chunked} {
		s := MustBuild(dpGraph(4, 2, 2), opts, 2)
		q := s.Queues[1]
		for i, task := range q {
			if task.Kind == graph.Update {
				copy(q[1:i+1], q[:i])
				q[0] = task // ahead of the backwards its AllReduce depends on
				break
			}
		}
		if _, err := Weave(s); err == nil || !strings.Contains(err.Error(), "precedence") {
			t.Errorf("chunks=%d: update ahead of its collective's dependencies accepted: %v", opts.CommChunks, err)
		}
	}
	bucketed := chunked
	bucketed.CommBucketBytes = 1 << 20
	s := MustBuild(dpGraph(4, 2, 2), bucketed, 2)
	c := s.Collectives[s.Comm[0].Members[0]]
	c.Inputs = c.Inputs[:1]
	if _, err := Weave(s); err == nil || !strings.Contains(err.Error(), "party count") {
		t.Errorf("bucket with disagreeing party counts accepted: %v", err)
	}
}
