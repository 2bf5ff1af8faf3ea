package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"harmony/internal/graph"
	"harmony/internal/models"
)

// checkWeave asserts the anchor rule and the run rule on one woven
// plan: stripped of rendezvous every stream's runs, end to end, are its
// queue, each run a maximal stretch of one replica's Forward or
// Backward tasks of one layer, a backward run perhaps closed by its
// layer's Update (closes); every rendezvous sits exactly
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
			if e.Run[0] != e.Task {
				t.Errorf("gpu%d[%d]: run %v labeled %s, want its first member", d, i, e.Run, e.Task)
			}
			for j, m := range e.Run {
				if m != e.Task && !joins(e.Task, m) && !(j == len(e.Run)-1 && s.closes(e.Run[j-1], m)) {
					t.Errorf("gpu%d[%d]: %s joined the run of %s", d, i, m, e.Task)
				}
				at[m.ID] = i
			}
			if i > 0 && st[i-1].Rdv < 0 && joins(st[i-1].Task, e.Task) {
				t.Errorf("gpu%d[%d]: run of %s not merged into the run before it", d, i, e.Task)
			}
			compute = append(compute, e.Run...)
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

// checkReplay asserts that Replay drains one woven plan: every task is
// visited exactly once — a compute task on the device whose queue holds
// it, a collective with its rendezvous on one of the parties — after
// all of its dependencies, and no head is left stuck.
func checkReplay(t *testing.T, s *Schedule) {
	t.Helper()
	ws, err := Weave(s)
	if err != nil {
		t.Fatalf("Weave: %v", err)
	}
	queuedOn := make([]int, len(s.Graph.Tasks))
	for d, q := range s.Queues {
		for _, task := range q {
			queuedOn[task.ID] = d
		}
	}
	done := make([]bool, len(s.Graph.Tasks))
	stuck, err := ws.Replay(s.Graph.Tasks, func(d int, e StreamEntry) error {
		tasks := e.Run
		if e.Rdv >= 0 {
			tasks = ws.Members[e.Rdv]
			if d >= ws.Parties[e.Rdv] {
				t.Errorf("rendezvous %d visited on gpu%d, not one of its %d parties", e.Rdv, d, ws.Parties[e.Rdv])
			}
		} else if queuedOn[e.Task.ID] != d {
			t.Errorf("%s visited on gpu%d, queued on gpu%d", e.Task, d, queuedOn[e.Task.ID])
		}
		for _, task := range tasks {
			for _, dep := range task.Deps {
				if !done[dep.ID] {
					t.Errorf("%s visited before its dependency %s", task, dep)
				}
			}
			if done[task.ID] {
				t.Errorf("%s visited twice", task)
			}
			done[task.ID] = true
		}
		return nil
	})
	if err != nil || stuck != nil {
		t.Fatalf("Replay: stuck %v, err %v", stuck, err)
	}
	for _, task := range s.Graph.Tasks {
		if !done[task.ID] {
			t.Errorf("%s never visited", task)
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
				checkReplay(t, s)
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

// Replay visits a rendezvous on the device whose arrival completed it,
// stops at the first error a visit returns, and reports both heads of
// streams that meet two rendezvous in opposite orders as stuck there.
func TestReplayCompletesStopsAndSticks(t *testing.T) {
	// gpu1 is the last party to arrive, while its collective still
	// waits on z, a third device's task: the rendezvous completes later,
	// when gpu0's stream is scanned, and is visited on gpu1, as the last
	// arrival reduces on the parallel executor.
	a0, a1, z := &graph.Task{ID: 0}, &graph.Task{ID: 1}, &graph.Task{ID: 2}
	c := &graph.Task{ID: 3, Kind: graph.AllReduce}
	for _, dep := range []*graph.Task{a0, a1, z} {
		dep.Succs = append(dep.Succs, c)
		c.Deps = append(c.Deps, dep)
	}
	ws := &Streams{
		Dev: [][]StreamEntry{
			{{Task: a0, Run: []*graph.Task{a0}, Rdv: -1}, {Task: c, Rdv: 0}},
			{{Task: a1, Run: []*graph.Task{a1}, Rdv: -1}, {Task: c, Rdv: 0}},
			{{Task: z, Run: []*graph.Task{z}, Rdv: -1}},
		},
		Members: [][]*graph.Task{{c}},
		Parties: []int{2},
	}
	var order []string
	stuck, err := ws.Replay([]*graph.Task{a0, a1, z, c}, func(d int, e StreamEntry) error {
		order = append(order, fmt.Sprintf("gpu%d:task%d", d, e.Task.ID))
		return nil
	})
	want := "[gpu0:task0 gpu1:task1 gpu2:task2 gpu1:task3]"
	if got := fmt.Sprint(order); err != nil || stuck != nil || got != want {
		t.Fatalf("Replay visited %s (stuck %v, err %v), want %s", got, stuck, err, want)
	}

	s := MustBuild(dpGraph(4, 2, 2), DefaultOptions(DPBaseline), 2)
	if ws, err = Weave(s); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	visits := 0
	if _, err := ws.Replay(s.Graph.Tasks, func(int, StreamEntry) error {
		if visits++; visits == 3 {
			return boom
		}
		return nil
	}); err != boom || visits != 3 {
		t.Fatalf("Replay after a failed third visit: err %v, %d visits", err, visits)
	}

	var at []int // gpu1's rendezvous entries
	for i, e := range ws.Dev[1] {
		if e.Rdv >= 0 {
			at = append(at, i)
		}
	}
	st := ws.Dev[1]
	st[at[0]], st[at[len(at)-1]] = st[at[len(at)-1]], st[at[0]]
	stuck, err = ws.Replay(s.Graph.Tasks, func(int, StreamEntry) error { return nil })
	if err != nil || len(stuck) != 2 || stuck[0].Entry.Rdv < 0 || stuck[1].Entry.Rdv < 0 {
		t.Fatalf("crossed rendezvous: stuck %v, err %v; want both devices parked", stuck, err)
	}
}

// sgdGraph is dpGraph with an optimizer that keeps no state (SGD).
func sgdGraph(R, m, N int) *graph.Graph {
	model := models.Uniform("u", R, 1000, 4096, 1e6)
	model.OptStateParamsFactor = 0
	return graph.MustBuild(graph.Config{Model: model, MicrobatchSize: 2, Microbatches: m, Replicas: N})
}

// fusedUpdates returns the Updates that close a run of ws, checking that
// each closes a run of its own layer's backwards, in the run's last
// slot.
func fusedUpdates(t *testing.T, ws *Streams) []*graph.Task {
	t.Helper()
	var out []*graph.Task
	for d, st := range ws.Dev {
		for _, e := range st {
			for j, m := range e.Run {
				if m.Kind != graph.Update || len(e.Run) == 1 {
					continue
				}
				if j != len(e.Run)-1 || e.Task.Kind != graph.Backward || e.Task.Layer != m.Layer || e.Task.Replica != m.Replica {
					t.Errorf("gpu%d: %s sits at %d of the run %s", d, m, j, e.Label())
				}
				if len(e.Kernel()) != j {
					t.Errorf("gpu%d: the kernel of %s keeps %d members, want %d", d, e.Label(), len(e.Kernel()), j)
				}
				if want := e.Label(); !strings.HasSuffix(want, "+UPD") {
					t.Errorf("gpu%d: run %s closed by %s is not labeled +UPD", d, want, m)
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// TestWeaveClosesRunsWithTheirUpdate: on a single-replica plan whose
// optimizer keeps no state, the layer's Update closes the backward run
// queued right before it — with JIT on, every layer's last backward
// wave, data-parallel on one device and pipelined alike, with or
// without grouping and interleave. An Update behind a collective (two
// replicas, monolithic or chunked: train-compute's and train-comm's
// shapes) or with optimizer state (Adam) closes none. Replay drains
// every plan, the Update's edges from its own run counted nowhere.
func TestWeaveClosesRunsWithTheirUpdate(t *testing.T) {
	const R, m = 4, 4
	single := []struct {
		mode Mode
		devs int
	}{{HarmonyDP, 1}, {DPBaseline, 1}, {HarmonyPP, 2}, {PPBaseline, 2}}
	for _, p := range single {
		for _, opts := range OptionVariants(p.mode, m) {
			g := sgdGraph(R, m, p.devs)
			if p.mode.IsPipeline() {
				g = sgdGraph(R, m, 1)
			}
			s := MustBuild(g, opts, p.devs)
			checkWeave(t, s)
			checkReplay(t, s)
			ws, err := Weave(s)
			if err != nil {
				t.Fatal(err)
			}
			got := fusedUpdates(t, ws)
			if opts.JIT && len(got) != R {
				t.Errorf("%s on %d devices %+v: %d layers' updates close their runs, want %d", p.mode, p.devs, opts, len(got), R)
			}
			// The rule: an Update closes the run of the backward queued
			// right before it when that is its own layer's.
			want := 0
			for _, q := range s.Queues {
				for i, task := range q {
					if i > 0 && task.Kind == graph.Update && q[i-1].Kind == graph.Backward && q[i-1].Layer == task.Layer {
						want++
					}
				}
			}
			if len(got) != want {
				t.Errorf("%s on %d devices %+v: %d updates close runs, %d follow their backward", p.mode, p.devs, opts, len(got), want)
			}
		}
	}
	chunked := DefaultOptions(HarmonyDP)
	chunked.CommChunks, chunked.CommBucketBytes = 8, 12<<20
	for _, c := range []struct {
		name string
		s    *Schedule
	}{
		{"adam-dp1", MustBuild(dpGraph(R, m, 1), DefaultOptions(HarmonyDP), 1)},
		{"adam-pp2", MustBuild(ppGraph(R, m), DefaultOptions(HarmonyPP), 2)},
		{"train-compute", MustBuild(sgdGraph(R, 8, 2), DefaultOptions(HarmonyDP), 2)},
		{"train-comm", MustBuild(sgdGraph(R, 1, 4), chunked, 4)},
		{"dp-baseline-2", MustBuild(sgdGraph(R, m, 2), DefaultOptions(DPBaseline), 2)},
	} {
		checkWeave(t, c.s)
		checkReplay(t, c.s)
		ws, err := Weave(c.s)
		if err != nil {
			t.Fatal(err)
		}
		if got := fusedUpdates(t, ws); len(got) != 0 {
			t.Errorf("%s: %d updates close a run, want none", c.name, len(got))
		}
	}
}

// TestLabelNamesAFusedUpdate: a run's label spans its backwards'
// microbatches and names the Update that closes it.
func TestLabelNamesAFusedUpdate(t *testing.T) {
	s := MustBuild(sgdGraph(3, 4, 1), DefaultOptions(HarmonyDP), 1)
	ws, err := Weave(s)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, e := range ws.Dev[0] {
		labels = append(labels, e.Label())
	}
	want := "[FWD[r0,L0,mb0..3] FWD[r0,L1,mb0..3] FWD[r0,L2,mb0..3] BWD[r0,L2,mb0..3]+UPD BWD[r0,L1,mb0..3]+UPD BWD[r0,L0,mb0..3]+UPD]"
	if got := fmt.Sprint(labels); got != want {
		t.Errorf("labels %s, want %s", got, want)
	}
	// A wave of one: the backward's own name.
	s = MustBuild(sgdGraph(2, 2, 1), Options{Mode: HarmonyDP, JIT: true, GroupSize: 1, WaveInterleave: true}, 1)
	if ws, err = Weave(s); err != nil {
		t.Fatal(err)
	}
	last := ws.Dev[0][len(ws.Dev[0])-1]
	if got, want := last.Label(), "BWD[r0,L0,mb1]+UPD"; got != want {
		t.Errorf("last entry %s, want %s", got, want)
	}
}
