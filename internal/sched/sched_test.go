package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"harmony/internal/graph"
	"harmony/internal/models"
)

func dpGraph(R, m, N int) *graph.Graph {
	return graph.MustBuild(graph.Config{
		Model:          models.Uniform("u", R, 1000, 4096, 1e6),
		MicrobatchSize: 2,
		Microbatches:   m,
		Replicas:       N,
	})
}

func ppGraph(R, m int) *graph.Graph {
	return graph.MustBuild(graph.Config{
		Model:          models.Uniform("u", R, 1000, 4096, 1e6),
		MicrobatchSize: 2,
		Microbatches:   m,
		Replicas:       1,
	})
}

func TestDefaultOptions(t *testing.T) {
	b := DefaultOptions(DPBaseline)
	if b.JIT || b.P2P || b.Packing || b.Prefetch || b.DirtyTracking {
		t.Fatalf("baseline should disable all optimizations: %+v", b)
	}
	if b.GroupSize != 1 || !b.WaveInterleave {
		t.Fatalf("baseline should run a group of one, interleaved: %+v", b)
	}
	h := DefaultOptions(HarmonyPP)
	if !h.JIT || !h.P2P || !h.Packing || !h.Prefetch || !h.DirtyTracking {
		t.Fatalf("harmony should enable all optimizations: %+v", h)
	}
	if h.GroupSize != 0 || h.WaveInterleave {
		t.Fatalf("harmony should group all microbatches in one wave: %+v", h)
	}
}

func TestTogglesApply(t *testing.T) {
	base := DefaultOptions(HarmonyDP)
	if base.GroupSize != 0 {
		t.Fatal("harmony default should group all microbatches")
	}
	on := true
	tg := &Toggles{GroupSize: 1, WaveInterleave: &on}
	o := tg.Apply(base)
	if o.GroupSize != 1 || !o.WaveInterleave {
		t.Fatal("toggle did not apply")
	}
	if !o.JIT {
		t.Fatal("unset toggles must keep defaults")
	}
	if o := (&Toggles{}).Apply(DefaultOptions(DPBaseline)); o.GroupSize != 1 {
		t.Fatalf("a zero GroupSize toggle replaced the baseline's group of one: %+v", o)
	}
	// A negative group size reaches Build, which names it.
	if o := (&Toggles{GroupSize: -3}).Apply(base); o.GroupSize != -3 {
		t.Fatalf("a negative GroupSize toggle was dropped: %+v", o)
	}
	var nilT *Toggles
	o2 := nilT.Apply(base)
	if o2 != base {
		t.Fatal("nil toggles must be identity")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(dpGraph(4, 2, 2), DefaultOptions(DPBaseline), 3); err == nil {
		t.Fatal("replica/GPU mismatch accepted")
	}
	if _, err := Build(dpGraph(4, 2, 2), DefaultOptions(PPBaseline), 2); err == nil {
		t.Fatal("multi-replica pipeline accepted")
	}
	if _, err := Build(ppGraph(2, 2), DefaultOptions(PPBaseline), 4); err == nil {
		t.Fatal("more stages than layers accepted")
	}
	if _, err := Build(ppGraph(4, 2), DefaultOptions(HarmonyPP), 0); err == nil {
		t.Fatal("zero GPUs accepted")
	}
}

// Plan shapes the graph from the mode alone, refuses a config that
// shapes it too, and round-trips every mode name through ParseMode.
func TestPlanShapesTheGraphByMode(t *testing.T) {
	cfg := graph.Config{Model: models.Uniform("u", 4, 1000, 4096, 1e6), MicrobatchSize: 1, Microbatches: 2}
	for mode, want := range map[Mode][2]int{ // replicas, op shards
		DPBaseline: {3, 0}, HarmonyDP: {3, 0},
		PPBaseline: {1, 0}, HarmonyPP: {1, 0},
		TPBaseline: {1, 3}, HarmonyTP: {1, 3},
	} {
		s, err := Plan(cfg, DefaultOptions(mode), 3)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := [2]int{s.Graph.Cfg.Replicas, s.Graph.Cfg.OpShards}; got != want {
			t.Errorf("%v: replicas, shards = %v, want %v", mode, got, want)
		}
		if m, err := ParseMode(mode.String()); m != mode || err != nil {
			t.Errorf("ParseMode(%q) = %v, %v", mode.String(), m, err)
		}
	}
	preset := cfg
	preset.Replicas = 3
	if _, err := Plan(preset, DefaultOptions(HarmonyDP), 3); err == nil {
		t.Error("a config that sets Replicas was accepted")
	}
	// A negative mode is named too, not indexed into the name table.
	for _, m := range []Mode{Mode(99), Mode(-1)} {
		want := fmt.Sprintf("sched: unknown mode Mode(%d)", int(m))
		if _, err := Plan(cfg, Options{Mode: m}, 3); err == nil || err.Error() != want {
			t.Errorf("Plan: got %v, want %q", err, want)
		}
		if err := CheckMode(m); err == nil || err.Error() != want {
			t.Errorf("CheckMode: got %v, want %q", err, want)
		}
	}
	if _, err := ParseMode("harmony"); err == nil || !strings.Contains(err.Error(), ModeNames()) {
		t.Errorf("ParseMode(harmony): got %v, want an error listing %s", err, ModeNames())
	}
}

// Every compute task must appear exactly once in exactly one queue;
// collectives must be separate.
func checkCover(t *testing.T, s *Schedule) {
	t.Helper()
	seen := make(map[int]int)
	for _, q := range s.Queues {
		for _, task := range q {
			seen[task.ID]++
		}
	}
	for _, task := range s.Collectives {
		seen[task.ID]++
		if task.Kind != graph.AllReduce && task.Kind != graph.Gather {
			t.Fatalf("non-collective %s in Collectives", task)
		}
	}
	for _, task := range s.Graph.Tasks {
		if seen[task.ID] != 1 {
			t.Fatalf("%s scheduled %d times", task, seen[task.ID])
		}
	}
}

// Within one device queue, every dependency queued on the same device
// must precede its dependent.
func checkQueueOrder(t *testing.T, s *Schedule) {
	t.Helper()
	dev, pos := make(map[int]int), make(map[int]int)
	for d, q := range s.Queues {
		for i, task := range q {
			dev[task.ID], pos[task.ID] = d, i
		}
	}
	for d, q := range s.Queues {
		for _, task := range q {
			for _, dep := range task.Deps {
				if dd, queued := dev[dep.ID]; queued && dd == d && pos[dep.ID] > pos[task.ID] {
					t.Fatalf("%s precedes its dependency %s on gpu%d", task, dep, d)
				}
			}
		}
	}
}

func TestAllModesCoverAndOrder(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"dp-baseline", MustBuild(dpGraph(4, 3, 2), DefaultOptions(DPBaseline), 2)},
		{"harmony-dp", MustBuild(dpGraph(4, 3, 2), DefaultOptions(HarmonyDP), 2)},
		{"pp-baseline", MustBuild(ppGraph(8, 4), DefaultOptions(PPBaseline), 4)},
		{"harmony-pp", MustBuild(ppGraph(8, 4), DefaultOptions(HarmonyPP), 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkCover(t, c.s)
			checkQueueOrder(t, c.s)
		})
	}
}

func TestBaselineDPOrderIsMicrobatchMajor(t *testing.T) {
	s := MustBuild(dpGraph(3, 2, 1), DefaultOptions(DPBaseline), 1)
	q := s.Queues[0]
	// Expected: F(0,0) F(1,0) F(2,0) B(2,0) B(1,0) B(0,0), same for
	// mb 1, then updates.
	want := []struct {
		kind  graph.Kind
		layer int
		mb    int
	}{
		{graph.Forward, 0, 0}, {graph.Forward, 1, 0}, {graph.Forward, 2, 0},
		{graph.Backward, 2, 0}, {graph.Backward, 1, 0}, {graph.Backward, 0, 0},
		{graph.Forward, 0, 1}, {graph.Forward, 1, 1}, {graph.Forward, 2, 1},
		{graph.Backward, 2, 1}, {graph.Backward, 1, 1}, {graph.Backward, 0, 1},
		{graph.Update, 0, -1}, {graph.Update, 1, -1}, {graph.Update, 2, -1},
	}
	if len(q) != len(want) {
		t.Fatalf("queue length %d, want %d", len(q), len(want))
	}
	for i, w := range want {
		got := q[i]
		if got.Kind != w.kind || got.Layer != w.layer || got.Microbatch != w.mb {
			t.Fatalf("queue[%d] = %s, want %v[L%d,mb%d]", i, got, w.kind, w.layer, w.mb)
		}
	}
}

func TestHarmonyDPOrderIsLayerMajorWithJIT(t *testing.T) {
	s := MustBuild(dpGraph(3, 2, 1), DefaultOptions(HarmonyDP), 1)
	q := s.Queues[0]
	want := []struct {
		kind  graph.Kind
		layer int
		mb    int
	}{
		{graph.Forward, 0, 0}, {graph.Forward, 0, 1},
		{graph.Forward, 1, 0}, {graph.Forward, 1, 1},
		{graph.Forward, 2, 0}, {graph.Forward, 2, 1},
		{graph.Backward, 2, 0}, {graph.Backward, 2, 1}, {graph.Update, 2, -1},
		{graph.Backward, 1, 0}, {graph.Backward, 1, 1}, {graph.Update, 1, -1},
		{graph.Backward, 0, 0}, {graph.Backward, 0, 1}, {graph.Update, 0, -1},
	}
	if len(q) != len(want) {
		t.Fatalf("queue length %d, want %d", len(q), len(want))
	}
	for i, w := range want {
		got := q[i]
		if got.Kind != w.kind || got.Layer != w.layer || got.Microbatch != w.mb {
			t.Fatalf("queue[%d] = %s, want %v[L%d,mb%d]", i, got, w.kind, w.layer, w.mb)
		}
	}
}

func TestPPBaseline1F1BStructure(t *testing.T) {
	// 4 layers, 4 stages (1 layer each), 4 microbatches.
	s := MustBuild(ppGraph(4, 4), DefaultOptions(PPBaseline), 4)
	// Head stage (0) warms up with 4 forwards; tail stage (3) warms
	// up with 1 then strictly alternates.
	q0 := s.Queues[0]
	for i := 0; i < 4; i++ {
		if q0[i].Kind != graph.Forward {
			t.Fatalf("head stage queue[%d] = %s, want forward warmup", i, q0[i])
		}
	}
	q3 := s.Queues[3]
	if q3[0].Kind != graph.Forward || q3[1].Kind != graph.Backward {
		t.Fatalf("tail stage should alternate from the start: %s %s", q3[0], q3[1])
	}
	// In-flight skew: count max forwards-ahead-of-backwards per stage.
	inflight := func(q []*graph.Task) int {
		cur, max := 0, 0
		for _, task := range q {
			switch task.Kind {
			case graph.Forward:
				if task.Microbatch == 0 || true {
					cur++
				}
			case graph.Backward:
				cur--
			}
			if cur > max {
				max = cur
			}
		}
		return max
	}
	// Only one layer per stage here, so forwards per mb = 1.
	if h, tl := inflight(q0), inflight(q3); h <= tl {
		t.Fatalf("head in-flight (%d) should exceed tail (%d)", h, tl)
	}
}

func TestPartitionBalanced(t *testing.T) {
	s := MustBuild(ppGraph(8, 2), Options{Mode: PPBaseline}, 4)
	counts := map[int]int{}
	for l, st := range s.StageOfLayer {
		counts[st]++
		if l > 0 && st < s.StageOfLayer[l-1] {
			t.Fatal("stages must be contiguous and non-decreasing")
		}
	}
	for st := 0; st < 4; st++ {
		if counts[st] != 2 {
			t.Fatalf("stage %d has %d layers, want 2 (uniform model)", st, counts[st])
		}
	}
}

func TestPackingBalancesHeterogeneousModel(t *testing.T) {
	// A model whose first layer is hugely more expensive: packing
	// should give it a stage of its own.
	m := models.Uniform("skew", 6, 1000, 4096, 1e6)
	m.Layers[0].Params = 50_000
	m.Layers[0].FwdFLOPsPerSample = 5e7
	g := graph.MustBuild(graph.Config{Model: m, MicrobatchSize: 2, Microbatches: 2, Replicas: 1})
	packed := MustBuild(g, Options{Mode: HarmonyPP, JIT: true, Packing: true}, 3)
	if packed.StageOfLayer[0] != 0 || packed.StageOfLayer[1] != 1 {
		t.Fatalf("packing should isolate the heavy layer: %v", packed.StageOfLayer)
	}
	naive := MustBuild(g, Options{Mode: HarmonyPP, JIT: true}, 3)
	if naive.StageOfLayer[1] != 0 {
		t.Fatalf("naive split should be by layer count: %v", naive.StageOfLayer)
	}
}

func TestLinearPartitionProperties(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := len(raw)
		if n > 20 {
			n = 20
		}
		k := int(kRaw%uint8(n)) + 1
		cost := make([]float64, n)
		for i := 0; i < n; i++ {
			cost[i] = float64(raw[i]) + 1
		}
		bins := linearPartition(cost, k)
		// Contiguous, non-decreasing, uses exactly bins 0..k-1.
		used := map[int]bool{}
		for i, b := range bins {
			if b < 0 || b >= k {
				return false
			}
			if i > 0 && (b < bins[i-1] || b > bins[i-1]+1) {
				return false
			}
			used[b] = true
		}
		return len(used) == k && bins[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesOnlyWithMultipleReplicas(t *testing.T) {
	s1 := MustBuild(dpGraph(3, 2, 1), DefaultOptions(HarmonyDP), 1)
	if len(s1.Collectives) != 0 {
		t.Fatal("single replica should have no collectives")
	}
	s2 := MustBuild(dpGraph(3, 2, 2), DefaultOptions(HarmonyDP), 2)
	if len(s2.Collectives) != 3 {
		t.Fatalf("collectives = %d, want 3 (one per layer)", len(s2.Collectives))
	}
}

func TestDeterminism(t *testing.T) {
	a := MustBuild(ppGraph(8, 4), DefaultOptions(HarmonyPP), 4)
	b := MustBuild(ppGraph(8, 4), DefaultOptions(HarmonyPP), 4)
	for d := range a.Queues {
		if len(a.Queues[d]) != len(b.Queues[d]) {
			t.Fatal("nondeterministic queue length")
		}
		for i := range a.Queues[d] {
			x, y := a.Queues[d][i], b.Queues[d][i]
			if x.Kind != y.Kind || x.Layer != y.Layer || x.Microbatch != y.Microbatch {
				t.Fatalf("nondeterministic schedule at gpu%d[%d]", d, i)
			}
		}
	}
}

func tpGraph(R, m, K int) *graph.Graph {
	return graph.MustBuild(graph.Config{
		Model:          models.Uniform("u", R, 1000, 4096, 1e6),
		MicrobatchSize: 2,
		Microbatches:   m,
		Replicas:       1,
		OpShards:       K,
	})
}

func TestTPSchedule(t *testing.T) {
	s := MustBuild(tpGraph(4, 3, 2), DefaultOptions(HarmonyTP), 2)
	checkCover(t, s)
	checkQueueOrder(t, s)
	// Gathers are the collectives.
	if len(s.Collectives) == 0 {
		t.Fatal("sharded schedule should list gather collectives")
	}
	for _, c := range s.Collectives {
		if c.Kind != graph.Gather {
			t.Fatalf("collective kind = %v, want Gather", c.Kind)
		}
	}
	// Shard s runs on GPU s.
	for d, q := range s.Queues {
		for _, task := range q {
			if task.Replica != d {
				t.Fatalf("%s queued on gpu%d", task, d)
			}
		}
	}
}

func TestTPValidation(t *testing.T) {
	if _, err := Build(tpGraph(4, 2, 2), DefaultOptions(HarmonyTP), 3); err == nil {
		t.Fatal("shard/GPU mismatch accepted")
	}
	if _, err := Build(tpGraph(4, 2, 2), DefaultOptions(HarmonyDP), 2); err == nil {
		t.Fatal("DP over a sharded graph accepted")
	}
	if _, err := Build(tpGraph(4, 2, 2), DefaultOptions(HarmonyPP), 2); err == nil {
		t.Fatal("PP over a sharded graph accepted")
	}
	if !TPBaseline.IsSharded() || !HarmonyTP.IsSharded() || HarmonyDP.IsSharded() {
		t.Fatal("IsSharded wrong")
	}
	if TPBaseline.String() != "tp-baseline" || HarmonyTP.String() != "harmony-tp" {
		t.Fatal("mode names wrong")
	}
}

func TestTPBaselineDisablesOptimizations(t *testing.T) {
	o := DefaultOptions(TPBaseline)
	if o.GroupSize != 1 || o.JIT || o.P2P || o.DirtyTracking {
		t.Fatalf("tp-baseline should disable optimizations: %+v", o)
	}
	h := DefaultOptions(HarmonyTP)
	if h.GroupSize != 0 || !h.JIT || !h.P2P || !h.DirtyTracking {
		t.Fatalf("harmony-tp should enable optimizations: %+v", h)
	}
}

// GroupSize and WaveInterleave shape the waves in every mode: a
// baseline given a group plans it, and a grouped plan interleaves its
// waves on request, whatever the mode.
func TestWaveKnobsActInEveryMode(t *testing.T) {
	cfg := graph.Config{Model: models.Uniform("u", 4, 1000, 4096, 1e6), MicrobatchSize: 1, Microbatches: 4}
	for _, mode := range []Mode{DPBaseline, PPBaseline, HarmonyDP, HarmonyPP, TPBaseline, HarmonyTP} {
		plan := func(gs int, wi bool) [][]int { // task IDs per queue
			o := DefaultOptions(mode)
			o.GroupSize, o.WaveInterleave = gs, wi
			s, err := Plan(cfg, o, 2)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			ids := make([][]int, len(s.Queues))
			for d, q := range s.Queues {
				for _, task := range q {
					ids[d] = append(ids[d], task.ID)
				}
			}
			return ids
		}
		def := DefaultOptions(mode)
		if slices.EqualFunc(plan(def.GroupSize, def.WaveInterleave), plan(2, def.WaveInterleave), slices.Equal) {
			t.Errorf("%v: GroupSize 2 plans the default queues", mode)
		}
		if slices.EqualFunc(plan(2, false), plan(2, true), slices.Equal) {
			t.Errorf("%v: WaveInterleave leaves a grouped plan as it was", mode)
		}
	}
}

func TestWaveInterleaveStructure(t *testing.T) {
	// 8 microbatches in waves of 2 on 2 stages: the head stage warms
	// up with ceil((2-0)/2)=1 wave (2 forwards of each layer), then
	// alternates backward-wave/forward-wave.
	g := ppGraph(4, 8)
	opts := DefaultOptions(HarmonyPP)
	opts.GroupSize = 2
	opts.WaveInterleave = true
	s := MustBuild(g, opts, 2)
	checkCover(t, s)
	checkQueueOrder(t, s)
	q := s.Queues[0]
	// Head stage: first wave is forwards only (2 layers × 2 mbs).
	for i := 0; i < 4; i++ {
		if q[i].Kind != graph.Forward {
			t.Fatalf("warmup position %d = %s, want forward", i, q[i])
		}
	}
	// Then a backward wave must appear before all forwards finish.
	sawBwdBeforeLastFwd := false
	fwdSeen := 0
	for _, task := range q {
		if task.Kind == graph.Forward {
			fwdSeen++
		}
		if task.Kind == graph.Backward && fwdSeen < 16 {
			sawBwdBeforeLastFwd = true
			break
		}
	}
	if !sawBwdBeforeLastFwd {
		t.Fatal("interleave should start backwards before the forward sweep completes")
	}
	// JIT updates attach to each layer's final backward wave only.
	updates := 0
	for _, task := range q {
		if task.Kind == graph.Update {
			updates++
		}
	}
	if updates != 2 { // 2 layers on this stage
		t.Fatalf("updates in queue = %d, want 2", updates)
	}
}

func TestGroupSizeWaveCount(t *testing.T) {
	// GroupSize 3 over m=8: waves of 3,3,2 — every microbatch
	// appears exactly once per layer.
	g := ppGraph(2, 8)
	opts := DefaultOptions(HarmonyPP)
	opts.GroupSize = 3
	s := MustBuild(g, opts, 2)
	checkCover(t, s)
	checkQueueOrder(t, s)
}
