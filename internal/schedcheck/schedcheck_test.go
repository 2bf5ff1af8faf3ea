package schedcheck

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"harmony/internal/graph"
	"harmony/internal/models"
	"harmony/internal/sched"
)

// buildPlan constructs a schedule for the given shape, failing the
// test on builder errors (the sweep only feeds valid shapes).
func buildPlan(t *testing.T, opts sched.Options, layers, m, n int) *sched.Schedule {
	t.Helper()
	model := models.Uniform("chk", layers, 1000, 4096, 1e9)
	cfg := graph.Config{Model: model, MicrobatchSize: 1, Microbatches: m, Replicas: n}
	if opts.Mode.IsPipeline() {
		cfg.Replicas = 1
	}
	if opts.Mode.IsSharded() {
		cfg.Replicas = 1
		cfg.OpShards = n
	}
	g, err := graph.Build(cfg)
	if err != nil {
		t.Fatalf("graph.Build(%v, R=%d m=%d n=%d): %v", opts.Mode, layers, m, n, err)
	}
	s, err := sched.Build(g, opts, n)
	if err != nil {
		t.Fatalf("sched.Build(%v, R=%d m=%d n=%d): %v", opts.Mode, layers, m, n, err)
	}
	return s
}

func roomy() Topology { return Topology{DeviceBytes: 1 << 30} }

// TestPropertySweep is the exhaustive clean-plan property: every
// option profile the scheduler can emit, across every mode, passes
// every schedcheck invariant — including the swap-volume cross-check
// against internal/analytic on the closed-form shapes.
func TestPropertySweep(t *testing.T) {
	type modeShape struct {
		mode sched.Mode
		devs []int
	}
	shapes := []modeShape{
		{sched.DPBaseline, []int{1, 2, 3}},
		{sched.HarmonyDP, []int{1, 2, 3}},
		{sched.PPBaseline, []int{2, 3}},
		{sched.HarmonyPP, []int{2, 3}},
		{sched.TPBaseline, []int{2}},
		{sched.HarmonyTP, []int{2}},
	}
	plans := 0
	for _, sh := range shapes {
		for _, n := range sh.devs {
			for _, m := range []int{1, 4} {
				for _, opts := range sched.OptionVariants(sh.mode, m) {
					s := buildPlan(t, opts, 6, m, n)
					r := Check(s, roomy())
					if !r.OK() {
						t.Errorf("%v n=%d m=%d opts=%+v:\n%v", sh.mode, n, m, opts, r.Err())
					}
					if r.TasksChecked == 0 {
						t.Errorf("%v n=%d m=%d: replay checked no tasks", sh.mode, n, m)
					}
					plans++
				}
			}
		}
	}
	t.Logf("swept %d plans", plans)
}

// The closed-form cross-check must actually engage on the canonical
// shapes (a sweep that silently skips it would prove nothing).
func TestCrossCheckEngages(t *testing.T) {
	for _, mode := range []sched.Mode{sched.DPBaseline, sched.HarmonyDP, sched.PPBaseline, sched.HarmonyPP} {
		s := buildPlan(t, sched.DefaultOptions(mode), 8, 4, 2)
		r := Check(s, roomy())
		if !r.OK() {
			t.Fatalf("%v: %v", mode, r.Err())
		}
		if r.AnalyticWeightBytes < 0 {
			t.Errorf("%v: swap-volume cross-check did not engage", mode)
		}
		if r.WeightSwapBytes != r.AnalyticWeightBytes {
			t.Errorf("%v: structural %d != analytic %d", mode, r.WeightSwapBytes, r.AnalyticWeightBytes)
		}
	}
}

// A single-layer pipeline stage's weight is touched by every task on
// its device and never evicted: zero steady-state weight traffic.
func TestGaplessStageHasZeroWeightVolume(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.PPBaseline), 2, 2, 2)
	r := Check(s, roomy())
	if !r.OK() {
		t.Fatal(r.Err())
	}
	if r.WeightSwapBytes != 0 {
		t.Fatalf("R==N plan implies weight traffic %d, want 0", r.WeightSwapBytes)
	}
}

func wantViolation(t *testing.T, r *Report, rule string, needTrace bool) Violation {
	t.Helper()
	if r.OK() {
		t.Fatalf("expected a %q violation, plan passed", rule)
	}
	v := r.Violations[0]
	if v.Rule != rule {
		t.Fatalf("expected rule %q, got %q: %s", rule, v.Rule, v.Msg)
	}
	if needTrace && v.Trace == nil {
		t.Fatalf("%q violation has no counterexample trace", rule)
	}
	if needTrace && !strings.Contains(r.Err().Error(), "counterexample") {
		t.Fatalf("Err() does not render the counterexample:\n%v", r.Err())
	}
	return v
}

// Two devices meeting the same pair of AllReduces in opposite orders
// must be rejected as a rendezvous deadlock, with the blocked heads on
// the fault lane of the counterexample.
func TestRendezvousCycleRejected(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.DPBaseline), 6, 2, 2)
	if err := InjectRendezvousCycle(s); err != nil {
		t.Fatal(err)
	}
	r := Check(s, roomy())
	v := wantViolation(t, r, "deadlock", true)
	if !strings.Contains(v.Msg, "blocked") {
		t.Fatalf("deadlock message does not name the blocked tasks: %s", v.Msg)
	}
}

// A plan whose queue shape diverges from its declared optimization
// profile must fail the analytic cross-check.
func TestVolumeSkewRejected(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.DPBaseline), 6, 2, 2)
	if err := InjectVolumeSkew(s); err != nil {
		t.Fatal(err)
	}
	r := Check(s, roomy())
	found := false
	for _, v := range r.Violations {
		if v.Rule == "swap-volume" {
			found = true
		}
		if v.Rule == "deadlock" || v.Rule == "plan" {
			t.Fatalf("volume skew must stay executable, got %q: %s", v.Rule, v.Msg)
		}
	}
	if !found {
		t.Fatalf("skewed plan passed the swap-volume cross-check: %+v", r.Violations)
	}
}

// A task whose pin set exceeds device capacity must be rejected before
// execution, with the offending task on the counterexample fault lane.
func TestOverCapacityRejected(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 6, 2, 1)
	r := Check(s, Topology{DeviceBytes: 64})
	v := wantViolation(t, r, "capacity", true)
	if !strings.Contains(v.Msg, "capacity") {
		t.Fatalf("unexpected message: %s", v.Msg)
	}
	if len(r.PeakPinBytes) != 1 || r.PeakPinBytes[0] <= 64 {
		t.Fatalf("peak pin bytes not reported: %v", r.PeakPinBytes)
	}
}

// analyticMode maps toggles (not Opts.Mode) onto closed-form regimes:
// a Harmony-mode schedule with everything off — a group of one,
// interleaved — is structurally the baseline and must be checked as one.
func TestAnalyticModeFollowsToggles(t *testing.T) {
	s := buildPlan(t, sched.Options{Mode: sched.HarmonyDP, GroupSize: 1, WaveInterleave: true}, 6, 2, 2)
	mode, ok := analyticMode(s)
	if !ok || mode.String() != "dp-baseline" {
		t.Fatalf("toggles-off HarmonyDP mapped to (%v, %v), want dp-baseline", mode, ok)
	}
	partial := sched.Options{Mode: sched.HarmonyDP} // one wave, no JIT/DT
	s = buildPlan(t, partial, 6, 2, 2)
	if _, ok := analyticMode(s); ok {
		t.Fatal("partial optimization profile mapped to a closed form")
	}
}

// Cycles injected into a schedule must not depend on the checker's
// device count defaulting: an explicit topology narrower than the plan
// is a plan violation, not a crash.
func TestTopologyNarrowerThanPlan(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 6, 2, 2)
	r := Check(s, Topology{Devices: 1, DeviceBytes: 1 << 30})
	wantViolation(t, r, "plan", false)
}

func commOpts(chunks int, bucket int64) sched.Options {
	o := sched.DefaultOptions(sched.HarmonyDP)
	o.CommChunks = chunks
	o.CommBucketBytes = bucket
	return o
}

// Chunked and bucketed plans pass every invariant. Any comm plan —
// even single-member buckets — defers JIT updates past the next
// bucket's backwards, which splits the bwd→upd adjacency runs the
// closed forms assume, so the cross-check must skip rather than fail.
func TestCommPlansChecked(t *testing.T) {
	chunked := buildPlan(t, commOpts(4, 0), 6, 4, 2)
	r := Check(chunked, roomy())
	if !r.OK() {
		t.Fatalf("chunked: %v", r.Err())
	}
	if r.AnalyticWeightBytes >= 0 {
		t.Error("comm plan engaged a closed form; deferred updates break the adjacency runs it assumes")
	}
	bucketed := buildPlan(t, commOpts(4, 1<<20), 6, 4, 2)
	r = Check(bucketed, roomy())
	if !r.OK() {
		t.Fatalf("bucketed: %v", r.Err())
	}
	if r.AnalyticWeightBytes >= 0 {
		t.Error("multi-member bucket engaged a closed form; update regrouping breaks the adjacency runs it assumes")
	}
	if len(bucketed.Comm) != 1 || len(bucketed.Comm[0].Members) != 6 {
		t.Fatalf("expected one 6-member bucket, got %+v", bucketed.Comm)
	}
}

// A comm plan that no longer covers its collectives — a gap in a
// member's chunks, or a collective missing from every bucket — must be
// rejected as a plan violation before replay can mislead.
func TestCommBrokenCoverageRejected(t *testing.T) {
	s := buildPlan(t, commOpts(4, 0), 6, 2, 2)
	s.Comm[0].Chunks = s.Comm[0].Chunks[1:] // open a gap at element 0
	r := Check(s, roomy())
	wantViolation(t, r, "plan", false)

	s = buildPlan(t, commOpts(4, 1<<20), 6, 2, 2)
	s.Comm[0].Members = s.Comm[0].Members[1:] // orphan one collective
	r = Check(s, roomy())
	wantViolation(t, r, "plan", false)

	s = buildPlan(t, commOpts(4, 0), 6, 2, 2)
	s.Comm[0].Chunks[0].Reducer = 99
	r = Check(s, roomy())
	wantViolation(t, r, "plan", false)
}

// A weightless layer (LeNet's pools) has a collective with no bytes.
// The plan gives it one empty chunk, which the checker admits; without
// a chunk no worker would retire the member and its updates would never
// run, so the checker rejects that plan.
func TestCommEmptyMemberNeedsAChunk(t *testing.T) {
	g, err := graph.Build(graph.Config{Model: models.LeNet(), MicrobatchSize: 1, Microbatches: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Build(g, commOpts(2, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := Check(s, roomy()); !r.OK() {
		t.Fatalf("LeNet chunked plan rejected: %v", r.Err())
	}
	for bi, b := range s.Comm {
		for i, c := range b.Chunks {
			if c.Hi > c.Lo {
				continue
			}
			s.Comm[bi].Chunks = slices.Delete(slices.Clone(b.Chunks), i, i+1)
			v := wantViolation(t, Check(s, roomy()), "plan", false)
			if !strings.Contains(v.Msg, "has no chunk") {
				t.Fatalf("violation %q does not name the chunkless member", v.Msg)
			}
			return
		}
	}
	t.Fatal("LeNet chunked plan has no empty chunk")
}

// Chunked residency is additive across workers (collectives overlap
// compute), so the reported peak must exceed the monolithic model's
// parked max, and a topology below the chunked demand must be rejected
// with that demand named in the violation. Runs narrow to one task
// wherever they do not fit (fit), so the demand that gates is the bound
// at runs of one: what Check reports for a capacity nothing fits.
func TestCommResidencyAdditive(t *testing.T) {
	mono := Check(buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 6, 2, 2), roomy())
	if !mono.OK() {
		t.Fatal(mono.Err())
	}
	chunked := Check(buildPlan(t, commOpts(4, 0), 6, 2, 2), roomy())
	if !chunked.OK() {
		t.Fatal(chunked.Err())
	}
	for d := range chunked.PeakPinBytes {
		if chunked.PeakPinBytes[d] <= mono.PeakPinBytes[d] {
			t.Fatalf("gpu%d chunked peak %d not above monolithic %d; additive model not applied",
				d, chunked.PeakPinBytes[d], mono.PeakPinBytes[d])
		}
	}
	floor := Check(buildPlan(t, commOpts(4, 0), 6, 2, 2), Topology{DeviceBytes: 1}).PeakPinBytes[0]
	if floor >= chunked.PeakPinBytes[0] {
		t.Fatalf("chunked bound at runs of one %d not below the grouped %d", floor, chunked.PeakPinBytes[0])
	}
	if at := Check(buildPlan(t, commOpts(4, 0), 6, 2, 2), Topology{DeviceBytes: floor}); !at.OK() {
		t.Fatalf("capacity at the bound of runs of one rejected: %v", at.Err())
	}
	tight := Check(buildPlan(t, commOpts(4, 0), 6, 2, 2),
		Topology{DeviceBytes: floor - 1})
	v := wantViolation(t, tight, "capacity", false)
	if !strings.Contains(v.Msg, "chunked") {
		t.Fatalf("violation does not name the chunked demand: %s", v.Msg)
	}
}

// commMLP is the model the trainer derives from an MLP of the given
// widths (exec's kernelModel): float32 Dense layers that stash their
// input, with Adam's two moments per parameter or plain SGD's none.
func commMLP(widths []int, adam bool) *models.Model {
	m := &models.Model{Name: "mlp", SampleBytes: int64(widths[0]) * 4}
	if adam {
		m.OptStateParamsFactor = 2
	}
	for i := 0; i+1 < len(widths); i++ {
		in, out := widths[i], widths[i+1]
		m.Layers = append(m.Layers, models.LayerSpec{
			Name:                "dense",
			Params:              int64(in*out + out),
			FwdFLOPsPerSample:   float64(2 * in * out),
			ActBytesPerSample:   int64(out) * 4,
			StashBytesPerSample: int64(in) * 4,
		})
	}
	return m
}

// A reduction that applies the update pins every replica's weights
// beside its gradient, so on harmonybench's train-comm plan (four
// replicas of a 64·1536·1536·1536·10 MLP, batch 4 in one microbatch, 8
// chunks, 12 MiB buckets) each device's bound rises by what the other
// three workers' reductions add: 3 × 9 443 328, one 1536×1536 layer's
// weights. It still fits the workload's 96 MiB devices. A plan whose
// reductions do not apply the update keeps its bound: the same plan
// under Adam, and every monolithic plan.
func TestFusedUpdatePinsWeightsBesideGradients(t *testing.T) {
	widths := []int{64, 1536, 1536, 1536, 10}
	const capacity = 96 << 20
	for _, tc := range []struct {
		name   string
		adam   bool
		chunks int
		bucket int64
		fused  bool
		peak   int64
	}{
		{"sgd-chunked", false, 8, 12 << 20, true, 47290368 + 3*9443328},
		{"adam-chunked", true, 8, 12 << 20, false, 66103296},
		{"sgd-monolithic", false, 0, 0, false, 18960384},
		{"adam-monolithic", true, 0, 0, false, 37773312},
	} {
		cfg := graph.Config{Model: commMLP(widths, tc.adam), MicrobatchSize: 4, Microbatches: 1}
		s, err := sched.Plan(cfg, commOpts(tc.chunks, tc.bucket), 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.FusedUpdate() != tc.fused {
			t.Errorf("%s: FusedUpdate() = %v, want %v", tc.name, s.FusedUpdate(), tc.fused)
		}
		r := Check(s, Topology{DeviceBytes: capacity})
		if !r.OK() {
			t.Fatalf("%s: %v", tc.name, r.Err())
		}
		if want := []int64{tc.peak, tc.peak, tc.peak, tc.peak}; !slices.Equal(r.PeakPinBytes, want) {
			t.Errorf("%s: PeakPinBytes %v, want %v", tc.name, r.PeakPinBytes, want)
		}
	}
}

// The device binding is a pure relabeling: over the whole property
// sweep, the identity binding and no binding give the same per-device
// pin bound.
func TestIdentityBindingMatchesNil(t *testing.T) {
	plans := 0
	for _, mode := range []sched.Mode{sched.DPBaseline, sched.HarmonyDP, sched.PPBaseline,
		sched.HarmonyPP, sched.TPBaseline, sched.HarmonyTP} {
		for _, n := range []int{1, 2, 3} {
			if n == 1 && (mode.IsPipeline() || mode.IsSharded()) || n == 3 && mode.IsSharded() {
				continue // the sweep's shapes (TestPropertySweep)
			}
			identity := make([]int, n)
			for d := range identity {
				identity[d] = d
			}
			for _, m := range []int{1, 4} {
				for _, opts := range sched.OptionVariants(mode, m) {
					s := buildPlan(t, opts, 6, m, n)
					a, b := &Report{}, &Report{}
					for _, c := range []struct {
						topo Topology
						r    *Report
					}{
						{Topology{Devices: n, DeviceBytes: 1 << 30}, a},
						{Topology{Devices: n, DeviceBytes: 1 << 30, Binding: identity}, b},
					} {
						ws, peak, err := fitted(s, &c.topo)
						if err != nil {
							t.Fatal(err)
						}
						checkResidency(s, ws, c.topo, peak, c.r)
					}
					if !reflect.DeepEqual(a.PeakPinBytes, b.PeakPinBytes) || !reflect.DeepEqual(a.PeakResidentBytes, b.PeakResidentBytes) {
						t.Errorf("%v n=%d m=%d opts=%+v: nil binding %v, identity %v", mode, n, m, opts, a.PeakPinBytes, b.PeakPinBytes)
					}
					plans++
				}
			}
		}
	}
	t.Logf("swept %d plans", plans)
}

// After recovery two streams share the survivor and their pin demands
// add up there. The expected bounds at runs of one are what the
// executor's own pin-budget check — deleted in favour of this one —
// computed for the same plans and binding at the commit before it went.
// With room to spare each stream runs its two microbatches of a layer as
// one run, which pins the layer's W and dW once and each microbatch's
// activations (grouped, groupedBoth); where that does not fit, the runs
// narrow to one task and the bound falls back to the per-task one.
func TestAliasedBindingResidency(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		opts                 sched.Options
		identity, both       int64 // runs of one
		grouped, groupedBoth int64 // runs of two, with room
	}{
		{"monolithic", sched.DefaultOptions(sched.HarmonyDP), 20288, 40576, 32576, 65152},
		{"chunked", commOpts(4, 0), 24288, 40576, 36576, 65152},
	} {
		s := buildPlan(t, tc.opts, 6, 2, 2)
		r := Check(s, roomy())
		if !r.OK() || !reflect.DeepEqual(r.PeakPinBytes, []int64{tc.grouped, tc.grouped}) {
			t.Fatalf("%s, identity: peaks %v (%v), want %d each", tc.name, r.PeakPinBytes, r.Err(), tc.grouped)
		}
		r = Check(s, Topology{DeviceBytes: tc.identity})
		if !r.OK() || !reflect.DeepEqual(r.PeakPinBytes, []int64{tc.identity, tc.identity}) {
			t.Fatalf("%s, identity at the per-task bound: peaks %v (%v), want %d each", tc.name, r.PeakPinBytes, r.Err(), tc.identity)
		}
		onto1 := Topology{DeviceBytes: 1 << 30, Binding: []int{1, 1}}
		r = Check(s, onto1)
		if !r.OK() || !reflect.DeepEqual(r.PeakPinBytes, []int64{0, tc.groupedBoth}) {
			t.Fatalf("%s, both streams on gpu1: peaks %v (%v), want [0 %d]", tc.name, r.PeakPinBytes, r.Err(), tc.groupedBoth)
		}
		// The standalone proof gates on exactly the per-task bound: a
		// survivor big enough for one stream but not two is refused.
		onto1.DeviceBytes = tc.both
		if r = Check(s, onto1); !r.OK() || !reflect.DeepEqual(r.PeakPinBytes, []int64{0, tc.both}) {
			t.Fatalf("%s, both streams on gpu1 at the per-task bound: peaks %v (%v), want [0 %d]", tc.name, r.PeakPinBytes, r.Err(), tc.both)
		}
		if _, err := Residency(s, onto1); err != nil {
			t.Errorf("%s: capacity at the bound rejected: %v", tc.name, err)
		}
		onto1.DeviceBytes = tc.both - 1
		if _, err := Residency(s, onto1); err == nil || !strings.Contains(err.Error(), "gpu1") {
			t.Errorf("%s: capacity below the aliased bound accepted: %v", tc.name, err)
		}
		if _, err := Residency(s, Topology{DeviceBytes: tc.both - 1}); err != nil {
			t.Errorf("%s: the same capacity must fit unaliased: %v", tc.name, err)
		}
	}
	s := buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 6, 2, 2)
	wantViolation(t, Check(s, Topology{DeviceBytes: 1 << 30, Binding: []int{0}}), "plan", false)
	wantViolation(t, Check(s, Topology{DeviceBytes: 1 << 30, Binding: []int{0, 2}}), "plan", false)
}
