package schedcheck

import (
	"reflect"
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
	s := buildPlan(t, sched.Options{Mode: sched.DPBaseline}, 6, 2, 2)
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
	s := buildPlan(t, sched.Options{Mode: sched.DPBaseline}, 6, 2, 2)
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

// The DMA exploration must visit a nontrivial state space on a clean
// plan (both capacity regimes) and prove the invariant.
func TestDMAExplorationRuns(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 6, 2, 2)
	r := Check(s, roomy())
	if !r.OK() {
		t.Fatal(r.Err())
	}
	if r.DMAStates < 10 {
		t.Fatalf("DMA exploration visited only %d states", r.DMAStates)
	}
}

// The seeded protocol bug: marking a buffer resident without
// committing its synchronous claim violates the DESIGN.md §9 invariant
// and the checker must find the interleaving.
func TestSkipCommitMutationCaught(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 6, 2, 2)
	topo := roomy()
	topo.Mutation = "skip-commit"
	r := Check(s, topo)
	v := wantViolation(t, r, "dma-claim", true)
	if !strings.Contains(v.Msg, "uncommitted") {
		t.Fatalf("unexpected message: %s", v.Msg)
	}
}

// Unknown mutations are a caller error, reported as a plan violation
// rather than silently exploring the unmutated model.
func TestUnknownMutationRejected(t *testing.T) {
	s := buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 4, 1, 1)
	topo := roomy()
	topo.Mutation = "never-settle"
	r := Check(s, topo)
	wantViolation(t, r, "plan", false)
}

// analyticMode maps toggles (not Opts.Mode) onto closed-form regimes:
// a Harmony-mode schedule with everything off is structurally the
// baseline and must be checked as one.
func TestAnalyticModeFollowsToggles(t *testing.T) {
	s := buildPlan(t, sched.Options{Mode: sched.HarmonyDP}, 6, 2, 2)
	mode, ok := analyticMode(s)
	if !ok || mode.String() != "dp-baseline" {
		t.Fatalf("toggles-off HarmonyDP mapped to (%v, %v), want dp-baseline", mode, ok)
	}
	partial := sched.Options{Mode: sched.HarmonyDP, Grouping: true} // no JIT/DT
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

// Chunked residency is additive across workers (collectives overlap
// compute), so the reported peak must exceed the monolithic model's
// parked max, and a topology sized for the monolithic peak must be
// rejected with the chunked demand named in the violation.
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
	tight := Check(buildPlan(t, commOpts(4, 0), 6, 2, 2),
		Topology{DeviceBytes: chunked.PeakPinBytes[0] - 1})
	v := wantViolation(t, tight, "capacity", false)
	if !strings.Contains(v.Msg, "chunked") {
		t.Fatalf("violation does not name the chunked demand: %s", v.Msg)
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
					checkResidency(s, Topology{Devices: n, DeviceBytes: 1 << 30}, a)
					checkResidency(s, Topology{Devices: n, DeviceBytes: 1 << 30, Binding: identity}, b)
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
// add up there. The expected bounds are what the executor's own
// pin-budget check — deleted in favour of this one — computed for the
// same plans and binding at the commit before it went.
func TestAliasedBindingResidency(t *testing.T) {
	for _, tc := range []struct {
		name           string
		opts           sched.Options
		identity, both int64
	}{
		{"monolithic", sched.DefaultOptions(sched.HarmonyDP), 20288, 40576},
		{"chunked", commOpts(4, 0), 24288, 40576},
	} {
		s := buildPlan(t, tc.opts, 6, 2, 2)
		r := Check(s, roomy())
		if !r.OK() || !reflect.DeepEqual(r.PeakPinBytes, []int64{tc.identity, tc.identity}) {
			t.Fatalf("%s, identity: peaks %v (%v), want %d each", tc.name, r.PeakPinBytes, r.Err(), tc.identity)
		}
		onto1 := Topology{DeviceBytes: 1 << 30, Binding: []int{1, 1}}
		r = Check(s, onto1)
		if !r.OK() || !reflect.DeepEqual(r.PeakPinBytes, []int64{0, tc.both}) {
			t.Fatalf("%s, both streams on gpu1: peaks %v (%v), want [0 %d]", tc.name, r.PeakPinBytes, r.Err(), tc.both)
		}
		// The standalone proof gates on exactly that bound: a survivor
		// big enough for one stream but not two is refused.
		onto1.DeviceBytes = tc.both
		if err := Residency(s, onto1); err != nil {
			t.Errorf("%s: capacity at the bound rejected: %v", tc.name, err)
		}
		onto1.DeviceBytes = tc.both - 1
		if err := Residency(s, onto1); err == nil || !strings.Contains(err.Error(), "gpu1") {
			t.Errorf("%s: capacity below the aliased bound accepted: %v", tc.name, err)
		}
		if err := Residency(s, Topology{DeviceBytes: tc.both - 1}); err != nil {
			t.Errorf("%s: the same capacity must fit unaliased: %v", tc.name, err)
		}
	}
	s := buildPlan(t, sched.DefaultOptions(sched.HarmonyDP), 6, 2, 2)
	wantViolation(t, Check(s, Topology{DeviceBytes: 1 << 30, Binding: []int{0}}), "plan", false)
	wantViolation(t, Check(s, Topology{DeviceBytes: 1 << 30, Binding: []int{0, 2}}), "plan", false)
}
