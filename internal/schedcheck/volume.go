// Structural swap-volume accounting: the per-iteration DMA traffic a
// plan implies, derived purely from queue order, and its cross-check
// against internal/analytic's closed forms.
//
// The model is the paper's §3 idealized regime made structural: a
// persistent tensor is swapped in once per *run* — a maximal sequence
// of consecutive stream entries touching it — and evicted (written
// back when dirty, or always without dirty tracking) in the gap before
// its next run. Runs survive at runtime because the executor pins a
// task's persistent inputs before anything else in the task can
// allocate, so back-to-back users keep the tensor resident. Two
// refinements make the accounting exact:
//
//   - wraparound: iterations repeat, so if a device's first and last
//     runs share a tensor they are one run in steady state (the
//     HarmonyDP first-layer weight that "survives into the next
//     iteration").
//   - gapless runs: if every entry on a device touches the tensor
//     (a single-layer pipeline stage's weight), it is never evicted at
//     all — zero traffic.
//
// Collective entries woven into a stream are transparent unless they
// touch the class on that device: an AllReduce pins the device's own
// gradient shard and allocates nothing, so it cannot evict the weights
// around it (this is precisely the residency JIT updates rely on).
//
// This volume, like internal/analytic's (4m+2)·N·|W|, 3·N·|W| and
// 3·|W|, is the paper's model, which counts the gradient buffer's round
// trip; the trainer no longer moves a just-applied gradient (exec's
// known-zero pages, DESIGN.md §9), so for the dW class both are an upper
// bound on what exec.VM moves, not a prediction of it.
package schedcheck

import (
	"harmony/internal/analytic"
	"harmony/internal/graph"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// touch is one contact an entry makes with a persistent tensor on a
// device, and whether that contact dirties it.
type touch struct {
	t     *tensor.Tensor
	dirty bool
}

// classTouches returns the tensors of the given persistent kind that
// stream entry e touches on device dev, in touch order. A run of compute
// tasks touches at most one tensor per persistent class (its layer's); a
// rendezvous touches each member's per-device input — one tensor per
// member for a chunked bucket, in member (descending layer) order — and,
// on a plan whose reductions apply the update (Schedule.FusedUpdate),
// writes the member layer's weights on the device as well.
func classTouches(s *sched.Schedule, ws *sched.Streams, e sched.StreamEntry, dev int, kind tensor.Kind) []touch {
	if e.Rdv >= 0 {
		var out []touch
		for _, m := range ws.Members[e.Rdv] {
			if dev >= len(m.Inputs) {
				continue
			}
			if m.Inputs[dev].Kind == kind {
				out = append(out, touch{m.Inputs[dev], taskMutates(m, m.Inputs[dev])})
			}
			if kind == tensor.Weight && s.FusedUpdate() {
				out = append(out, touch{s.Graph.W[dev][m.Layer], true})
			}
		}
		return out
	}
	// A run's members share their layer's tensor of the kind, dirty when
	// any member mutates it (a closing Update writes W).
	var out []touch
	for _, m := range e.Run {
		for _, in := range m.Inputs {
			if in.Kind == kind {
				if out == nil {
					out = []touch{{t: in}}
				}
				out[0].dirty = out[0].dirty || taskMutates(m, in)
				break
			}
		}
	}
	return out
}

// taskMutates reports whether the task marks x dirty.
func taskMutates(t *graph.Task, x *tensor.Tensor) bool {
	for _, mu := range t.Mutates {
		if mu == x {
			return true
		}
	}
	return false
}

type tensorRun struct {
	t     *tensor.Tensor
	dirty bool
}

// classVolume returns one device's per-iteration (in, out) bytes for a
// persistent tensor class under the run model above.
func classVolume(s *sched.Schedule, ws *sched.Streams, dev int, kind tensor.Kind, dirtyTracking bool) (int64, int64) {
	var runs []tensorRun
	gapless := true
	for _, e := range ws.Dev[dev] {
		ts := classTouches(s, ws, e, dev, kind)
		if len(ts) == 0 {
			if e.Rdv >= 0 {
				continue // transparent: pins its own shard, allocates nothing
			}
			gapless = false
			continue
		}
		for _, tc := range ts {
			if n := len(runs); n > 0 && runs[n-1].t == tc.t {
				runs[n-1].dirty = runs[n-1].dirty || tc.dirty
				continue
			}
			runs = append(runs, tensorRun{t: tc.t, dirty: tc.dirty})
		}
	}
	switch {
	case len(runs) == 0:
		return 0, 0
	case len(runs) == 1 && gapless:
		// The tensor is touched by every entry: it is fetched once,
		// ever, and amortizes to zero per-iteration traffic.
		return 0, 0
	case len(runs) > 1 && runs[0].t == runs[len(runs)-1].t:
		// Steady state: the last run continues into the next
		// iteration's identical first run.
		runs[len(runs)-1].dirty = runs[len(runs)-1].dirty || runs[0].dirty
		runs = runs[1:]
	}
	var in, out int64
	for _, run := range runs {
		in += run.t.Bytes
		if run.dirty || !dirtyTracking {
			out += run.t.Bytes
		}
	}
	return in, out
}

// checkVolume accounts the plan's structural swap volume per class and
// cross-checks the canonical plan shapes against internal/analytic.
// Divergence is a bug in the planner or the formulas (never a
// tolerance to widen): the weight class must match Corrected exactly,
// optimizer state must match Ideal exactly, and the gradient class
// must sit within the one known boundary merge of Ideal.
func checkVolume(s *sched.Schedule, ws *sched.Streams, r *Report) {
	if ws == nil {
		return // the plan did not weave; already reported
	}
	dt := s.MemPolicy.DirtyTracking
	for d := range ws.Dev {
		wIn, wOut := classVolume(s, ws, d, tensor.Weight, dt)
		gIn, gOut := classVolume(s, ws, d, tensor.WeightGrad, dt)
		kIn, kOut := classVolume(s, ws, d, tensor.OptState, dt)
		r.WeightSwapBytes += wIn + wOut
		r.GradSwapBytes += gIn + gOut
		r.OptStateSwapBytes += kIn + kOut
	}

	mode, ok := analyticMode(s)
	if !ok {
		return
	}
	cfg := s.Graph.Cfg
	p := analytic.FromModel(cfg.Model, cfg.MicrobatchSize, cfg.Microbatches, s.NGPUs)
	r.AnalyticWeightBytes = analytic.WeightVolumeCorrected(mode, p)

	if got, want := r.WeightSwapBytes, r.AnalyticWeightBytes; got != want {
		r.addf("swap-volume", nil,
			"weight class: plan implies %d bytes/iteration, analytic %s corrected form predicts %d (planner or formula bug)",
			got, mode, want)
	}
	if got, want := r.OptStateSwapBytes, analytic.OptStateVolumeIdeal(mode, p); got != want {
		r.addf("swap-volume", nil,
			"optimizer-state class: plan implies %d bytes/iteration, analytic %s predicts %d",
			got, mode, want)
	}
	gradIdeal := analytic.GradVolumeIdeal(mode, p)
	// The ideal form ignores the one bwd→upd merge at each device's
	// first boundary layer; allow exactly that.
	slack := 2 * (p.FirstWBytes + p.LastWBytes) * int64(s.NGPUs)
	if got := r.GradSwapBytes; got > gradIdeal || gradIdeal-got > slack {
		r.addf("swap-volume", nil,
			"gradient class: plan implies %d bytes/iteration, analytic %s predicts %d (±%d boundary slack)",
			got, mode, gradIdeal, slack)
	}
}

// analyticMode maps a plan onto the closed-form regime it must match,
// or reports that no closed form applies. The mapping looks at the
// *toggles*, not Opts.Mode: a HarmonyDP-mode schedule with every
// optimization off (a group of one, interleaved) emits exactly the
// baseline queue order and must match the baseline formula.
func analyticMode(s *sched.Schedule) (analytic.Mode, bool) {
	if s.Opts.Mode.IsSharded() {
		return 0, false // no closed form for intra-op sharding
	}
	if s.Comm != nil {
		// A comm plan defers each bucket's JIT updates past the next
		// bucket's backwards (commUpdateGroups), splitting the bwd→upd
		// adjacency runs the corrected forms assume — even when every
		// bucket holds a single member. The simulated replay volume
		// still cross-checks against the plan; only the closed forms
		// are out of scope.
		return 0, false
	}
	cfg := s.Graph.Cfg
	m := cfg.Microbatches
	R := len(cfg.Model.Layers)
	if R < 2 {
		return 0, false // degenerate: every task shares the one weight
	}
	// Uniform weights: the corrected forms use |W_first| and |W_last|
	// as the boundary sizes on every device, which is only exact when
	// all layers match.
	w0 := cfg.Model.Layers[0].WeightBytes()
	for _, spec := range cfg.Model.Layers {
		if spec.WeightBytes() != w0 {
			return 0, false
		}
	}
	pp := s.Opts.Mode.IsPipeline()
	if pp && R%s.NGPUs != 0 {
		return 0, false // non-uniform stages have no closed form
	}
	// The closed forms know two wave shapes: a group of one
	// interleaved (the baselines') and one wave of all m (Harmony's).
	o := s.Opts
	baseline := !o.JIT && !o.DirtyTracking && o.GroupSize == 1 && o.WaveInterleave
	harmony := o.JIT && o.DirtyTracking && (o.GroupSize == 0 || o.GroupSize >= m)
	switch {
	case pp && baseline:
		return analytic.PPBaseline, true
	case pp && harmony:
		return analytic.HarmonyPP, true
	case !pp && baseline:
		return analytic.DPBaseline, true
	case !pp && harmony:
		return analytic.HarmonyDP, true
	}
	return 0, false // partial optimization profiles have no closed form
}
