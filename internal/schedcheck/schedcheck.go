// Package schedcheck statically verifies execution plans before any
// task runs. Harmony's correctness hinges on properties of the
// *schedule*, not just the code: harmonylint (internal/analyzers)
// proves source-level invariants, and this package proves the matching
// plan-level ones — without executing a single kernel:
//
//  1. Deadlock-freedom: the happens-before graph of the woven streams
//     (sched.Weave: per-device queues with the collective rendezvous
//     placed in them — the very streams the executor's workers drain)
//     and the task dependencies must let every task complete.
//     Precedence violations (a task queued before its same-device
//     dependency) and cross-device rendezvous cycles (two devices
//     meeting the same pair of collectives in opposite orders) are
//     rejected with a Gantt counterexample.
//  2. Residency: per-device peak pinned bytes — the largest run's
//     distinct inputs+outputs plus its members' workspace, of every
//     stream bound to the device (Topology.Binding), or a collective's
//     parked demand — must fit under the device capacity the memory
//     manager enforces at runtime. Where the runs do not fit, they are
//     narrowed to one task on that device first, so the bound that
//     gates is never above the per-task one. The prefetch byte budget
//     is reported on top as the expected steady-state peak (prefetch
//     itself only ever uses spare capacity, so it cannot make a
//     feasible plan infeasible).
//  3. Swap volume: the per-iteration weight / gradient / optimizer
//     traffic implied by the queue order (computed structurally from
//     pin-adjacency runs) must agree with internal/analytic's closed
//     forms for the canonical plan shapes. A divergence means either
//     the planner or the formulas are wrong — both are bugs.
//
// The DMA claim machine's invariant (DESIGN.md §9) holds for every
// plan, not per plan: internal/claimword's tests prove it over every
// reachable claim word, so nothing here re-checks it.
//
// Where a rendezvous sits in a stream is the planner's decision and
// lives only in sched.Weave, and the order the streams drain in lives
// only in sched.Streams.Replay, which the serial reference executor
// walks too, on purpose: the reference runs exactly the order proven
// here. What makes this package an independent check on the parallel
// executor is that its workers share neither: they drain the streams
// on goroutines released by a dispatcher, and the residency bound and
// the volume model share no code with the executor at all.
//
// The executor runs Check as a preflight gate (exec.TrainerConfig
// .NoVerify opts out) and installs the streams it proved, with their
// runs fitted to the topology (Report.Streams); it calls Fit,
// Liveness and Residency where it needs just those: with verification
// off, after a device dies, before adopting a retuned plan.
// cmd/schedcheck exposes Check as a CLI.
package schedcheck

import (
	"fmt"
	"slices"
	"strings"

	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// Topology describes the machine a plan is checked against.
type Topology struct {
	// Devices is the number of physical devices; DeviceBytes each
	// one's memory capacity (the exec.VM budget). Devices <= 0 means
	// one per plan device.
	Devices     int
	DeviceBytes int64

	// Binding maps the plan's (virtual) device d to the physical
	// device Binding[d] whose memory it uses; nil is the identity. The
	// executor re-binds a dead device's stream onto a survivor, so
	// several streams may share one device and their pin demands add
	// up — residency is proven per physical device under this map.
	Binding []int
}

// prefetchBudget is the prefetched-byte cap per device: half the
// capacity, exec.VM.StartEngine's default.
func (t Topology) prefetchBudget() int64 { return t.DeviceBytes / 2 }

// phys is the physical device backing plan device d.
func (t Topology) phys(d int) int {
	if t.Binding == nil {
		return d
	}
	return t.Binding[d]
}

// fit resolves the topology's defaults against a plan and rejects a
// topology the plan cannot be placed on.
func (t *Topology) fit(s *sched.Schedule, r *Report) bool {
	if t.Devices <= 0 {
		t.Devices = s.NGPUs
	}
	if t.Devices < s.NGPUs {
		r.addf("plan", nil, "plan needs %d devices, topology has %d", s.NGPUs, t.Devices)
		return false
	}
	if t.Binding == nil {
		return true
	}
	if len(t.Binding) != s.NGPUs {
		r.addf("plan", nil, "binding covers %d devices, plan has %d", len(t.Binding), s.NGPUs)
		return false
	}
	for d, p := range t.Binding {
		if p < 0 || p >= t.Devices {
			r.addf("plan", nil, "gpu%d bound to device %d, topology has %d", d, p, t.Devices)
			return false
		}
	}
	return true
}

// Violation is one verified defect in the plan.
type Violation struct {
	// Rule is the invariant class: "plan", "deadlock", "capacity" or
	// "swap-volume".
	Rule string
	Msg  string
	// Trace, when non-nil, is a counterexample timeline: the completed
	// prefix plus the blocked or offending state, rendered per device.
	Trace *trace.Trace
}

// Report is the outcome of one Check.
type Report struct {
	Violations []Violation

	// PeakPinBytes[d] is device d's worst-case concurrently pinned
	// bytes (one task in flight per stream, collectives parked).
	PeakPinBytes []int64
	// PeakResidentBytes[d] adds the prefetch budget, clamped to
	// capacity: the steady-state residency the async engine aims for.
	PeakResidentBytes []int64

	// Structural per-iteration swap volumes implied by the queue
	// order, summed over devices (in + out bytes).
	WeightSwapBytes   int64
	GradSwapBytes     int64
	OptStateSwapBytes int64
	// AnalyticWeightBytes is the closed-form prediction the weight
	// volume was compared against; -1 when the plan shape has no
	// closed form (the cross-check was skipped).
	AnalyticWeightBytes int64

	// TasksChecked counts tasks proven completable by the replay.
	TasksChecked int

	// Streams is the woven plan the checks ran on, its runs fitted to
	// the topology: what a device worker drains once the plan passes.
	// Nil when the plan does not weave.
	Streams *sched.Streams
}

// OK reports whether the plan passed every check.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a passing plan, or an error describing the
// first violation with its counterexample trace rendered as a Gantt
// chart (one lane per device).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	v := r.Violations[0]
	msg := fmt.Sprintf("schedcheck: %s: %s", v.Rule, v.Msg)
	if v.Trace != nil {
		if g := v.Trace.Gantt(72); g != "" {
			msg += "\ncounterexample ('!' marks the blocked or offending step):\n" + g
		}
	}
	if len(r.Violations) > 1 {
		msg += fmt.Sprintf("\n(%d further violations)", len(r.Violations)-1)
	}
	return fmt.Errorf("%s", msg)
}

func (r *Report) addf(rule string, tr *trace.Trace, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Rule: rule, Msg: fmt.Sprintf(format, args...), Trace: tr})
}

// Check statically verifies a plan against a topology. It never
// executes tasks; all findings are returned as Violations (a
// malformed plan yields "plan" violations rather than an error so
// callers have one result path).
func Check(s *sched.Schedule, topo Topology) *Report {
	r := &Report{AnalyticWeightBytes: -1}
	if s == nil {
		r.addf("plan", nil, "nil schedule")
		return r
	}
	if !topo.fit(s, r) {
		return r
	}
	if !checkShape(s, r) {
		return r // coverage broken: downstream checks would mislead
	}
	ws, err := sched.Weave(s)
	if err != nil {
		r.addf("plan", nil, "%v", err)
		return r // no streams: nothing to replay, bound or account
	}
	peak := fit(s, ws, topo)
	replay(s.Graph.Tasks, ws, r)
	checkResidency(s, ws, topo, peak, r)
	checkVolume(s, ws, r)
	r.Streams = ws
	return r
}

// Liveness is the deadlock-freedom proof on its own: it replays woven
// streams to a fixed point and returns nil, or the deadlock with its
// Gantt counterexample. The executor runs it on the very streams its
// workers are about to drain.
func Liveness(tasks []*graph.Task, ws *sched.Streams) error {
	r := &Report{}
	replay(tasks, ws, r)
	return r.Err()
}

// Residency is the pin-budget proof on its own: the plan's streams with
// their runs fitted to topo (Fit), or the capacity violation of the
// first physical device the plan cannot fit on under topo.Binding even
// with every run narrowed to one task. Recovery re-runs it when a device
// dies and its stream is re-bound to a survivor, and drains the streams
// it returns.
func Residency(s *sched.Schedule, topo Topology) (*sched.Streams, error) {
	ws, peak, err := fitted(s, &topo)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if checkResidency(s, ws, topo, peak, r); !r.OK() {
		return nil, r.Err()
	}
	return ws, nil
}

// checkShape validates task coverage: every graph task appears exactly
// once, in one queue or as a collective, and the dependency graph is
// acyclic.
func checkShape(s *sched.Schedule, r *Report) bool {
	pre := len(r.Violations)
	if len(s.Queues) != s.NGPUs {
		r.addf("plan", nil, "%d queues for %d devices", len(s.Queues), s.NGPUs)
		return false
	}
	seen := make([]int, len(s.Graph.Tasks))
	for _, q := range s.Queues {
		for _, t := range q {
			seen[t.ID]++
		}
	}
	for _, c := range s.Collectives {
		seen[c.ID]++
	}
	for _, t := range s.Graph.Tasks {
		if seen[t.ID] != 1 {
			r.addf("plan", nil, "%s scheduled %d times", t, seen[t.ID])
		}
	}
	if _, err := s.Graph.CheckAcyclic(); err != nil {
		r.addf("plan", nil, "%v", err)
	}
	checkComm(s, r)
	return len(r.Violations) == pre
}

// checkComm validates a chunked plan's comm structure (nil Comm is the
// monolithic path and trivially passes): every collective belongs to
// exactly one bucket, each member's element range is covered exactly
// once by contiguous chunks, every member has a chunk (an empty one
// when it has no elements), and every reducer is a real device. The
// executor trusts these properties — a gap would silently skip
// gradient elements, a bad reducer would orphan chunks, and a member
// with no chunk is retired by no worker, so its updates never run —
// so they are proven here, before anything runs.
func checkComm(s *sched.Schedule, r *Report) {
	if s.Comm == nil {
		return
	}
	inBucket := make([]int, len(s.Collectives))
	for bi, b := range s.Comm {
		for _, ci := range b.Members {
			if ci < 0 || ci >= len(s.Collectives) {
				r.addf("plan", nil, "comm bucket %d member index %d out of range (%d collectives)", bi, ci, len(s.Collectives))
				return
			}
			inBucket[ci]++
		}
		next := make([]int, len(b.Members))
		count := make([]int, len(b.Members))
		for _, c := range b.Chunks {
			if c.Member < 0 || c.Member >= len(b.Members) {
				r.addf("plan", nil, "comm bucket %d chunk member %d out of range (%d members)", bi, c.Member, len(b.Members))
				return
			}
			if c.Reducer < 0 || c.Reducer >= s.NGPUs {
				r.addf("plan", nil, "comm bucket %d chunk reducer gpu%d out of range (%d devices)", bi, c.Reducer, s.NGPUs)
			}
			empty := c.Hi == 0 && s.Collectives[b.Members[c.Member]].CommBytes == 0
			if c.Lo != next[c.Member] || c.Hi <= c.Lo && !empty {
				r.addf("plan", nil, "comm bucket %d member %d chunk [%d,%d) not contiguous from element %d",
					bi, c.Member, c.Lo, c.Hi, next[c.Member])
			}
			next[c.Member] = c.Hi
			count[c.Member]++
		}
		for mi, ci := range b.Members {
			if count[mi] == 0 {
				r.addf("plan", nil, "comm bucket %d member %s has no chunk: no worker retires it", bi, s.Collectives[ci])
				continue
			}
			elems := int(s.Collectives[ci].CommBytes) / 4 // float32 elements
			if next[mi] != elems {
				r.addf("plan", nil, "comm bucket %d member %s chunks cover %d of %d elements",
					bi, s.Collectives[ci], next[mi], elems)
			}
		}
	}
	for ci, n := range inBucket {
		if n != 1 {
			r.addf("plan", nil, "collective %s appears in %d comm buckets, want exactly 1", s.Collectives[ci], n)
		}
	}
}

// replay runs the woven streams to a fixed point without executing
// anything (sched.Streams.Replay): a rendezvous completes when all
// participants have parked at it AND every member's dependencies are
// met, finishing every member at once. (The chunked executor is weaker: it
// releases each member as its last chunk retires and lets finished
// workers depart early, so a plan that passes this conservative model
// can only complete more easily at runtime.) This is the
// happens-before check: a stuck fixed point is a deadlock (dependency
// precedence violation or rendezvous cycle), and the completed prefix
// plus the blocked heads form the counterexample.
func replay(tasks []*graph.Task, ws *sched.Streams, r *Report) {
	if done, msg := fixedPoint(tasks, ws, nil); msg != "" {
		// Stuck: replay once more, this time drawing the timeline. The
		// passing path never renders a label.
		tl := &trace.Trace{}
		fixedPoint(tasks, ws, tl)
		r.addf("deadlock", tl, "%s", msg)
	} else {
		r.TasksChecked = done
	}
}

// fixedPoint is the replay: sched.Streams.Replay, visited without
// math. It returns the number of tasks completed and, when that is not
// all of them, the blocked heads; a non-nil tl receives one span per
// completed task and a fault-lane span per blocked head.
func fixedPoint(tasks []*graph.Task, ws *sched.Streams, tl *trace.Trace) (int, string) {
	done, step := 0, 0
	span := func(d int, e sched.StreamEntry) {
		if tl != nil {
			tl.Add(hw.DeviceID(d), trace.Compute, e.Label(), sim.Time(step), sim.Time(step+1))
		}
	}
	// The visitor never fails, so Replay returns no error.
	stuck, _ := ws.Replay(tasks, func(d int, e sched.StreamEntry) error {
		if e.Rdv < 0 {
			span(d, e)
			done += len(e.Run)
		} else {
			// The rendezvous completes once; show the span on every
			// participant — all are parked at it — so the rendezvous
			// ordering is visible.
			for p := range ws.Parties[e.Rdv] {
				span(p, e)
			}
			done += len(ws.Members[e.Rdv])
		}
		step++
		return nil
	})
	if done == len(tasks) {
		return done, ""
	}
	heads := make([]string, len(stuck))
	for i, h := range stuck {
		heads[i] = h.String()
		if tl != nil {
			tl.Add(hw.DeviceID(h.Dev), trace.Fault, "!"+h.Entry.Label()+" "+h.Why, sim.Time(step), sim.Time(step+1))
		}
	}
	return done, fmt.Sprintf("%d/%d tasks completable; blocked: %s", done, len(tasks), strings.Join(heads, ", "))
}

// pinPeak is a pinned-byte bound and, when one run alone explains it,
// that run's entry: idx is its position in plan device dev's stream (-1
// for a collective, whose label is t).
type pinPeak struct {
	bytes    int64
	t        *graph.Task
	dev, idx int
}

// runPin is what a run pins while it runs: the distinct tensors its
// members declare — a layer's W and dW once, each member's activations
// once — and every member's workspace. A run of one pins its task's
// inputs, outputs and workspace.
func runPin(run []*graph.Task) int64 {
	var pin int64
	for i, t := range run {
		pin += t.WorkspaceBytes
		for _, ts := range [2][]*tensor.Tensor{t.Inputs, t.Outputs} {
			for _, x := range ts {
				if !declared(run[:i], x) {
					pin += x.Bytes
				}
			}
		}
	}
	return pin
}

// declared reports whether one of ts reads or writes x.
func declared(ts []*graph.Task, x *tensor.Tensor) bool {
	for _, t := range ts {
		if slices.Contains(t.Inputs, x) || slices.Contains(t.Outputs, x) {
			return true
		}
	}
	return false
}

// fit narrows ws's runs to topo and returns the pin bound it ends at:
// where a physical device's bound exceeds topo.DeviceBytes, every run on
// the streams bound to it is cut to runs of one (sched.Streams.Narrow).
// Runs pin only on their own device, so no other device's bound moves,
// and at runs of one a device's bound is the per-task bound: narrowing
// rejects no plan whose tasks fit one at a time. A device over capacity
// even then is left for checkResidency to report.
func fit(s *sched.Schedule, ws *sched.Streams, topo Topology) []pinPeak {
	peak := peaks(s, ws, topo)
	cut := false
	for p, pk := range peak {
		if pk.bytes <= topo.DeviceBytes {
			continue
		}
		for d := range ws.Dev {
			if topo.phys(d) == p {
				cut = ws.Narrow(d) || cut
			}
		}
	}
	if cut {
		peak = peaks(s, ws, topo)
	}
	return peak
}

// Fit weaves s and fits its runs to topo (fit) without proving anything
// else: the streams a run with verification off drains. It fails only
// on a plan that does not weave or a topology it cannot be placed on.
func Fit(s *sched.Schedule, topo Topology) (*sched.Streams, error) {
	ws, _, err := fitted(s, &topo)
	return ws, err
}

// fitted is Fit, with the pin bound the fitted streams have on topo,
// whose defaults it resolves.
func fitted(s *sched.Schedule, topo *Topology) (*sched.Streams, []pinPeak, error) {
	r := &Report{}
	if !topo.fit(s, r) {
		return nil, nil, r.Err()
	}
	ws, err := sched.Weave(s)
	if err != nil {
		return nil, nil, err
	}
	return ws, fit(s, ws, *topo), nil
}

// checkResidency reports peak, the pin bound of ws on topo, and rejects
// every physical device it does not fit. This is the bound the
// executor's VM lives under: one run in flight per stream (its distinct
// tensors and its members' workspace pinned together, runPin), summed
// over the streams topo.Binding puts on the device, and, during a
// monolithic collective, the per-device buffers of all parked
// participants. Chunked plans (Schedule.Comm) overlap collectives with
// compute instead of parking, so each worker may simultaneously hold
// either a run's pins or a member reduction's replica views — per
// physical device, the demands sum across workers rather than max
// (chunkedPeaks). Conservative by design: it never passes a binding
// the VM could fail on. The prefetch budget is reported as expected
// steady-state residency but never gates — the async engine only ever
// claims spare capacity.
func checkResidency(s *sched.Schedule, ws *sched.Streams, topo Topology, peak []pinPeak, r *Report) {
	r.PeakPinBytes = make([]int64, topo.Devices)
	r.PeakResidentBytes = make([]int64, topo.Devices)
	budget := int64(0)
	if s.Opts.Prefetch {
		budget = topo.prefetchBudget()
	}
	for p, pk := range peak {
		r.PeakPinBytes[p] = pk.bytes
		r.PeakResidentBytes[p] = min(pk.bytes+budget, topo.DeviceBytes)
		if pk.bytes <= topo.DeviceBytes {
			continue
		}
		tl := &trace.Trace{}
		why := "worst runs of the streams bound to it, summed"
		if s.Comm != nil {
			why = "chunked collectives: additive demand across workers"
		}
		if pk.t != nil {
			why = fmt.Sprintf("worst task %s: inputs+outputs+workspace", pk.t)
		}
		if pk.t != nil && pk.idx >= 0 {
			// Counterexample: the stream prefix leading to the peak task
			// (fit left every run on this device a task alone), with the
			// offender on the fault lane.
			st := ws.Dev[pk.dev]
			lo := max(pk.idx-24, 0)
			for i := lo; i < pk.idx; i++ {
				tl.Add(hw.DeviceID(p), trace.Compute, st[i].Label(), sim.Time(i-lo), sim.Time(i-lo+1))
			}
			tl.Add(hw.DeviceID(p), trace.Fault,
				fmt.Sprintf("!%s pins %d > capacity %d", pk.t, pk.bytes, topo.DeviceBytes),
				sim.Time(pk.idx-lo), sim.Time(pk.idx-lo+1))
		}
		r.addf("capacity", tl, "gpu%d peak pinned bytes %d exceed capacity %d (%s)",
			p, pk.bytes, topo.DeviceBytes, why)
	}
}

// peaks returns each physical device's pin bound for ws's runs; a
// bound that one stream's worst run reaches alone is blamed on that
// run.
func peaks(s *sched.Schedule, ws *sched.Streams, topo Topology) []pinPeak {
	worst := make([]pinPeak, s.NGPUs) // per stream
	for d, st := range ws.Dev {
		for i, e := range st {
			if e.Rdv >= 0 {
				continue
			}
			if pin := runPin(e.Run); pin > worst[d].bytes {
				worst[d] = pinPeak{pin, e.Task, d, i}
			}
		}
	}
	// views adds a collective's per-participant buffers to the physical
	// devices holding them (participant i's live on plan device i).
	views := func(to []int64, ts []*tensor.Tensor) {
		for i, t := range ts {
			if i < s.NGPUs {
				to[topo.phys(i)] += t.Bytes
			}
		}
	}
	peak := make([]pinPeak, topo.Devices) // per physical device
	if s.Comm != nil {
		for p, pb := range chunkedPeaks(s, ws, topo, worst) {
			peak[p].bytes = pb
		}
	} else {
		for d, w := range worst {
			peak[topo.phys(d)].bytes += w.bytes
		}
		for _, c := range s.Collectives {
			coll := make([]int64, topo.Devices)
			views(coll, c.Inputs)
			if len(c.Outputs) == len(c.Inputs) {
				// Gathers materialize a full output per shard device.
				views(coll, c.Outputs)
			}
			for p, pb := range coll {
				if pb > peak[p].bytes {
					peak[p] = pinPeak{bytes: pb, t: c, idx: -1}
				}
			}
		}
	}
	for d, w := range worst {
		if p := topo.phys(d); w.t != nil && peak[p].bytes == w.bytes {
			peak[p] = w
		}
	}
	return peak
}

// chunkedPeaks bounds each physical device's pinned bytes on a chunked plan,
// given each stream's worst run. A device worker holds at once either
// one run of its stream, pinned on its own device, or one member
// reduction: every replica's view of the member's gradient, each on its
// home device, and, on a plan whose reductions apply the update
// (Schedule.FusedUpdate), every replica's weights of that layer beside
// them. Two facts of the task graph cut the sum, both exact: a reduction
// of collective c is never in flight beside a run with a member c
// depends on or that depends on c — a run's members are released
// together and complete only once all of them are done — and two
// reductions of one member pin the same tensors. So one worker bound to
// device p is the anchor, and for each item x it may hold the bound adds
// to x's bytes on p, per other worker, the most that worker can pin on p
// beside x; the device's bound is the largest such sum. The other
// workers' items are not checked against each other, which keeps the
// bound conservative: with no anchor's exclusion to apply, it is every
// worker's worst item summed.
func chunkedPeaks(s *sched.Schedule, ws *sched.Streams, topo Topology, worst []pinPeak) []int64 {
	tasks := s.Graph.Tasks
	// on[ci][p] is what reducing collective ci pins on physical device
	// p; mine[d] lists the collectives worker d reduces a chunk of.
	on := make([][]int64, len(s.Collectives))
	fused := s.FusedUpdate()
	for ci, c := range s.Collectives {
		on[ci] = make([]int64, topo.Devices)
		for i, x := range c.Inputs {
			if i < s.NGPUs {
				on[ci][topo.phys(i)] += x.Bytes
				if fused {
					on[ci][topo.phys(i)] += s.Graph.W[i][c.Layer].Bytes
				}
			}
		}
	}
	mine := make([][]int, s.NGPUs)
	for _, b := range s.Comm {
		for _, ch := range b.Chunks {
			if ci := b.Members[ch.Member]; !slices.Contains(mine[ch.Reducer], ci) {
				mine[ch.Reducer] = append(mine[ch.Reducer], ci)
			}
		}
	}
	// reach[ci][id]: task id runs before or after collective ci in
	// every run, as an ancestor or a descendant of it.
	reach := make([][]bool, len(s.Collectives))
	for ci, c := range s.Collectives {
		seen := make([]bool, len(tasks))
		for _, next := range []func(*graph.Task) []*graph.Task{
			func(t *graph.Task) []*graph.Task { return t.Deps },
			func(t *graph.Task) []*graph.Task { return t.Succs },
		} {
			stack := append([]*graph.Task(nil), next(c)...)
			for len(stack) > 0 {
				t := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !seen[t.ID] {
					seen[t.ID] = true
					stack = append(stack, next(t)...)
				}
			}
		}
		reach[ci] = seen
	}
	// ordered: some member of run is ordered with collective ci, so the
	// whole run is.
	ordered := func(ci int, run []*graph.Task) bool {
		return slices.ContainsFunc(run, func(t *graph.Task) bool { return reach[ci][t.ID] })
	}
	// beside returns the most worker d can pin on device p while another
	// worker holds run (ci < 0) or a reduction of collective ci.
	beside := func(d, p int, run []*graph.Task, ci int) int64 {
		var most int64
		if topo.phys(d) == p {
			if ci < 0 {
				most = worst[d].bytes
			} else {
				for _, e := range ws.Dev[d] {
					if e.Rdv < 0 && !ordered(ci, e.Run) {
						most = max(most, runPin(e.Run))
					}
				}
			}
		}
		for _, cj := range mine[d] {
			switch {
			case ci >= 0 && cj == ci: // the tensors the other worker pins
			case ci < 0 && ordered(cj, run): // never beside this run
			default:
				most = max(most, on[cj][p])
			}
		}
		return most
	}
	peak := make([]int64, topo.Devices)
	for p := range peak {
		anchor := -1
		for d := range s.NGPUs {
			if topo.phys(d) == p {
				anchor = d
				break
			}
		}
		if anchor < 0 {
			// Nothing lives there: replica i's tensors are on the
			// device worker i is bound to.
			continue
		}
		hold := func(x int64, run []*graph.Task, ci int) {
			for d := range s.NGPUs {
				if d != anchor {
					x += beside(d, p, run, ci)
				}
			}
			peak[p] = max(peak[p], x)
		}
		for _, e := range ws.Dev[anchor] {
			if e.Rdv < 0 {
				hold(runPin(e.Run), e.Run, -1)
			}
		}
		for _, ci := range mine[anchor] {
			hold(on[ci][p], nil, ci)
		}
	}
	return peak
}
