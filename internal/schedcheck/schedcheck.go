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
//  2. Residency: per-device peak pinned bytes — the largest single
//     task's inputs+outputs+workspace of every stream bound to the
//     device (Topology.Binding), or a collective's parked demand —
//     must fit under the device capacity the memory manager enforces
//     at runtime. The prefetch byte budget is reported on top as the
//     expected steady-state peak (prefetch itself only ever uses spare
//     capacity, so it cannot make a feasible plan infeasible).
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
// .NoVerify opts out) and calls Liveness and Residency, proofs 1 and 2
// on their own, where it needs just those: before the first step, after
// a device dies, before adopting a retuned plan. cmd/schedcheck exposes
// Check as a CLI.
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
	} else {
		replay(s.Graph.Tasks, ws, r)
	}
	checkResidency(s, topo, r)
	checkVolume(s, ws, r)
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

// Residency is the pin-budget proof on its own: nil, or the capacity
// violation of the first physical device the plan cannot fit on under
// topo.Binding. Recovery re-runs it when a device dies and its stream
// is re-bound to a survivor.
func Residency(s *sched.Schedule, topo Topology) error {
	r := &Report{}
	if topo.fit(s, r) {
		checkResidency(s, topo, r)
	}
	return r.Err()
}

// checkShape validates task coverage and device assignment: every
// graph task appears exactly once (in one queue or as a collective),
// queue tasks are assigned to their queue's device, collectives to
// hw.Host, and the dependency graph is acyclic.
func checkShape(s *sched.Schedule, r *Report) bool {
	pre := len(r.Violations)
	if len(s.Assign) != len(s.Graph.Tasks) {
		r.addf("plan", nil, "Assign covers %d tasks, graph has %d", len(s.Assign), len(s.Graph.Tasks))
		return false
	}
	if len(s.Queues) != s.NGPUs {
		r.addf("plan", nil, "%d queues for %d devices", len(s.Queues), s.NGPUs)
		return false
	}
	seen := make([]int, len(s.Graph.Tasks))
	for d, q := range s.Queues {
		for _, t := range q {
			seen[t.ID]++
			if dev := s.Assign[t.ID]; dev != hw.DeviceID(d) {
				r.addf("plan", nil, "%s queued on gpu%d but assigned to %v", t, d, dev)
			}
		}
	}
	for _, c := range s.Collectives {
		seen[c.ID]++
		if s.Assign[c.ID] != hw.Host {
			r.addf("plan", nil, "collective %s assigned to %v, want host", c, s.Assign[c.ID])
		}
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
	span := func(d int, t *graph.Task) {
		if tl != nil {
			tl.Add(hw.DeviceID(d), trace.Compute, t.String(), sim.Time(step), sim.Time(step+1))
		}
	}
	// The visitor never fails, so Replay returns no error.
	stuck, _ := ws.Replay(tasks, func(d int, e sched.StreamEntry) error {
		if e.Rdv < 0 {
			span(d, e.Task)
			done++
		} else {
			// The rendezvous completes once; show the span on every
			// participant — all are parked at it — so the rendezvous
			// ordering is visible.
			for p := range ws.Parties[e.Rdv] {
				span(p, e.Task)
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
			tl.Add(hw.DeviceID(h.Dev), trace.Fault, "!"+h.Entry.Task.String()+" "+h.Why, sim.Time(step), sim.Time(step+1))
		}
	}
	return done, fmt.Sprintf("%d/%d tasks completable; blocked: %s", done, len(tasks), strings.Join(heads, ", "))
}

// pinPeak is a pinned-byte bound and, when one task alone explains it,
// that task: idx is its position in plan device dev's queue (-1 for a
// collective).
type pinPeak struct {
	bytes    int64
	t        *graph.Task
	dev, idx int
}

// taskPin is what a compute task pins while it runs: its inputs,
// outputs and workspace.
func taskPin(t *graph.Task) int64 {
	pin := t.WorkspaceBytes
	for _, in := range t.Inputs {
		pin += in.Bytes
	}
	for _, out := range t.Outputs {
		pin += out.Bytes
	}
	return pin
}

// checkResidency symbolically computes each physical device's peak
// pinned bytes and rejects plans that cannot fit. This is the bound the
// executor's VM lives under: one task in flight per stream (its inputs,
// outputs and workspace pinned together), summed over the streams
// topo.Binding puts on the device, and, during a monolithic collective,
// the per-device buffers of all parked participants. Chunked plans
// (Schedule.Comm) overlap collectives with compute instead of parking,
// so each worker may simultaneously hold either a task's pins or a
// member reduction's replica views — per physical device, the demands
// sum across workers rather than max (chunkedPeaks). Conservative by
// design: it never passes a binding the VM could fail on. The prefetch budget is
// reported as expected steady-state residency but never gates — the
// async engine only ever claims spare capacity.
func checkResidency(s *sched.Schedule, topo Topology, r *Report) {
	worst := make([]pinPeak, s.NGPUs) // per stream
	for d, q := range s.Queues {
		for i, t := range q {
			if pin := taskPin(t); pin > worst[d].bytes {
				worst[d] = pinPeak{pin, t, d, i}
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
		for p, b := range chunkedPeaks(s, topo, worst) {
			peak[p].bytes = b
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
			for p, b := range coll {
				if b > peak[p].bytes {
					peak[p] = pinPeak{bytes: b, t: c, idx: -1}
				}
			}
		}
	}
	for d, w := range worst {
		// A bound that one stream's worst task reaches alone is blamed
		// on that task.
		if p := topo.phys(d); w.t != nil && peak[p].bytes == w.bytes {
			peak[p] = w
		}
	}
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
		why := "worst tasks of the streams bound to it, summed"
		if s.Comm != nil {
			why = "chunked collectives: additive demand across workers"
		}
		if pk.t != nil {
			why = fmt.Sprintf("worst task %s: inputs+outputs+workspace", pk.t)
		}
		if pk.t != nil && pk.idx >= 0 {
			// Counterexample: the queue prefix leading to the peak task,
			// with the offender on the fault lane.
			lo := max(pk.idx-24, 0)
			for i := lo; i < pk.idx; i++ {
				tl.Add(hw.DeviceID(p), trace.Compute, s.Queues[pk.dev][i].String(), sim.Time(i-lo), sim.Time(i-lo+1))
			}
			tl.Add(hw.DeviceID(p), trace.Fault,
				fmt.Sprintf("!%s pins %d > capacity %d", pk.t, pk.bytes, topo.DeviceBytes),
				sim.Time(pk.idx-lo), sim.Time(pk.idx-lo+1))
		}
		r.addf("capacity", tl, "gpu%d peak pinned bytes %d exceed capacity %d (%s)",
			p, pk.bytes, topo.DeviceBytes, why)
	}
}

// chunkedPeaks bounds each physical device's pinned bytes on a chunked
// plan, given each stream's worst task. A device worker holds at once
// either one task of its stream, pinned on its own device, or one
// member reduction: every replica's view of the member's gradient, each
// on its home device, and, on a plan whose reductions apply the update
// (Schedule.FusedUpdate), every replica's weights of that layer beside
// them. Two facts of the task graph cut the sum, both exact: a reduction
// of collective c is never in flight beside a task c depends on or that
// depends on c, and two reductions of one member pin the same tensors.
// So one worker bound to device p is the anchor, and for each item x it
// may hold the bound adds to x's bytes on p, per other worker, the most
// that worker can pin on p beside x; the device's bound is the largest
// such sum. The other workers' items are not checked against each other,
// which keeps the bound conservative: with no anchor's exclusion to
// apply, it is every worker's worst item summed.
func chunkedPeaks(s *sched.Schedule, topo Topology, worst []pinPeak) []int64 {
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
	// ordered[ci][id]: task id runs before or after collective ci in
	// every run, as an ancestor or a descendant of it.
	ordered := make([][]bool, len(s.Collectives))
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
		ordered[ci] = seen
	}
	// beside returns the most worker d can pin on device p while another
	// worker holds task t (ci < 0) or a reduction of collective ci.
	beside := func(d, p int, t *graph.Task, ci int) int64 {
		var most int64
		if topo.phys(d) == p {
			if ci < 0 {
				most = worst[d].bytes
			} else {
				for _, u := range s.Queues[d] {
					if !ordered[ci][u.ID] {
						most = max(most, taskPin(u))
					}
				}
			}
		}
		for _, cj := range mine[d] {
			switch {
			case ci >= 0 && cj == ci: // the tensors the other worker pins
			case ci < 0 && ordered[cj][t.ID]: // never beside task t
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
		hold := func(x int64, t *graph.Task, ci int) {
			for d := range s.NGPUs {
				if d != anchor {
					x += beside(d, p, t, ci)
				}
			}
			peak[p] = max(peak[p], x)
		}
		for _, t := range s.Queues[anchor] {
			hold(taskPin(t), t, -1)
		}
		for _, ci := range mine[anchor] {
			hold(on[ci][p], nil, ci)
		}
	}
	return peak
}
