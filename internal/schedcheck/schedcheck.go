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
//  4. DMA claim discipline: a bounded exhaustive exploration of the
//     claim/commit/settle state machine over the plan's opening
//     transfer sequence proves the every-resident-claim-committed
//     invariant (DESIGN.md §9) for all interleavings of the device
//     workers and their DMA engines.
//
// Where a rendezvous sits in a stream is the planner's decision and
// lives only in sched.Weave; what makes this package an independent
// check on the executor is everything it does with the streams — the
// fixed-point replay, the residency bound, the volume model and the DMA
// exploration share no code with it.
//
// The executor runs Check as a preflight gate (exec.TrainerConfig
// .NoVerify opts out) and calls Liveness and Residency, proofs 1 and 2
// on their own, where it needs just those: before the first step, after
// a device dies, before adopting a retuned plan. cmd/schedcheck exposes
// Check as a CLI.
package schedcheck

import (
	"fmt"
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

	// Mutation seeds a deliberate bug into the DMA model to prove the
	// checker catches it (the analyzers' seeded-violation pattern):
	// "skip-commit" makes the modeled sync swap-in path mark a buffer
	// resident without committing its claim.
	Mutation string

	// Binding maps the plan's (virtual) device d to the physical
	// device Binding[d] whose memory it uses; nil is the identity. The
	// executor re-binds a dead device's stream onto a survivor, so
	// several streams may share one device and their pin demands add
	// up — residency is proven per physical device under this map.
	Binding []int
}

// DMA exploration bounds: the first modelDevices device queues, the
// first modelTasks tasks of each, at most modelMaxStates states.
const (
	modelDevices   = 2
	modelTasks     = 2
	modelMaxStates = 200000
)

// prefetchBudget is the prefetched-byte cap per device: half the
// capacity, exec.VM.StartEngine's default and the ceiling the adaptive
// controller may grow to — so adaptive plans are verified at the worst
// admissible controller state.
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
	// Rule is the invariant class: "plan", "deadlock", "capacity",
	// "swap-volume" or "dma-claim".
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

	// DMAStates is how many distinct claim-machine states the bounded
	// exploration visited.
	DMAStates int
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
	exploreDMA(s, topo, r)
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
	if s.Opts.AdaptivePrefetch && !s.Prefetch {
		// sched.Build sets both; a hand-built schedule may not.
		r.addf("plan", nil, "AdaptivePrefetch set but the schedule's prefetch flag is off")
	}
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
// once by contiguous chunks, and every reducer is a real device. The
// executor trusts these properties — a gap would silently skip
// gradient elements, a bad reducer would orphan chunks — so they are
// proven here, before anything runs.
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
		for _, c := range b.Chunks {
			if c.Member < 0 || c.Member >= len(b.Members) {
				r.addf("plan", nil, "comm bucket %d chunk member %d out of range (%d members)", bi, c.Member, len(b.Members))
				return
			}
			if c.Reducer < 0 || c.Reducer >= s.NGPUs {
				r.addf("plan", nil, "comm bucket %d chunk reducer gpu%d out of range (%d devices)", bi, c.Reducer, s.NGPUs)
			}
			if c.Lo != next[c.Member] || c.Hi <= c.Lo {
				r.addf("plan", nil, "comm bucket %d member %d chunk [%d,%d) not contiguous from element %d",
					bi, c.Member, c.Lo, c.Hi, next[c.Member])
			}
			next[c.Member] = c.Hi
		}
		for mi, ci := range b.Members {
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
// anything: a cursor advances when its head task's dependencies are
// complete, a rendezvous completes when all participants have parked
// at it AND every member's dependencies are met — completing it
// finishes every member at once. (The chunked executor is weaker: it
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

// fixedPoint is the replay loop. It returns the number of tasks
// completed and, when that is not all of them, the blocked heads; a
// non-nil tl receives one span per completed task and a fault-lane
// span per blocked head.
func fixedPoint(tasks []*graph.Task, ws *sched.Streams, tl *trace.Trace) (int, string) {
	depsLeft := make([]int, len(tasks))
	for _, t := range tasks {
		depsLeft[t.ID] = len(t.Deps)
	}
	cursors := make([]int, len(ws.Dev))
	parked := make([]bool, len(ws.Dev)) // arrival at the head rendezvous recorded
	arrived := make([]int, len(ws.Parties))
	rdvDone := make([]bool, len(ws.Parties))
	step := 0
	span := func(d int, t *graph.Task) {
		if tl != nil {
			tl.Add(hw.DeviceID(d), trace.Compute, t.String(), sim.Time(step), sim.Time(step+1))
		}
	}
	membersLeft := func(ri int) int {
		left := 0
		for _, m := range ws.Members[ri] {
			left += depsLeft[m.ID]
		}
		return left
	}
	done := 0
	for progress := true; done < len(tasks) && progress; {
		progress = false
		for d, st := range ws.Dev {
			for cursors[d] < len(st) {
				e := st[cursors[d]]
				if e.Rdv >= 0 {
					if !parked[d] {
						parked[d] = true
						arrived[e.Rdv]++
						progress = true
					}
					if !rdvDone[e.Rdv] {
						if arrived[e.Rdv] < ws.Parties[e.Rdv] || membersLeft(e.Rdv) > 0 {
							break // parked at the rendezvous
						}
						rdvDone[e.Rdv] = true
						// The rendezvous completes once; show the span on
						// every participant — all are parked at it — so the
						// rendezvous ordering is visible.
						for p := 0; p < ws.Parties[e.Rdv]; p++ {
							span(p, e.Task)
						}
						step++
						for _, m := range ws.Members[e.Rdv] {
							for _, succ := range m.Succs {
								depsLeft[succ.ID]--
							}
						}
						done += len(ws.Members[e.Rdv])
						progress = true
					}
					parked[d] = false
					cursors[d]++
					continue
				}
				if depsLeft[e.Task.ID] > 0 {
					break
				}
				for _, succ := range e.Task.Succs {
					depsLeft[succ.ID]--
				}
				span(d, e.Task)
				step++
				done++
				cursors[d]++
				progress = true
			}
		}
	}
	if done == len(tasks) {
		return done, ""
	}
	var stuck []string
	for d, st := range ws.Dev {
		if cursors[d] >= len(st) {
			continue
		}
		e := st[cursors[d]]
		why := fmt.Sprintf("%d deps left", depsLeft[e.Task.ID])
		if e.Rdv >= 0 {
			if left := membersLeft(e.Rdv); left > 0 {
				why = fmt.Sprintf("%d member deps left", left)
			} else {
				why = fmt.Sprintf("rendezvous %d/%d arrived", arrived[e.Rdv], ws.Parties[e.Rdv])
			}
		}
		stuck = append(stuck, fmt.Sprintf("gpu%d@%s(%s)", d, e.Task, why))
		if tl != nil {
			tl.Add(hw.DeviceID(d), trace.Fault, "!"+e.Task.String()+" "+why, sim.Time(step), sim.Time(step+1))
		}
	}
	return done, fmt.Sprintf("%d/%d tasks completable; blocked: %s", done, len(tasks), strings.Join(stuck, ", "))
}

// pinPeak is a pinned-byte bound and, when one task alone explains it,
// that task: idx is its position in plan device dev's queue (-1 for a
// collective).
type pinPeak struct {
	bytes    int64
	t        *graph.Task
	dev, idx int
}

// checkResidency symbolically computes each physical device's peak
// pinned bytes and rejects plans that cannot fit. This is the bound the
// executor's VM lives under: one task in flight per stream (its inputs,
// outputs and workspace pinned together), summed over the streams
// topo.Binding puts on the device, and, during a monolithic collective,
// the per-device buffers of all parked participants. Chunked plans
// (Schedule.Comm) overlap collectives with compute instead of parking,
// so each worker may simultaneously hold either its largest task pin or
// its largest assigned member's replica views — per physical device,
// the demands sum across workers rather than max. Conservative by
// design: it assumes every worker holds its worst case at once, so it
// never passes a binding the VM could fail on. The prefetch budget is
// reported as expected steady-state residency but never gates — the
// async engine only ever claims spare capacity.
func checkResidency(s *sched.Schedule, topo Topology, r *Report) {
	worst := make([]pinPeak, s.NGPUs) // per stream
	for d, q := range s.Queues {
		for i, t := range q {
			var pin int64
			for _, in := range t.Inputs {
				pin += in.Bytes
			}
			for _, out := range t.Outputs {
				pin += out.Bytes
			}
			pin += t.WorkspaceBytes
			if pin > worst[d].bytes {
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
		for d, w := range worst {
			// chunkPin[p] = worst member view demand worker d can pin
			// on device p at once (a chunk reduction pins all replica
			// views of its member, each on its home device).
			chunkPin := make([]int64, topo.Devices)
			for _, b := range s.Comm {
				for mi, ci := range b.Members {
					mine := false
					for _, c := range b.Chunks {
						if c.Member == mi && c.Reducer == d {
							mine = true
							break
						}
					}
					if !mine {
						continue
					}
					member := make([]int64, topo.Devices)
					views(member, s.Collectives[ci].Inputs)
					for p, v := range member {
						chunkPin[p] = max(chunkPin[p], v)
					}
				}
			}
			for p := range peak {
				if p == topo.phys(d) {
					peak[p].bytes += max(chunkPin[p], w.bytes)
				} else {
					peak[p].bytes += chunkPin[p]
				}
			}
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
	if s.Prefetch {
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
