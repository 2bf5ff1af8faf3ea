// The plan's last step: weaving collective rendezvous into the device
// queues and cutting the compute between them into runs. The Streams
// built here are what the device workers run (exec) and what the
// verifier proves (schedcheck), so the anchor rule and the run rule
// exist once. Replay, beside it, is the one drain of those streams
// without goroutines: the verifier's liveness proof and the serial
// reference executor both walk its order, so the reference runs
// exactly what was proven.
//
// Weave is called by those consumers, not by Build: the simulator
// launches collectives as their dependencies complete and never needs
// the woven form.
package sched

import (
	"fmt"

	"harmony/internal/graph"
)

// StreamEntry is one slot of a device's woven stream: a run of compute
// tasks from the schedule queue (Rdv < 0) or a rendezvous, in which case
// Rdv indexes Streams.Members/Parties. Task labels the entry in traces
// and counterexamples: a run's first member, a rendezvous's first
// member.
//
// A run is a maximal sequence of consecutive Forward (or Backward)
// tasks of one queue with the same replica and layer and no rendezvous
// between them: a wave's microbatches of one layer, which the queue
// already lays back to back (input-batch grouping, Options.GroupSize).
// A backward run may be closed by the layer's Update queued right after
// it (closes): the paper's just-in-time update, applied by the run's
// last kernel call while W and dW are still in cache. Every other task
// is a run of one. The executor runs a run as one kernel call over all
// its members' rows; no backward or forward member depends on another,
// since a layer's tasks depend only on the layers beside it, and a
// closing Update depends on members, which a run's readiness does not
// count (Replay). Run is a slice of the queue, Run[0] == Task; a
// rendezvous has none.
type StreamEntry struct {
	Task *graph.Task
	Run  []*graph.Task
	Rdv  int
}

// Kernel is the run's members less the Update that closes it, if one
// does (closes): the members whose rows the run's kernel call takes. A
// run is closed when Kernel is the shorter.
func (e StreamEntry) Kernel() []*graph.Task {
	if n := len(e.Run); n > 1 && e.Run[n-1].Kind == graph.Update {
		return e.Run[:n-1]
	}
	return e.Run
}

// Label names the entry in traces and counterexamples: its task, or a
// run of more than one as its kind, replica, layer and microbatch span,
// and "+UPD" after a run the layer's Update closes.
func (e StreamEntry) Label() string {
	run, upd := e.Kernel(), ""
	if len(run) < len(e.Run) {
		upd = "+UPD"
	}
	if len(run) < 2 {
		return e.Task.String() + upd
	}
	last := run[len(run)-1]
	return fmt.Sprintf("%s[r%d,L%d,mb%d..%d]%s", e.Task.Kind, e.Task.Replica, e.Task.Layer, e.Task.Microbatch, last.Microbatch, upd)
}

// joins reports whether queued task b extends the run a closes: both
// Forward, or both Backward, of one replica's layer.
func joins(a, b *graph.Task) bool {
	return a.Kind == b.Kind && (a.Kind == graph.Forward || a.Kind == graph.Backward) &&
		a.Replica == b.Replica && a.Layer == b.Layer
}

// closes reports whether queued task u closes the backward run a ends:
// u is the Update of a's replica and layer, it reads only what backward
// tasks wrote — no collective's result, so a single-replica plan — and
// the optimizer keeps no state (the test FusedUpdate makes), so its
// footprint is the run's W and dW.
func (s *Schedule) closes(a, u *graph.Task) bool {
	if u.Kind != graph.Update || a.Kind != graph.Backward || a.Replica != u.Replica || a.Layer != u.Layer ||
		s.Graph.Cfg.Model.OptStateParamsFactor != 0 {
		return false
	}
	for _, dep := range u.Deps {
		if dep.Kind != graph.Backward {
			return false
		}
	}
	return true
}

// Streams is a schedule with its rendezvous woven in. A rendezvous
// covers one collective on monolithic plans and one whole comm bucket
// on chunked plans (Schedule.Comm).
type Streams struct {
	// Dev[d] is device d's execution stream.
	Dev [][]StreamEntry
	// Members[i] lists rendezvous i's collectives in plan order;
	// Parties[i] is how many devices meet there. Participant k of a
	// collective is device k — replica (or shard) k's tensors live
	// there.
	Members [][]*graph.Task
	Parties []int
}

// Weave inserts each rendezvous into the stream of every participating
// device. Where it lands is the whole overlap story:
//
//   - monolithic (no comm plan): just before the earliest member
//     successor on the device — the all-park barrier runs as late as
//     the schedule allows;
//   - chunked (Schedule.Comm): just after the last member dependency
//     on the device — the earliest point the member gradients exist.
//     The scheduler defers the bucket's updates past the next bucket's
//     backwards (commUpdateGroups), so the entries behind the anchor
//     are compute: a worker that finishes its chunks departs into
//     backward work while other workers still reduce.
//
// A plan whose queues leave no legal anchor (a member dependency
// behind a member successor on one device) or whose rendezvous members
// disagree on their party count is rejected. Weave assumes one queue
// per device and a comm plan that indexes Collectives in range, which
// Build guarantees and schedcheck proves for hand-built schedules
// before weaving.
func Weave(s *Schedule) (*Streams, error) {
	// dev/idx locate every queued task; collectives stay at dev -1.
	dev := make([]int, len(s.Graph.Tasks))
	idx := make([]int, len(s.Graph.Tasks))
	for i := range dev {
		dev[i] = -1
	}
	for d, q := range s.Queues {
		for i, t := range q {
			dev[t.ID], idx[t.ID] = d, i
		}
	}
	ws := &Streams{Dev: make([][]StreamEntry, s.NGPUs)}
	if s.Comm != nil {
		for _, b := range s.Comm {
			members := make([]*graph.Task, len(b.Members))
			for i, ci := range b.Members {
				members[i] = s.Collectives[ci]
			}
			ws.Members = append(ws.Members, members)
		}
	} else {
		for _, c := range s.Collectives {
			ws.Members = append(ws.Members, []*graph.Task{c})
		}
	}
	ws.Parties = make([]int, len(ws.Members))
	// before[d][i] lists the rendezvous device d meets right before
	// queue index i (len(queue) = after the last task).
	before := make([][][]int, s.NGPUs)
	for d, q := range s.Queues {
		before[d] = make([][]int, len(q)+1)
	}
	for ri, members := range ws.Members {
		n := 0
		for _, c := range members {
			if len(c.Inputs) == 0 || len(c.Inputs) > s.NGPUs {
				return nil, fmt.Errorf("sched: collective %s has %d inputs for %d devices", c, len(c.Inputs), s.NGPUs)
			}
			if n != 0 && len(c.Inputs) != n {
				return nil, fmt.Errorf("sched: rendezvous %d members disagree on party count (%d vs %d)", ri, n, len(c.Inputs))
			}
			n = len(c.Inputs)
		}
		ws.Parties[ri] = n
		for d := 0; d < n; d++ {
			// The legal window on this device: after every member
			// dependency (lo), before every member successor (hi).
			lo, hi := 0, len(s.Queues[d])
			var last, first *graph.Task
			for _, c := range members {
				for _, dep := range c.Deps {
					if dev[dep.ID] == d && idx[dep.ID]+1 > lo {
						lo, last = idx[dep.ID]+1, dep
					}
				}
				for _, succ := range c.Succs {
					if dev[succ.ID] == d && idx[succ.ID] < hi {
						hi, first = idx[succ.ID], succ
					}
				}
			}
			if lo > hi {
				return nil, fmt.Errorf("sched: rendezvous %s on gpu%d depends on %s, queued after its successor %s (precedence violation)",
					members[0], d, last, first)
			}
			anchor := hi
			if s.Comm != nil {
				anchor = lo
			}
			before[d][anchor] = append(before[d][anchor], ri)
		}
	}
	for d, q := range s.Queues {
		st := make([]StreamEntry, 0, len(q)+len(ws.Members))
		for i := 0; i <= len(q); {
			for _, ri := range before[d][i] {
				st = append(st, StreamEntry{Task: ws.Members[ri][0], Rdv: ri})
			}
			if i == len(q) {
				break
			}
			j := i + 1
			for j < len(q) && len(before[d][j]) == 0 && joins(q[i], q[j]) {
				j++
			}
			if j < len(q) && len(before[d][j]) == 0 && s.closes(q[j-1], q[j]) {
				j++
			}
			st = append(st, StreamEntry{Task: q[i], Run: q[i:j:j], Rdv: -1})
			i = j
		}
		ws.Dev[d] = st
	}
	return ws, nil
}

// Narrow cuts every run of device d's stream into runs of one, and
// reports whether it cut any. An Update that closed a backward run runs
// alone again: the pair pins no more than its backward, but a device
// whose runs do not fit gets the per-task plan it was admitted at
// before runs, whole.
func (ws *Streams) Narrow(d int) bool {
	st := ws.Dev[d]
	n := 0
	for _, e := range st {
		n += max(len(e.Run), 1)
	}
	if n == len(st) {
		return false
	}
	out := make([]StreamEntry, 0, n)
	for _, e := range st {
		if len(e.Run) < 2 {
			out = append(out, e)
			continue
		}
		for i, t := range e.Run {
			out = append(out, StreamEntry{Task: t, Run: e.Run[i : i+1 : i+1], Rdv: -1})
		}
	}
	ws.Dev[d] = out
	return true
}

// Stuck is a stream head Replay could not move past: device Dev's
// entry and why it waits.
type Stuck struct {
	Dev   int
	Entry StreamEntry
	Why   string
}

func (s Stuck) String() string { return fmt.Sprintf("gpu%d@%s(%s)", s.Dev, s.Entry.Task, s.Why) }

// Replay drains the streams on the calling goroutine: device by device
// in index order, each as far as its dependencies allow, over and over
// until no device can move. A compute entry is visited once every
// member of its run has its dependencies from outside the run done, and
// completing it finishes every member. A rendezvous completes when
// every party has parked at it and every member's dependencies are
// done; it is visited
// once, on the device whose arrival completed it, and completing it
// finishes every member. An error from visit stops the drain and is
// returned. Streams that cannot drain leave their heads in stuck, in
// device order, each with the reason it waits.
func (ws *Streams) Replay(tasks []*graph.Task, visit func(d int, e StreamEntry) error) ([]Stuck, error) {
	// head[id] is the first member of task id's run, its own ID off the
	// streams: an edge between two members of one run is not counted.
	head := make([]int, len(tasks))
	for _, t := range tasks {
		head[t.ID] = t.ID
	}
	for _, st := range ws.Dev {
		for _, e := range st {
			for _, t := range e.Run {
				head[t.ID] = e.Task.ID
			}
		}
	}
	depsLeft := make([]int, len(tasks))
	for _, t := range tasks {
		for _, dep := range t.Deps {
			if head[dep.ID] != head[t.ID] {
				depsLeft[t.ID]++
			}
		}
	}
	finish := func(t *graph.Task) {
		for _, succ := range t.Succs {
			if head[succ.ID] != head[t.ID] {
				depsLeft[succ.ID]--
			}
		}
	}
	left := func(ts []*graph.Task) int {
		n := 0
		for _, t := range ts {
			n += depsLeft[t.ID]
		}
		return n
	}
	cursors := make([]int, len(ws.Dev))
	parked := make([]bool, len(ws.Dev)) // arrival at the head rendezvous recorded
	arrived := make([]int, len(ws.Parties))
	last := make([]int, len(ws.Parties)) // the latest arrival at each rendezvous
	rdvDone := make([]bool, len(ws.Parties))
	for progress := true; progress; {
		progress = false
		for d, st := range ws.Dev {
			for ; cursors[d] < len(st); cursors[d]++ {
				e := st[cursors[d]]
				if e.Rdv < 0 {
					if left(e.Run) > 0 {
						break
					}
					if err := visit(d, e); err != nil {
						return nil, err
					}
					for _, t := range e.Run {
						finish(t)
					}
				} else {
					if !parked[d] {
						parked[d] = true
						arrived[e.Rdv]++
						last[e.Rdv] = d
						progress = true
					}
					if !rdvDone[e.Rdv] {
						if arrived[e.Rdv] < ws.Parties[e.Rdv] || left(ws.Members[e.Rdv]) > 0 {
							break // parked at the rendezvous
						}
						rdvDone[e.Rdv] = true
						if err := visit(last[e.Rdv], e); err != nil {
							return nil, err
						}
						for _, m := range ws.Members[e.Rdv] {
							finish(m)
						}
					}
					parked[d] = false
				}
				progress = true
			}
		}
	}
	var stuck []Stuck
	for d, st := range ws.Dev {
		if cursors[d] == len(st) {
			continue
		}
		e := st[cursors[d]]
		var why string
		switch {
		case e.Rdv < 0:
			why = fmt.Sprintf("%d deps left", left(e.Run))
		case left(ws.Members[e.Rdv]) > 0:
			why = fmt.Sprintf("%d member deps left", left(ws.Members[e.Rdv]))
		default:
			why = fmt.Sprintf("rendezvous %d/%d arrived", arrived[e.Rdv], ws.Parties[e.Rdv])
		}
		stuck = append(stuck, Stuck{d, e, why})
	}
	return stuck, nil
}
