// The plan's last step: weaving collective rendezvous into the device
// queues. The Streams built here are what the device workers run (exec)
// and what the verifier proves (schedcheck), so the anchor rule exists
// once.
//
// Weave is called by those consumers, not by Build: the simulator
// launches collectives as their dependencies complete and never needs
// the woven form.
package sched

import (
	"fmt"

	"harmony/internal/graph"
)

// StreamEntry is one slot of a device's woven stream: a compute task
// from the schedule queue (Rdv < 0) or a rendezvous, in which case Rdv
// indexes Streams.Members/Parties and Task is the rendezvous's first
// member (the label used in traces and counterexamples).
type StreamEntry struct {
	Task *graph.Task
	Rdv  int
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
		for i := 0; i <= len(q); i++ {
			for _, ri := range before[d][i] {
				st = append(st, StreamEntry{Task: ws.Members[ri][0], Rdv: ri})
			}
			if i < len(q) {
				st = append(st, StreamEntry{Task: q[i], Rdv: -1})
			}
		}
		ws.Dev[d] = st
	}
	return ws, nil
}
