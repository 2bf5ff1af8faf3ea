// Seeded plan bugs. Like the analyzers' seeded-violation fixtures,
// these exist to prove the checker rejects what it claims to reject:
// each injector takes a valid schedule and perturbs it into a specific
// violation class, used by the package tests and cmd/schedcheck
// -inject, whose tests run each injection through the CLI.
package schedcheck

import (
	"fmt"

	"harmony/internal/graph"
	"harmony/internal/sched"
)

// InjectRendezvousCycle perturbs a data-parallel schedule so two
// devices meet the same pair of collectives in opposite orders: it
// swaps the last two Update tasks on device 1, which inverts the
// anchors of their AllReduces relative to device 0. The woven streams
// still satisfy every static precedence rule — only the rendezvous
// replay exposes the cycle (device 0 parked at one collective, device
// 1 at the other, neither able to complete).
func InjectRendezvousCycle(s *sched.Schedule) error {
	if s.NGPUs < 2 {
		return fmt.Errorf("inject: rendezvous cycle needs >=2 devices")
	}
	if s.Opts.JIT {
		return fmt.Errorf("inject: rendezvous cycle needs a non-JIT plan (updates at the tail)")
	}
	q := s.Queues[1]
	var upds []int
	for i, t := range q {
		if t.Kind == graph.Update {
			upds = append(upds, i)
		}
	}
	if len(upds) < 2 {
		return fmt.Errorf("inject: need >=2 update tasks on gpu1, have %d", len(upds))
	}
	a, b := upds[len(upds)-2], upds[len(upds)-1]
	q[a], q[b] = q[b], q[a]
	return nil
}

// InjectVolumeSkew relocates every Update task to sit immediately
// after the last Backward of its layer on the same device. The plan
// stays deadlock-free — dependencies and rendezvous still resolve —
// but the bwd→upd adjacency merges one weight run per layer, so the
// structural swap volume no longer matches the baseline closed form
// the plan's toggles declare. This is exactly the divergence the
// swap-volume cross-check exists to catch: a planner emitting a
// different queue shape than its declared profile.
func InjectVolumeSkew(s *sched.Schedule) error {
	if s.Opts.JIT {
		return fmt.Errorf("inject: volume skew needs a non-JIT plan")
	}
	moved := false
	for d, q := range s.Queues {
		var compute []*graph.Task
		upd := make(map[int]*graph.Task) // layer → update task
		for _, t := range q {
			if t.Kind == graph.Update {
				upd[t.Layer] = t
				continue
			}
			compute = append(compute, t)
		}
		if len(upd) == 0 {
			continue
		}
		lastBwd := make(map[int]int) // layer → index in compute
		for i, t := range compute {
			if t.Kind == graph.Backward {
				lastBwd[t.Layer] = i
			}
		}
		out := make([]*graph.Task, 0, len(q))
		for i, t := range compute {
			out = append(out, t)
			if t.Kind == graph.Backward && lastBwd[t.Layer] == i {
				if u, ok := upd[t.Layer]; ok {
					out = append(out, u)
					delete(upd, t.Layer)
					moved = true
				}
			}
		}
		for _, t := range q { // any updates without a backward: keep tail order
			if t.Kind == graph.Update {
				if u, ok := upd[t.Layer]; ok {
					out = append(out, u)
					delete(upd, t.Layer)
				}
			}
		}
		s.Queues[d] = out
	}
	if !moved {
		return fmt.Errorf("inject: no update task found to relocate")
	}
	return nil
}
