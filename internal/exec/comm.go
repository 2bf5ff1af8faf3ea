// Chunked collective execution. The scheduler's comm plan
// (sched.Schedule.Comm) fixes bucket membership, chunk boundaries and
// reducer assignment at plan time; this file derives the runtime view
// the executors consume — per-device chunk lists in member order for
// reduceBucket, and each collective's chunks for book — books a
// collective's link time the moment its gradient exists on every
// replica, and runs the per-range reduction, whose math is nn.Average,
// or nn.AverageSGD when the plan's reductions apply the update
// (sched.Schedule.FusedUpdate): on a chunked SGD plan the worker that
// reduces a chunk updates that range of every replica's weights once,
// and the replicas' Update tasks run no kernel.
package exec

import (
	"fmt"
	"time"

	"harmony/internal/fault"
	"harmony/internal/graph"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/trace"
)

// commPlan is a chunked plan's runtime view, built once per plan
// (install); the members of bucket bi, in plan order, are the woven
// streams' (sched.Streams.Members), bucket bi being rendezvous bi.
type commPlan struct {
	// byDev[bi][d] lists the chunks of bucket bi device worker d
	// reduces, member-major then ascending offset — the iteration order
	// of reduceBucket.
	byDev [][][]sched.CommChunk
	// of[id] lists collective task id's chunks in ascending offset: what
	// book reserves and the executor's per-run countdown counts. Nil for
	// every other task.
	of [][]sched.CommChunk
}

// buildCommPlan derives the runtime comm plan from a schedule, or nil
// when the schedule has no comm plan (monolithic rendezvous).
func buildCommPlan(s *sched.Schedule) *commPlan {
	if s.Comm == nil {
		return nil
	}
	plan := &commPlan{
		byDev: make([][][]sched.CommChunk, len(s.Comm)),
		of:    make([][]sched.CommChunk, len(s.Graph.Tasks)),
	}
	for bi, b := range s.Comm {
		plan.byDev[bi] = make([][]sched.CommChunk, s.NGPUs)
		for _, c := range b.Chunks {
			plan.byDev[bi][c.Reducer] = append(plan.byDev[bi][c.Reducer], c)
			id := s.Collectives[b.Members[c.Member]].ID
			plan.of[id] = append(plan.of[id], c)
		}
	}
	return plan
}

// CommStats reports collective counters: how many chunk reductions ran
// and the total bytes they reduced (per-replica payload), both zero on
// monolithic plans; and WaitNanos, the modeled time the tasks that read
// a reduction's result waited for its link time — the part of it that
// nothing hid. Each collective adds its longest-waiting reader's wait;
// zero when no link is modeled.
type CommStats struct {
	ChunksReduced int64
	BytesReduced  int64
	WaitNanos     int64
}

// CommStats returns the collective counters accumulated so far. Safe to
// call between steps (same contract as Stats).
func (tr *Trainer) CommStats() CommStats { return tr.commStats }

// book reserves collective c's link time the moment it becomes ready —
// its last dependency complete, so its gradient exists on every replica
// — and stamps the latest end on the updates that read the result
// (taskState.stamp). Each chunk of a chunked collective goes on its
// plan-time reducer's link; a whole payload goes on replica 0's device's
// link, since its reducer, the last to arrive, varies from run to run.
// So the link timeline is a function of the plan and of readiness, not
// of when a reducer's worker gets the CPU. Nobody waits here: the
// updates owe the wait (Trainer.await). Each reservation is the range's
// trace span; with no link modeled there is none, and reduce records
// the work's wall interval instead.
func (tr *Trainer) book(c *graph.Task) {
	var end time.Time
	if tr.comm == nil {
		end = tr.reserveReduce(c, tr.pdev(0), 0, int(c.CommBytes/4), false)
	} else {
		for _, k := range tr.comm.of[c.ID] {
			if e := tr.reserveReduce(c, tr.pdev(k.Reducer), k.Lo, k.Hi, true); e.After(end) {
				end = e
			}
		}
	}
	tr.tasks.stamp(c, end)
}

// reserveReduce books the range [lo, hi) of collective c — one chunk, or
// its whole payload — on device dev's link and records the reservation
// as the range's span. Returns its end, the zero time when no link is
// modeled.
func (tr *Trainer) reserveReduce(c *graph.Task, dev, lo, hi int, chunk bool) time.Time {
	start, end := tr.vm.chargeReduce(dev, len(c.Inputs), int64(hi-lo)*4)
	if r := tr.rec; r != nil && !end.IsZero() {
		r.add(dev, trace.Comms, commLabel(c, lo, hi, chunk), start, end)
	}
	return end
}

// commLabel names a reduced range on the comms lane: AR[Lx][lo:hi] for
// a chunk, AR[Lx] for a whole payload.
func commLabel(c *graph.Task, lo, hi int, chunk bool) string {
	if !chunk {
		return c.String()
	}
	return fmt.Sprintf("%s[%d:%d]", c, lo, hi)
}

// reduce averages the element range [lo, hi) of AllReduce ar across
// all replicas (real math: the buffers end up identical on every
// device), on behalf of device worker dev — the one reduction both
// rendezvous share; on a plan whose reductions apply the update it
// updates the range of every replica's weights too (reduceUpdate).
// chunk says the range is one plan-time chunk, counted as such;
// otherwise it is a rendezvous's whole payload, and dev the device whose
// arrival completed it. nn.Average and nn.AverageSGD fan the range
// across the kernel worker pool over disjoint sub-ranges; each element
// still sums the replicas in fixed order, so the result is
// bit-identical at any worker count and under any partition into
// chunks. Each call is an independent unit of fault injection and
// recovery: a fatal fault here retires the reducing worker's physical
// device through the usual rollback-and-resume path.
//
// reduce books no link time: book reserved the range when ar became
// ready.
func (tr *Trainer) reduce(dev int, ar *graph.Task, lo, hi int, chunk bool) error {
	if ar.Kind != graph.AllReduce {
		return fmt.Errorf("exec: unsupported collective kind %v", ar.Kind)
	}
	n := len(ar.Inputs)
	if n == 0 {
		return fmt.Errorf("exec: collective %s has no inputs", ar)
	}
	reducer := tr.pdev(dev)
	if err := tr.injectOp(fault.Collective, reducer, ar.Layer); err != nil {
		return err
	}
	wall := tr.vm.clk.Now()
	views := tr.views[dev][:2*n]
	defer clear(views) // keep no device slice past its pins
	gs, ws := views[:n], views[n:]
	if err := tr.acquire(ar, reducer, gs, nil); err != nil {
		return err
	}
	inv := float32(1) / float32(n)
	if tr.s.FusedUpdate() {
		if err := tr.reduceUpdate(ar, gs, ws, lo, hi, inv); err != nil {
			return err
		}
	} else {
		nn.Average(gs, lo, hi, inv)
	}
	if chunk {
		tr.commMu.Lock()
		tr.commStats.ChunksReduced++
		tr.commStats.BytesReduced += int64(hi-lo) * 4
		tr.commMu.Unlock()
	}
	if err := tr.release(ar, nil); err != nil {
		return err
	}
	if r := tr.rec; r != nil && tr.vm.cfg.bps <= 0 {
		// No reservation to show (book): like a copy's, the span is the
		// wall interval of the work, on the link book would have used.
		dev := tr.pdev(0)
		if chunk {
			dev = reducer
		}
		r.add(dev, trace.Comms, commLabel(ar, lo, hi, chunk), wall, tr.vm.clk.Now())
	}
	return nil
}

// reduceUpdate is reduce's kernel on a plan whose reductions apply the
// update (sched.Schedule.FusedUpdate): it pins every replica's weights
// for ar's layer on that replica's device, beside the gradient views gs
// the caller pinned, and nn.AverageSGD stores the updated range into
// every ws view and +0 into every gs view. Each weight is marked dirty
// while still pinned: a page that is clean and unpinned may be dropped
// at any moment, and one dropped between this write and its Update's pin
// would lose the update. On error the pins taken so far stay behind, as
// acquire's do.
func (tr *Trainer) reduceUpdate(ar *graph.Task, gs, ws [][]float32, lo, hi int, inv float32) error {
	var err error
	for i := range ws {
		w := tr.g.W[i][ar.Layer]
		if w.Bytes == 0 {
			continue
		}
		if ws[i], err = tr.vm.Ensure(tr.pdev(i), w); err != nil {
			return err
		}
	}
	nn.AverageSGD(gs, ws, lo, hi, inv, tr.cfg.LR)
	for i := range ws {
		w := tr.g.W[i][ar.Layer]
		if w.Bytes == 0 {
			continue
		}
		if err := tr.vm.MarkDirty(w); err != nil {
			return err
		}
		if err := tr.vm.Unpin(w); err != nil {
			return err
		}
	}
	return nil
}
