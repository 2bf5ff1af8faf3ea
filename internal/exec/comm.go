// Collective execution. The scheduler fixes every collective's
// communication at plan time: on a chunked plan (sched.Schedule.Comm)
// bucket membership, chunk boundaries and reducers; on a monolithic one
// each AllReduce is one range [0, n) whose reducer is replica 0. This
// file derives the runtime view the executors consume from either —
// per-device range lists in member order for reduceBucket, and each
// collective's ranges for book and reduceWhole — books a collective's
// link time, every range on its reducer's link, and runs the per-range
// reduction, whose math is nn.Average, or nn.AverageSGD when the plan's
// reductions apply the update (sched.Schedule.FusedUpdate): on a chunked
// SGD plan the worker that reduces a chunk updates that range of every
// replica's weights once, and the replicas' Update tasks run no kernel.
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

// commPlan is a plan's runtime view of its collectives, built once per
// plan (install); the members of bucket bi, in plan order, are the woven
// streams' (sched.Streams.Members), bucket bi being rendezvous bi — on a
// monolithic plan, collective bi alone.
type commPlan struct {
	// byDev[bi][d] lists the ranges of bucket bi device worker d
	// reduces, member-major then ascending offset — the iteration order
	// of reduceBucket.
	byDev [][][]sched.CommChunk
	// of[id] lists collective task id's ranges in ascending offset: what
	// book reserves, reduceWhole reduces and the executor's per-step
	// countdown counts. Nil for every other task.
	of [][]sched.CommChunk
}

// buildCommPlan derives the runtime view from a schedule: its comm
// plan's chunks, or on a monolithic plan one range [0, n) per
// collective, reduced by replica 0.
func buildCommPlan(s *sched.Schedule) *commPlan {
	buckets := s.Comm
	if buckets == nil {
		buckets = make([]sched.CommBucket, len(s.Collectives))
		for ci, c := range s.Collectives {
			buckets[ci] = sched.CommBucket{
				Members: []int{ci},
				Chunks:  []sched.CommChunk{{Hi: int(c.CommBytes / 4)}},
			}
		}
	}
	plan := &commPlan{
		byDev: make([][][]sched.CommChunk, len(buckets)),
		of:    make([][]sched.CommChunk, len(s.Graph.Tasks)),
	}
	for bi, b := range buckets {
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
// and the total bytes they reduced (per-replica payload), on either
// executor, both zero on monolithic plans; and WaitNanos, the modeled
// time the tasks that read a reduction's result waited for its link
// time — the part of it that nothing hid. Each collective adds its
// longest-waiting reader's wait; zero when no link is modeled.
type CommStats struct {
	ChunksReduced int64
	BytesReduced  int64
	WaitNanos     int64
}

// CommStats returns the collective counters accumulated so far. Safe to
// call between steps (same contract as Stats).
func (tr *Trainer) CommStats() CommStats { return tr.commStats }

// book reserves collective c's link time, each of its ranges on its
// plan-time reducer's link, and stamps the latest end on the updates
// that read the result (taskState.stamp). It runs the moment c becomes
// ready, its gradient existing on every replica: a chunked collective's
// when its last dependency completes (executor.complete), a rendezvous
// that one worker completes at that worker's arrival (reduceWhole). So
// the link timeline is a function of the plan and of readiness, not of
// when a reducer's worker gets the CPU. Nobody waits here: the updates
// owe the wait (Trainer.await). Each reservation is its range's trace
// span; with no link modeled there is none, and reduce records the
// work's wall interval instead.
func (tr *Trainer) book(c *graph.Task) {
	var end time.Time
	for _, k := range tr.comm.of[c.ID] {
		dev := tr.pdev(k.Reducer)
		start, e := tr.vm.chargeReduce(dev, len(c.Inputs), int64(k.Hi-k.Lo)*4)
		if r := tr.rec; r != nil && !e.IsZero() {
			r.add(dev, trace.Comms, tr.commLabel(c, k), start, e)
		}
		if e.After(end) {
			end = e
		}
	}
	tr.tasks.stamp(c, end)
}

// commLabel names a reduced range on the comms lane and in errors:
// AR[Lx][lo:hi] for a chunk, AR[Lx] on a monolithic plan.
func (tr *Trainer) commLabel(c *graph.Task, k sched.CommChunk) string {
	if tr.s.Comm == nil {
		return c.String()
	}
	return fmt.Sprintf("%s[%d:%d]", c, k.Lo, k.Hi)
}

// reduceWhole books collective m and reduces each of its ranges on
// behalf of device worker d, the worker whose arrival completed the
// rendezvous: the monolithic barrier's last arrival (arrive) and every
// rendezvous of the serial executor (runSerial). m's dependencies are
// complete. d is the fault site and the scratch slot; the plan's
// reducers only own the links.
func (tr *Trainer) reduceWhole(d int, m *graph.Task) error {
	tr.book(m)
	for _, k := range tr.comm.of[m.ID] {
		if err := tr.reduce(d, m, k); err != nil {
			return fmt.Errorf("exec: %s: %w", tr.commLabel(m, k), err)
		}
	}
	return nil
}

// reduce averages range k of AllReduce ar across all replicas (real
// math: the buffers end up identical on every device), on behalf of
// device worker dev; on a plan whose reductions apply the update it
// updates the range of every replica's weights too (reduceUpdate). A
// chunk is counted in CommStats. nn.Average and nn.AverageSGD fan the
// range across the kernel worker pool over disjoint sub-ranges; each
// element still sums the replicas in fixed order, so the result is
// bit-identical at any worker count and under any partition into
// ranges. Each call is an independent unit of fault injection and
// recovery: a fatal fault here retires dev's physical device through the
// usual rollback-and-resume path.
//
// reduce books no link time: book reserved the range when ar became
// ready.
func (tr *Trainer) reduce(dev int, ar *graph.Task, k sched.CommChunk) error {
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
		if err := tr.reduceUpdate(ar, gs, ws, k.Lo, k.Hi, inv); err != nil {
			return err
		}
	} else {
		nn.Average(gs, k.Lo, k.Hi, inv)
	}
	if tr.s.Comm != nil {
		tr.commMu.Lock()
		tr.commStats.ChunksReduced++
		tr.commStats.BytesReduced += int64(k.Hi-k.Lo) * 4
		tr.commMu.Unlock()
	}
	if err := tr.release(ar); err != nil {
		return err
	}
	if r := tr.rec; r != nil && tr.vm.cfg.bps <= 0 {
		// No reservation to show (book): like a copy's, the span is the
		// wall interval of the work, on the link book would have used.
		r.add(tr.pdev(k.Reducer), trace.Comms, tr.commLabel(ar, k), wall, tr.vm.clk.Now())
	}
	return nil
}

// reduceUpdate is reduce's kernel on a plan whose reductions apply the
// update (sched.Schedule.FusedUpdate): it pins every replica's weights
// for ar's layer on that replica's device, beside the gradient views gs
// the caller pinned, and nn.AverageSGD stores the updated range into
// every ws view and leaves the gs views for the next backward to
// overwrite, as the Update's mark says (runRun). Each weight is marked dirty
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
