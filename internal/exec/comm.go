// Chunked collective execution. The scheduler's comm plan
// (sched.Schedule.Comm) fixes bucket membership, chunk boundaries and
// reducer assignment at plan time; this file derives the runtime view
// the executor's reduceBucket path consumes — per-device chunk lists
// in member order plus per-member chunk counts — and runs the per-chunk
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

// commBucketRT is one bucket's runtime view; its members, in plan
// order, are the woven streams' (sched.Streams.Members), bucket bi
// being rendezvous bi.
type commBucketRT struct {
	// byDev[d] lists the chunks device worker d reduces, member-major
	// then ascending offset — the iteration order of reduceBucket.
	byDev [][]sched.CommChunk
	// chunksPerMember seeds the executor's per-run countdown; the
	// worker that retires a member's last chunk completes the task.
	chunksPerMember []int32
}

// buildCommPlan derives the runtime comm plan from a schedule, or nil
// when the schedule has no comm plan (monolithic rendezvous).
func buildCommPlan(s *sched.Schedule) []commBucketRT {
	if s.Comm == nil {
		return nil
	}
	plan := make([]commBucketRT, len(s.Comm))
	for bi, b := range s.Comm {
		rt := commBucketRT{
			byDev:           make([][]sched.CommChunk, s.NGPUs),
			chunksPerMember: make([]int32, len(b.Members)),
		}
		for _, c := range b.Chunks {
			rt.byDev[c.Reducer] = append(rt.byDev[c.Reducer], c)
			rt.chunksPerMember[c.Member]++
		}
		plan[bi] = rt
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

// reduce averages the element range [lo, hi) of AllReduce ar across
// all replicas (real math: the buffers end up identical on every
// device), on behalf of device worker dev — the one reduction both
// rendezvous share; on a plan whose reductions apply the update it
// updates the range of every replica's weights too (reduceUpdate).
// chunk says the range is one plan-time chunk, traced and counted as
// such; otherwise it is a rendezvous's whole payload, and dev the
// device whose arrival completed it. nn.Average and nn.AverageSGD fan
// the range across the kernel worker pool over disjoint sub-ranges;
// each element still sums the replicas in fixed order, so the result is
// bit-identical at any worker count and under any partition into
// chunks. Each call is an
// independent unit of fault injection and recovery: a fatal fault here
// retires the reducing worker's physical device through the usual
// rollback-and-resume path.
//
// The range's remote traffic is booked, with its trace span, on a
// modeled link fixed by the plan — a chunk's reducer's, replica 0's for
// a whole payload — and not waited for: reduce returns the
// reservation's end (the zero time when no link is modeled), which the
// caller stamps on the collective's readers (taskState.stamp).
func (tr *Trainer) reduce(dev int, ar *graph.Task, lo, hi int, chunk bool) (time.Time, error) {
	if ar.Kind != graph.AllReduce {
		return time.Time{}, fmt.Errorf("exec: unsupported collective kind %v", ar.Kind)
	}
	n := len(ar.Inputs)
	if n == 0 {
		return time.Time{}, fmt.Errorf("exec: collective %s has no inputs", ar)
	}
	reducer := tr.pdev(dev)
	if err := tr.injectOp(fault.Collective, reducer, ar.Layer); err != nil {
		return time.Time{}, err
	}
	// A chunk's link time is booked on its plan-time reducer's link. A
	// whole payload's reducer is whichever replica arrived last, so it is
	// booked on replica 0's device instead, and identical runs busy
	// identical links.
	pdev := tr.pdev(0)
	if chunk {
		pdev = reducer
	}
	wall := tr.vm.clk.Now()
	views := tr.views[dev][:2*n]
	defer clear(views) // keep no device slice past its pins
	gs, ws := views[:n], views[n:]
	if err := tr.acquire(ar, reducer, gs, nil); err != nil {
		return time.Time{}, err
	}
	start, end := tr.vm.chargeReduce(pdev, n, int64(hi-lo)*4)
	inv := float32(1) / float32(n)
	if tr.s.FusedUpdate() {
		if err := tr.reduceUpdate(ar, gs, ws, lo, hi, inv); err != nil {
			return time.Time{}, err
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
		return time.Time{}, err
	}
	if r := tr.rec; r != nil {
		// Like a copy's, the span is the link reservation when there is
		// one, the wall interval of the work when there is not.
		if end.IsZero() {
			start, end = wall, tr.vm.clk.Now()
		}
		label := ar.String()
		if chunk {
			label = fmt.Sprintf("%s[%d:%d]", ar, lo, hi)
		}
		r.add(pdev, trace.Comms, label, start, end)
	}
	return end, nil
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
