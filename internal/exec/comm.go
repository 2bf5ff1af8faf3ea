// Chunked collective execution. The scheduler's comm plan
// (sched.Schedule.Comm) fixes bucket membership, chunk boundaries and
// reducer assignment at plan time; this file derives the runtime view
// the executor's reduceBucket path consumes — per-device chunk lists
// in member order plus per-member chunk counts — and implements the
// per-chunk reduction itself.
package exec

import (
	"fmt"

	"harmony/internal/fault"
	"harmony/internal/graph"
	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/trace"
)

// commBucketRT is one bucket's runtime view.
type commBucketRT struct {
	// members are the bucket's collective tasks in plan order
	// (descending layer, mirroring backward completion).
	members []*graph.Task
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
			members:         make([]*graph.Task, len(b.Members)),
			byDev:           make([][]sched.CommChunk, s.NGPUs),
			chunksPerMember: make([]int32, len(b.Members)),
		}
		for i, ci := range b.Members {
			rt.members[i] = s.Collectives[ci]
		}
		for _, c := range b.Chunks {
			rt.byDev[c.Reducer] = append(rt.byDev[c.Reducer], c)
			rt.chunksPerMember[c.Member]++
		}
		plan[bi] = rt
	}
	return plan
}

// CommStats reports chunked-collective counters: how many chunk
// reductions ran and the total bytes they reduced (per-replica
// payload). Zero on monolithic plans.
type CommStats struct {
	ChunksReduced int64
	BytesReduced  int64
}

// CommStats returns the chunked-collective counters accumulated so
// far. Safe to call between steps (same contract as Stats).
func (tr *Trainer) CommStats() CommStats { return tr.commStats }

// reduce averages the element range [lo, hi) of AllReduce ar across
// all replicas (real math: the buffers end up identical on every
// device), on behalf of device worker dev — the one reduction both
// rendezvous share. chunk says the range is one plan-time chunk, traced
// and counted as such; otherwise it is the whole payload of a monolithic
// rendezvous, where dev is the last arrival (-1 on the serial path,
// where a fatal collective fault has no single device to retire and is
// therefore unrecoverable). The range fans across the kernel worker
// pool over disjoint sub-ranges; each element still sums the replicas
// in fixed order, so the result is bit-identical at any worker count
// and under any partition into chunks. Each call is an independent unit
// of fault injection and recovery: a fatal fault here retires the
// reducing worker's physical device through the usual
// rollback-and-resume path.
func (tr *Trainer) reduce(dev int, ar *graph.Task, lo, hi int, chunk bool) error {
	if ar.Kind != graph.AllReduce {
		return fmt.Errorf("exec: unsupported collective kind %v", ar.Kind)
	}
	n := len(ar.Inputs)
	if n == 0 {
		return fmt.Errorf("exec: collective %s has no inputs", ar)
	}
	if err := tr.injectOp(fault.Collective, tr.pdev(dev), ar.Layer); err != nil {
		return err
	}
	if r := tr.rec; r != nil && dev >= 0 {
		label := ar.String()
		if chunk {
			label = fmt.Sprintf("%s[%d:%d]", ar, lo, hi)
		}
		start := tr.vm.clk.Now()
		defer func() { r.add(tr.pdev(dev), trace.Comms, label, start, tr.vm.clk.Now()) }()
	}
	views := make([][]float32, n)
	if err := tr.acquire(ar, -1, views, nil); err != nil {
		return err
	}
	// Remote gradient traffic crosses the reducer's modeled link. The
	// serial path has no reducing worker; replica 0's device, whose
	// buffer accumulates the sum, stands in.
	tr.vm.chargeReduce(tr.pdev(max(dev, 0)), n, int64(hi-lo)*4)
	inv := float32(1) / float32(n)
	grain := max((1<<16)/(2*n), 1) // ~64k scalar ops per pool chunk
	nn.ParallelFor(hi-lo, grain, func(a, b int) { averageViews(views, lo+a, lo+b, inv) })
	if chunk {
		tr.commMu.Lock()
		tr.commStats.ChunksReduced++
		tr.commStats.BytesReduced += int64(hi-lo) * 4
		tr.commMu.Unlock()
	}
	return tr.release(ar, nil)
}

// reduceBlock is how many elements averageViews carries at a time:
// 8 KiB of float32, so the accumulating block stays in L1 while every
// replica's block streams past it once.
const reduceBlock = 2048

// averageViews sets elements [lo, hi) of every view to inv times
// their sum over the views. It walks a block replica by replica,
// accumulating in place in views[0]; each element still adds the
// replicas to +0 in index order, then scales — the same operations in
// the same order as summing one element at a time, so the same bits.
func averageViews(views [][]float32, lo, hi int, inv float32) {
	for ; lo < hi; lo += reduceBlock {
		acc := views[0][lo:min(lo+reduceBlock, hi)]
		for j, v := range acc {
			acc[j] = 0 + v // not a no-op: +0 + -0 is +0
		}
		for _, view := range views[1:] {
			src := view[lo:][:len(acc)]
			for j, v := range src {
				acc[j] += v
			}
		}
		for j := range acc {
			acc[j] *= inv
		}
		for _, view := range views[1:] {
			copy(view[lo:], acc)
		}
	}
}
