// The parallel executor maps each virtual device to a real worker
// goroutine. Tasks are released by a dependency-count dispatcher the
// moment their last dependency completes (a closed channel per task —
// no polling), and each device worker drains its woven stream
// (sched.Weave) in order: compute entries run through Trainer.runTask,
// rendezvous entries are a collective's position in that stream. On a
// monolithic plan every participant parks there and the last to arrive
// reduces the whole payload (arrive); on a chunked plan there is no
// barrier — each worker reduces the chunks the plan assigned to it and
// moves on, overlapping the collective's tail with its compute stream
// (reduceBucket). Both end in the same Trainer.reduce.
//
// Determinism: per-task math is bit-identical to the serial path (see
// internal/nn), collectives reduce replicas in fixed order whatever the
// partition into chunks, and losses are accumulated in task-ID order by
// Trainer.Step — so the parallel executor produces bit-identical weights
// and losses to the serial one, regardless of interleaving. Only
// data-movement counters (which depend on LRU timing) may differ.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"harmony/internal/graph"
	"harmony/internal/sched"
)

// rendezvous is one collective's runtime barrier state.
type rendezvous struct {
	arrived atomic.Int32
	parties int32
	done    chan struct{}
}

// executor runs one iteration's streams on worker goroutines.
type executor struct {
	tr     *Trainer
	labels []int

	deps    []int32         // remaining dependencies per task ID
	ready   []chan struct{} // closed when deps hit zero
	losses  []float32       // per task ID, filled by final-layer backwards
	counted []bool

	// commLeft[bi][mi] counts bucket bi member mi's chunks not yet
	// reduced this run; the worker that retires a member's last chunk
	// completes it. Nil on the monolithic path.
	commLeft [][]int32

	abort    chan struct{}
	failOnce sync.Once
	err      error
}

func newExecutor(tr *Trainer, labels []int) *executor {
	n := len(tr.g.Tasks)
	ex := &executor{
		tr:      tr,
		labels:  labels,
		deps:    make([]int32, n),
		ready:   make([]chan struct{}, n),
		losses:  make([]float32, n),
		counted: make([]bool, n),
		abort:   make(chan struct{}),
	}
	for _, b := range tr.comm {
		left := make([]int32, len(b.members))
		copy(left, b.chunksPerMember)
		ex.commLeft = append(ex.commLeft, left)
	}
	for _, t := range tr.g.Tasks {
		ex.deps[t.ID] = int32(len(t.Deps))
		ex.ready[t.ID] = make(chan struct{})
		if len(t.Deps) == 0 {
			close(ex.ready[t.ID])
		}
	}
	return ex
}

func (ex *executor) fail(err error) {
	ex.failOnce.Do(func() {
		ex.err = err
		close(ex.abort)
	})
}

// complete releases every successor whose dependency count reaches
// zero — the event-driven replacement for the serial poll loop.
func (ex *executor) complete(t *graph.Task) {
	for _, s := range t.Succs {
		if atomic.AddInt32(&ex.deps[s.ID], -1) == 0 {
			close(ex.ready[s.ID])
		}
	}
}

// run executes the streams and blocks until every worker has joined.
func (ex *executor) run(ws *sched.Streams) error {
	rdvs := make([]*rendezvous, len(ws.Parties))
	for i, p := range ws.Parties {
		rdvs[i] = &rendezvous{parties: int32(p), done: make(chan struct{})}
	}
	var wg sync.WaitGroup
	for d := range ws.Dev {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			ex.worker(d, ws.Dev[d], rdvs)
		}(d)
	}
	wg.Wait()
	return ex.err
}

// worker drains one device's stream in order, blocking on each entry
// until the dispatcher releases it.
func (ex *executor) worker(d int, stream []sched.StreamEntry, rdvs []*rendezvous) {
	for i, e := range stream {
		select {
		case <-ex.abort:
			return
		default:
		}
		if e.Rdv >= 0 {
			if ex.tr.comm != nil {
				if !ex.reduceBucket(d, e.Rdv) {
					return
				}
			} else if !ex.arrive(d, rdvs[e.Rdv], e.Task) {
				return
			}
			continue
		}
		t := e.Task
		select {
		case <-ex.ready[t.ID]:
		case <-ex.abort:
			return
		}
		// With the task released and about to compute, overlap the
		// future: async swap-ins for the next tasks' inputs and
		// write-backs of dirty LRU pages ride the DMA lanes while the
		// kernel runs.
		if ex.tr.pf != nil {
			ex.tr.pf.issue(d, stream, i)
		}
		loss, counted, err := ex.tr.runTask(d, t, ex.labels)
		if err != nil {
			ex.fail(fmt.Errorf("exec: %s on gpu%d: %w", t, d, err))
			return
		}
		ex.losses[t.ID] = loss
		ex.counted[t.ID] = counted
		ex.complete(t)
	}
}

// runSerial executes the schedule on the calling goroutine with the
// original polling loop: advance each device's queue when its head
// task's dependencies are done; collectives run as they become ready.
// Kept as the reference path (TrainerConfig.Serial) for determinism
// tests and ablation benchmarks.
func (ex *executor) runSerial() error {
	tr := ex.tr
	depsLeft := make([]int, len(tr.g.Tasks))
	for _, t := range tr.g.Tasks {
		depsLeft[t.ID] = len(t.Deps)
	}
	cursors := make([]int, tr.s.NGPUs)
	complete := func(t *graph.Task) {
		for _, s := range t.Succs {
			depsLeft[s.ID]--
		}
	}
	pendingAR := append([]*graph.Task(nil), tr.s.Collectives...)
	done := 0
	total := len(tr.g.Tasks)
	for done < total {
		progress := false
		// Collectives first: they unblock updates on every device.
		for i := 0; i < len(pendingAR); i++ {
			ar := pendingAR[i]
			if depsLeft[ar.ID] > 0 {
				continue
			}
			if err := tr.reduce(-1, ar, 0, int(ar.CommBytes/4), false); err != nil {
				return err
			}
			complete(ar)
			pendingAR = append(pendingAR[:i], pendingAR[i+1:]...)
			i--
			done++
			progress = true
		}
		for d := 0; d < tr.s.NGPUs; d++ {
			q := tr.s.Queues[d]
			for cursors[d] < len(q) && depsLeft[q[cursors[d]].ID] == 0 {
				t := q[cursors[d]]
				loss, counted, err := tr.runTask(d, t, ex.labels)
				if err != nil {
					return fmt.Errorf("exec: %s on gpu%d: %w", t, d, err)
				}
				ex.losses[t.ID] = loss
				ex.counted[t.ID] = counted
				complete(t)
				cursors[d]++
				done++
				progress = true
			}
		}
		if !progress {
			return fmt.Errorf("exec: schedule deadlocked with %d/%d tasks done", done, total)
		}
	}
	return nil
}

// arrive parks device worker d at a collective's rendezvous. The last
// participant to arrive waits for the collective's own dependencies
// and performs the reduction; everyone else resumes when it finishes.
// Because all participants are parked, per-device pin pressure during
// the collective is identical to the serial executor's. d attributes
// injected collective faults to the worker that hit them.
func (ex *executor) arrive(d int, r *rendezvous, t *graph.Task) bool {
	if r.arrived.Add(1) < r.parties {
		select {
		case <-r.done:
			return true
		case <-ex.abort:
			return false
		}
	}
	defer close(r.done)
	select {
	case <-ex.ready[t.ID]:
	case <-ex.abort:
		return false
	}
	if err := ex.tr.reduce(d, t, 0, int(t.CommBytes/4), false); err != nil {
		ex.fail(fmt.Errorf("exec: %s: %w", t, err))
		return false
	}
	ex.complete(t)
	return true
}

// reduceBucket is the chunked rendezvous: device worker d reduces
// exactly the chunks the plan assigned to it (chunk k → worker k mod
// N, fixed at plan time), in member order, waiting only for each
// member's own dependencies — never for other workers. The worker that
// retires a member's last chunk completes it, releasing its updates;
// a worker whose chunks are done departs immediately and continues its
// compute stream while other chunks still reduce. No arrival barrier
// exists, which is the whole point: chunk boundaries, reducer
// assignment and per-element summation order are pure functions of the
// plan, so the overlap costs no determinism.
func (ex *executor) reduceBucket(d int, bi int) bool {
	b := &ex.tr.comm[bi]
	chunks := b.byDev[d]
	idx := 0
	for mi, m := range b.members {
		lo := idx
		for idx < len(chunks) && chunks[idx].Member == mi {
			idx++
		}
		if lo == idx {
			continue // no chunks of this member assigned here
		}
		select {
		case <-ex.ready[m.ID]:
		case <-ex.abort:
			return false
		}
		for _, c := range chunks[lo:idx] {
			if err := ex.tr.reduce(d, m, c.Lo, c.Hi, true); err != nil {
				ex.fail(fmt.Errorf("exec: %s[%d:%d]: %w", m, c.Lo, c.Hi, err))
				return false
			}
		}
		if atomic.AddInt32(&ex.commLeft[bi][mi], int32(lo-idx)) == 0 {
			ex.complete(m)
		}
	}
	return true
}
