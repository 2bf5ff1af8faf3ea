// The parallel executor maps each virtual device to a real worker
// goroutine. Each device worker drains its woven stream (sched.Weave,
// its runs fitted to the devices by schedcheck) in order: compute
// entries are runs — a wave's microbatches of one layer, or a task
// alone — each executed as one kernel call by Trainer.runRun, which
// issues the prefetch window for the tasks after the run once the run
// is pinned, and rendezvous entries are a collective's position in
// that stream. A run is released by a dependency-count dispatcher the
// moment the last dependency from outside it completes (one closed
// channel per run and per collective — no polling), and its members
// complete together once the whole run is done. On a
// monolithic plan every participant parks there and the last to arrive
// reduces the whole payload (arrive); on a chunked plan there is no
// barrier — each worker reduces the chunks the plan assigned to it and
// moves on, overlapping the collective's tail with its compute stream
// (reduceBucket). Both end in the same Trainer.reduce, which only does
// the math. A collective's link time is booked without waiting for it
// (Trainer.book): a chunked one's at the instant it becomes ready, by
// whichever worker completes its last dependency (complete) — every
// chunk on its plan-time reducer's link, so the link timeline follows
// the plan and readiness, not the reducers' goroutines — a monolithic
// one's at its last arrival. Booking stamps the reservations' end on
// the updates that read the result, and each executor holds a task
// until its stamp has passed (Trainer.await), so a reducer's worker goes
// straight back to its stream.
//
// Determinism: per-run math is bit-identical to the serial path and to
// one kernel call per member (see internal/nn), collectives reduce
// replicas in fixed order whatever the partition into chunks, and
// losses are accumulated in task-ID order by
// Trainer.Step — so the parallel executor produces bit-identical weights
// and losses to the serial one, regardless of interleaving. The serial
// executor drains the same woven streams (runSerial) and books the same
// ranges on the same links, so on a data-parallel plan with prefetch off
// the two move the same bytes and busy each link as long.
// Only where the workers time a move — a prefetch window, a pipeline's
// cross-device reads — may the data-movement counters differ.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/graph"
	"harmony/internal/sched"
)

// rendezvous is one collective's runtime barrier state.
type rendezvous struct {
	arrived atomic.Int32
	parties int32
	done    chan struct{}
}

// taskState is a step's per-task bookkeeping, indexed by task ID. It
// lives on the Trainer, sized with the plan and its runs (install) and
// reset at the start of every step, so a step allocates none of it but
// the ready channels.
type taskState struct {
	// runOf[id] is the task ID that heads task id's run — its own ID for
	// a run's head and a collective. need, deps and ready are kept at the
	// head: the run's dependencies from outside it, those still to
	// complete this step (parallel executor), and the channel closed when
	// they hit zero. An edge inside a run — a closing Update's on the
	// backwards before it — counts nowhere.
	runOf   []int32
	need    []int32
	deps    []int32
	ready   []chan struct{}
	losses  []float32 // per task ID, filled by final-layer backwards
	counted []bool
	// written[id] is set, per tensor ID, once a backward of this step has
	// written gradient id: the first run to write it overwrites it
	// (runRun), every later one adds to it. All writers of a gradient run
	// in one device worker's stream, in stream order, so each entry has
	// one writer and the same first run on either executor.
	written []bool
	// stamps[id] is the end of the link time task id reads — the latest
	// reservation of its collective (book) — which its device's demand
	// lane waits for before the task runs; the zero time when there is
	// none. waited[id] is how much later than its lane was free the wait
	// made task id start.
	stamps []time.Time
	waited []time.Duration
	// commLeft[id] counts collective task id's chunks not yet reduced
	// this run; the worker that retires the last one completes it. Nil on
	// the monolithic path.
	commLeft []int32
}

// sizeTasks sizes the per-task step state for the current plan and its
// runs, and runRun's view slots and operand buffers for its longest run
// and its largest operand.
func (tr *Trainer) sizeTasks() {
	n := len(tr.g.Tasks)
	tr.tasks = taskState{
		runOf:   make([]int32, n),
		need:    make([]int32, n),
		deps:    make([]int32, n),
		ready:   make([]chan struct{}, n),
		losses:  make([]float32, n),
		counted: make([]bool, n),
		written: make([]bool, tr.g.Reg.Len()),
		stamps:  make([]time.Time, n),
		waited:  make([]time.Duration, n),
	}
	if tr.comm != nil {
		tr.tasks.commLeft = make([]int32, n)
	}
	for id := range tr.tasks.runOf {
		tr.tasks.runOf[id] = int32(id)
	}
	longest, operand := 1, 0
	rows := tr.g.Cfg.MicrobatchSize
	for _, st := range tr.streams.Dev {
		for _, e := range st {
			for _, m := range e.Run {
				tr.tasks.runOf[m.ID] = int32(e.Task.ID)
			}
			if k := len(e.Run); k > 0 {
				l := tr.layers[e.Task.Layer]
				longest = max(longest, k)
				operand = max(operand, k*rows*max(l.InSize(), l.OutSize(), l.StashSize()))
			}
		}
	}
	for _, t := range tr.g.Tasks {
		h := tr.tasks.runOf[t.ID]
		for _, dep := range t.Deps {
			if tr.tasks.runOf[dep.ID] != h {
				tr.tasks.need[h]++
			}
		}
	}
	tr.runViews = make([][]memberViews, tr.cfg.Devices)
	tr.runBufs = make([][3][]float32, tr.cfg.Devices)
	for d := range tr.runViews {
		tr.runViews[d] = make([]memberViews, longest)
		for i := range tr.runBufs[d] {
			tr.runBufs[d][i] = make([]float32, operand)
		}
	}
}

// executor runs one iteration's streams on worker goroutines.
type executor struct {
	tr     *Trainer
	ts     *taskState
	labels []int

	abort    chan struct{}
	failOnce sync.Once
	err      error
}

// newExecutor resets the trainer's task state for a step; the parallel
// executor also gets its dependency counts and a fresh ready channel
// per run and per collective (the serial one's Replay keeps its own
// counts).
func newExecutor(tr *Trainer, labels []int) *executor {
	ts := &tr.tasks
	ex := &executor{tr: tr, ts: ts, labels: labels, abort: make(chan struct{})}
	clear(ts.counted)
	clear(ts.written)
	clear(ts.stamps)
	clear(ts.waited)
	if tr.comm != nil {
		for _, c := range tr.s.Collectives {
			ts.commLeft[c.ID] = int32(len(tr.comm.of[c.ID]))
		}
	}
	if tr.cfg.Serial {
		return ex
	}
	copy(ts.deps, ts.need)
	for _, t := range tr.g.Tasks {
		if ts.runOf[t.ID] != int32(t.ID) {
			continue // released with its run's head
		}
		ts.ready[t.ID] = make(chan struct{})
		if ts.deps[t.ID] == 0 {
			close(ts.ready[t.ID])
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

// complete releases every successor run whose dependency count reaches
// zero. A chunked collective released here has its link time booked
// first (Trainer.book), so its reducers and, through them, its readers
// see the stamps.
func (ex *executor) complete(t *graph.Task) {
	for _, s := range t.Succs {
		h := ex.ts.runOf[s.ID]
		if h == ex.ts.runOf[t.ID] {
			continue // inside t's run
		}
		if atomic.AddInt32(&ex.ts.deps[h], -1) == 0 {
			if ex.tr.comm != nil && s.Kind == graph.AllReduce {
				ex.tr.book(s)
			}
			close(ex.ts.ready[h])
		}
	}
}

// stamp marks collective c's successors — the updates that read the
// reduced gradient — with end, the end of c's link time. An update has
// exactly one collective among its dependencies, so each stamp has one
// writer, book, and it writes before c's reduction can start, let alone
// complete and release the reader.
func (ts *taskState) stamp(c *graph.Task, end time.Time) {
	for _, s := range c.Succs {
		ts.stamps[s.ID] = end
	}
}

// await holds task t, about to run on virtual device d, until the link
// time it reads has ended: d's demand lane owes the wait (VM.await).
func (tr *Trainer) await(d int, t *graph.Task) {
	if end := tr.tasks.stamps[t.ID]; !end.IsZero() {
		tr.tasks.waited[t.ID] = tr.vm.await(tr.pdev(d), end)
	}
}

// foldWaits adds a completed step's exposed reduction time to
// CommStats: per collective, the longest wait among its readers.
func (tr *Trainer) foldWaits() {
	for _, c := range tr.s.Collectives {
		var w time.Duration
		for _, s := range c.Succs {
			w = max(w, tr.tasks.waited[s.ID])
		}
		tr.commStats.WaitNanos += w.Nanoseconds()
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
		select {
		case <-ex.ts.ready[e.Task.ID]:
		case <-ex.abort:
			return
		}
		for _, m := range e.Run {
			ex.tr.await(d, m)
		}
		if m, err := ex.tr.runRun(d, e, stream[i+1:], ex.labels); err != nil {
			ex.fail(fmt.Errorf("exec: %s on %s: %w", m, ex.tr.where(d), err))
			return
		}
		for _, m := range e.Run {
			ex.complete(m)
		}
	}
}

// runSerial is the reference executor: it runs the woven streams on
// the calling goroutine in the order sched.Streams.Replay drains them —
// the order schedcheck's liveness proof walks. Per rendezvous it books
// each member's link time as the parallel executor does, chunk by chunk
// on the plan's links when the plan has chunks, and reduces the
// member's whole payload on behalf of the device whose arrival
// completed the rendezvous, as arrive does. Kept as the reference path
// (TrainerConfig.Serial) for determinism tests and ablation benchmarks.
func (ex *executor) runSerial(ws *sched.Streams) error {
	tr := ex.tr
	stuck, err := ws.Replay(tr.g.Tasks, func(d int, e sched.StreamEntry) error {
		if e.Rdv >= 0 {
			for _, m := range ws.Members[e.Rdv] {
				tr.book(m)
				if err := tr.reduce(d, m, 0, int(m.CommBytes/4), false); err != nil {
					return fmt.Errorf("exec: %s: %w", m, err)
				}
			}
			return nil
		}
		for _, m := range e.Run {
			tr.await(d, m)
		}
		if m, err := tr.runRun(d, e, nil, ex.labels); err != nil {
			return fmt.Errorf("exec: %s on %s: %w", m, tr.where(d), err)
		}
		return nil
	})
	if err == nil && stuck != nil {
		err = fmt.Errorf("exec: streams deadlocked; blocked: %v", stuck)
	}
	return err
}

// arrive parks device worker d at a collective's rendezvous. The last
// participant to arrive waits for the collective's own dependencies,
// books its link time and performs the reduction; everyone else resumes
// when it finishes.
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
	case <-ex.ts.ready[t.ID]:
	case <-ex.abort:
		return false
	}
	ex.tr.book(t)
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
// member's own dependencies — never for other workers; the member's
// link time was booked when it became ready (complete). The worker that
// retires a member's last chunk completes it, releasing its updates;
// a worker whose chunks are done departs immediately and continues its
// compute stream while other chunks still reduce. No arrival barrier
// exists, which is the whole point: chunk boundaries, reducer
// assignment and per-element summation order are pure functions of the
// plan, so the overlap costs no determinism.
func (ex *executor) reduceBucket(d int, bi int) bool {
	chunks := ex.tr.comm.byDev[bi][d]
	idx := 0
	for mi, m := range ex.tr.streams.Members[bi] {
		lo := idx
		for idx < len(chunks) && chunks[idx].Member == mi {
			idx++
		}
		if lo == idx {
			continue // no chunks of this member assigned here
		}
		select {
		case <-ex.ts.ready[m.ID]:
		case <-ex.abort:
			return false
		}
		for _, c := range chunks[lo:idx] {
			if err := ex.tr.reduce(d, m, c.Lo, c.Hi, true); err != nil {
				ex.fail(fmt.Errorf("exec: %s[%d:%d]: %w", m, c.Lo, c.Hi, err))
				return false
			}
		}
		if atomic.AddInt32(&ex.ts.commLeft[m.ID], int32(lo-idx)) == 0 {
			ex.complete(m)
		}
	}
	return true
}
