// Package runtime executes a schedule on the simulated hardware: it
// drives tasks through the memory manager (acquire → compute →
// release), launches collectives when their dependencies resolve,
// overlaps prefetch with compute when the schedule asks for it, and
// measures steady-state iteration time and swap traffic.
//
// The runtime is the piece that ties everything together: the task
// graph supplies *what* must run, the schedule supplies *where and in
// what order*, the memory manager supplies *residency*, and the
// topology supplies *time*.
package runtime

import (
	"fmt"
	"strings"

	"harmony/internal/collective"
	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/memory"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// Config describes one measured simulation run.
type Config struct {
	Box      hw.BoxConfig
	Schedule *sched.Schedule

	// WarmupIters run before measurement starts (fills caches and
	// reaches the steady state); MeasureIters are averaged.
	WarmupIters  int
	MeasureIters int

	// CaptureTrace records compute and transfer spans (memory-heavy;
	// keep iterations small when enabled).
	CaptureTrace bool

	// CaptureUsage records each device's resident-bytes timeline
	// (Result.Usage), the Fig. 2(c) memory-usage series.
	CaptureUsage bool
}

// eventLimit bounds a run's simulation events as a runaway backstop.
const eventLimit = 200_000_000

// Result reports steady-state metrics.
type Result struct {
	// IterTime is the average steady-state time per iteration;
	// Throughput is samples/second derived from it.
	IterTime   sim.Time
	Throughput float64

	// Per-iteration steady-state swap traffic, summed over devices.
	SwapInBytes  int64
	SwapOutBytes int64
	P2PBytes     int64
	DropBytes    int64

	// PerDev is cumulative per-device statistics over the whole run
	// (including warmup).
	PerDev []memory.DeviceStats
	// PerDevSwapOut is steady-state per-iteration swap-out bytes per
	// device (the Fig. 2(c) imbalance signal).
	PerDevSwapOut []int64
	// PerDevDemand is each device's peak working-set demand in bytes
	// (resident + swapped-out live tensors homed there).
	PerDevDemand []int64

	// LinkBusy is each link's cumulative busy time over the whole
	// run, keyed by link name (host-up/host-down are the shared
	// bottleneck of Fig. 2(b)).
	LinkBusy map[string]sim.Time

	// Usage is each device's resident-bytes timeline (only when
	// Config.CaptureUsage was set).
	Usage [][]trace.UsagePoint

	Trace *trace.Trace
}

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("runtime: nil schedule")
	}
	if cfg.MeasureIters <= 0 {
		return nil, fmt.Errorf("runtime: MeasureIters must be positive, got %d", cfg.MeasureIters)
	}
	if cfg.WarmupIters < 0 {
		return nil, fmt.Errorf("runtime: negative WarmupIters")
	}
	if cfg.Box.TotalGPUs() < cfg.Schedule.NGPUs {
		return nil, fmt.Errorf("runtime: schedule needs %d GPUs, box has %d", cfg.Schedule.NGPUs, cfg.Box.TotalGPUs())
	}
	eng := sim.NewEngine()
	eng.Limit = eventLimit
	top, err := hw.NewBox(eng, cfg.Box)
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg: cfg,
		eng: eng,
		top: top,
		sch: cfg.Schedule,
		g:   cfg.Schedule.Graph,
	}
	r.mgr = memory.New(eng, top, r.g.Reg, cfg.Schedule.MemPolicy)
	if cfg.Schedule.MemPolicy.Lookahead {
		r.buildUseIndex()
		r.mgr.NextUse = r.nextUse
	}
	if cfg.CaptureUsage {
		r.usage = make([][]trace.UsagePoint, cfg.Schedule.NGPUs)
		for d := 0; d < cfg.Schedule.NGPUs; d++ {
			d := d
			r.mgr.OnUsageChange(hw.DeviceID(d), func(used int64) {
				pts := r.usage[d]
				// Coalesce same-instant samples to the latest value.
				if n := len(pts); n > 0 && pts[n-1].At == r.eng.Now() {
					pts[n-1].Bytes = used
				} else {
					pts = append(pts, trace.UsagePoint{At: r.eng.Now(), Bytes: used})
				}
				r.usage[d] = pts
			})
		}
	}
	if cfg.CaptureTrace {
		r.trace = &trace.Trace{}
		r.mgr.Hook = func(kind string, t *tensor.Tensor, dev hw.DeviceID, start, end sim.Time) {
			lane := trace.SwapIn
			label := "I " + t.String()
			switch kind {
			case "swap-out":
				lane, label = trace.SwapOut, "O "+t.String()
			case "p2p":
				lane, label = trace.P2P, "P "+t.String()
			case "drop":
				lane, label = trace.SwapOut, "D "+t.String()
			}
			r.trace.Add(dev, lane, label, start, end)
		}
	}
	return r.run()
}

// runner holds per-run mutable state.
type runner struct {
	cfg Config
	eng *sim.Engine
	top *hw.Topology
	mgr *memory.Manager
	sch *sched.Schedule
	g   *graph.Graph

	depsLeft []int
	cursor   []int
	running  []bool
	// deferred holds update tasks skipped over because they were
	// still waiting on an AllReduce: Harmony's just-in-time semantics
	// run a task as soon as its inputs are available, so a blocked
	// update must not stall the device queue behind it. Deferred
	// tasks run with priority once their dependencies resolve.
	deferred  [][]*graph.Task
	completed int
	// lanes[d] is device d's task in flight; colls[id] is the record of
	// collective task id, built at its first launch. Both carry their
	// callbacks bound once, so the steady-state loop builds no closure
	// per task.
	lanes []lane
	colls []*collRun
	// devIDs[i] = i: the replica → GPU convention of collectives, shared
	// by every launch.
	devIDs []hw.DeviceID

	iter      int
	iterStart sim.Time
	iterTimes []sim.Time

	onIterDone func()

	// useIndex[d][tensorID] lists the ascending queue positions on
	// device d where the tensor is an input, output or mutation —
	// the oracle behind lookahead (Belady) eviction.
	useIndex []map[int][]int

	// usage accumulates resident-bytes timelines when CaptureUsage
	// is set.
	usage [][]trace.UsagePoint

	trace *trace.Trace
	fatal error
}

// buildUseIndex precomputes each tensor's use positions per device
// queue.
func (r *runner) buildUseIndex() {
	r.useIndex = make([]map[int][]int, r.sch.NGPUs)
	for d := 0; d < r.sch.NGPUs; d++ {
		idx := make(map[int][]int)
		for pos, t := range r.sch.Queues[d] {
			for _, set := range [][]*tensor.Tensor{t.Inputs, t.Outputs, t.Mutates} {
				for _, tt := range set {
					uses := idx[tt.ID]
					if len(uses) == 0 || uses[len(uses)-1] != pos {
						idx[tt.ID] = append(uses, pos)
					}
				}
			}
		}
		r.useIndex[d] = idx
	}
}

// nextUse returns the next queue position on dev that uses the
// tensor, at or after the device's cursor; a sentinel beyond any
// queue when unused. Within one iteration this is exact; tensors
// reused next iteration simply look "far away", which is the right
// eviction signal anyway. A deferred update sits behind the cursor
// and runs ahead of the queue head once its reduction lands, so a
// tensor it uses reads as the most imminent use, cursor-1.
func (r *runner) nextUse(id int, dev hw.DeviceID) int {
	const never = 1 << 30
	uses := r.useIndex[dev][id]
	cur := r.cursor[dev]
	for _, u := range r.deferred[dev] {
		if touches(u, id) {
			return cur - 1
		}
	}
	// Binary search for the first use ≥ cursor.
	lo, hi := 0, len(uses)
	for lo < hi {
		mid := (lo + hi) / 2
		if uses[mid] < cur {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(uses) {
		return never
	}
	return uses[lo]
}

// touches reports whether task t reads, writes or mutates tensor id.
func touches(t *graph.Task, id int) bool {
	for _, set := range [][]*tensor.Tensor{t.Inputs, t.Outputs, t.Mutates} {
		for _, tt := range set {
			if tt.ID == id {
				return true
			}
		}
	}
	return false
}

func (r *runner) fail(err error) {
	if r.fatal == nil {
		r.fatal = err
		r.eng.Stop()
	}
}

func (r *runner) run() (*Result, error) {
	total := r.cfg.WarmupIters + r.cfg.MeasureIters

	// Materialize persistent state and the first iteration's inputs
	// in host memory.
	if err := r.mgr.InitHost(r.g.PersistentTensors()...); err != nil {
		return nil, err
	}

	var devSnap []memory.DeviceStats
	snapshot := func() {
		devSnap = devSnap[:0]
		for d := 0; d < r.sch.NGPUs; d++ {
			devSnap = append(devSnap, r.mgr.Stats(hw.DeviceID(d)))
		}
	}

	var startIter func()
	startIter = func() {
		if r.iter == r.cfg.WarmupIters {
			snapshot()
		}
		if r.iter == total {
			r.eng.Stop()
			return
		}
		r.iterStart = r.eng.Now()
		r.beginIteration(func() {
			r.iterTimes = append(r.iterTimes, r.eng.Now()-r.iterStart)
			r.iter++
			startIter()
		})
	}
	if r.cfg.WarmupIters == 0 {
		snapshot()
	}
	startIter()
	if _, err := r.eng.Run(); err != nil {
		return nil, err
	}
	if r.fatal != nil {
		return nil, r.fatal
	}
	if err := r.mgr.Err(); err != nil {
		return nil, err
	}
	if r.iter < total {
		return nil, fmt.Errorf("runtime: stalled in iteration %d: %s", r.iter, r.stuckReport())
	}

	res := &Result{Trace: r.trace, LinkBusy: map[string]sim.Time{}, Usage: r.usage}
	for _, l := range r.top.Links {
		res.LinkBusy[l.Name] = l.Res.BusyTime
	}
	var sum sim.Time
	for _, t := range r.iterTimes[r.cfg.WarmupIters:] {
		sum += t
	}
	res.IterTime = sum / sim.Time(r.cfg.MeasureIters)
	if res.IterTime > 0 {
		res.Throughput = float64(r.g.Cfg.MiniBatch()) / float64(res.IterTime)
	}
	iters := int64(r.cfg.MeasureIters)
	for d := 0; d < r.sch.NGPUs; d++ {
		cur := r.mgr.Stats(hw.DeviceID(d))
		res.PerDev = append(res.PerDev, cur)
		res.SwapInBytes += (cur.SwapInBytes - devSnap[d].SwapInBytes) / iters
		res.SwapOutBytes += (cur.SwapOutBytes - devSnap[d].SwapOutBytes) / iters
		res.P2PBytes += (cur.P2PInBytes - devSnap[d].P2PInBytes) / iters
		res.DropBytes += (cur.DropBytes - devSnap[d].DropBytes) / iters
		res.PerDevSwapOut = append(res.PerDevSwapOut, (cur.SwapOutBytes-devSnap[d].SwapOutBytes)/iters)
		res.PerDevDemand = append(res.PerDevDemand, cur.HighWaterDemand)
	}
	return res, nil
}

// beginIteration resets per-iteration bookkeeping, materializes the
// input batches, and starts dispatching. onDone fires when every task
// of the iteration has completed and transient state is cleaned up.
func (r *runner) beginIteration(onDone func()) {
	n := len(r.g.Tasks)
	if r.depsLeft == nil {
		r.depsLeft = make([]int, n)
		r.cursor = make([]int, r.sch.NGPUs)
		r.running = make([]bool, r.sch.NGPUs)
		r.deferred = make([][]*graph.Task, r.sch.NGPUs)
		r.lanes = make([]lane, r.sch.NGPUs)
		r.devIDs = make([]hw.DeviceID, r.sch.NGPUs)
		for d := range r.lanes {
			r.lanes[d].bind(r, d)
			r.devIDs[d] = hw.DeviceID(d)
		}
		r.colls = make([]*collRun, n)
	}
	for _, t := range r.g.Tasks {
		r.depsLeft[t.ID] = len(t.Deps)
	}
	for d := range r.cursor {
		r.cursor[d] = 0
		r.running[d] = false
		r.deferred[d] = r.deferred[d][:0]
	}
	r.completed = 0

	if err := r.mgr.InitHost(r.g.InputTensors()...); err != nil {
		r.fail(err)
		return
	}

	finishIter := func() {
		// Input batches are consumed; release their host buffers so
		// the next iteration can load fresh data.
		for _, in := range r.g.InputTensors() {
			if err := r.mgr.FreeTensor(in); err != nil {
				r.fail(err)
				return
			}
		}
		onDone()
	}
	r.onIterDone = finishIter
	r.dispatchAll()
}

func (r *runner) stuckReport() string {
	var stuck []string
	for d := 0; d < r.sch.NGPUs; d++ {
		if r.cursor[d] < len(r.sch.Queues[d]) {
			t := r.sch.Queues[d][r.cursor[d]]
			stuck = append(stuck, fmt.Sprintf("gpu%d at %s (deps left %d, running %v, deferred %d)",
				d, t, r.depsLeft[t.ID], r.running[d], len(r.deferred[d])))
		} else if len(r.deferred[d]) > 0 {
			stuck = append(stuck, fmt.Sprintf("gpu%d drained with %d deferred updates", d, len(r.deferred[d])))
		}
	}
	if len(stuck) == 0 {
		return "all queues drained but collectives incomplete"
	}
	return strings.Join(stuck, "; ")
}

func (r *runner) dispatchAll() {
	for d := 0; d < r.sch.NGPUs; d++ {
		r.dispatch(d)
	}
}

// dispatch starts the next runnable task on device d if it is idle.
// Ready deferred updates take priority; then the queue head; an
// update blocked on its AllReduce is deferred rather than allowed to
// stall the queue (just-in-time semantics: run tasks when their
// inputs become available, don't serialize on collectives).
func (r *runner) dispatch(d int) {
	if r.fatal != nil || r.running[d] {
		return
	}
	var t *graph.Task
	for i, u := range r.deferred[d] {
		if r.depsLeft[u.ID] == 0 {
			t = u
			r.deferred[d] = append(r.deferred[d][:i], r.deferred[d][i+1:]...)
			break
		}
	}
	for t == nil && r.cursor[d] < len(r.sch.Queues[d]) {
		head := r.sch.Queues[d][r.cursor[d]]
		if r.depsLeft[head.ID] == 0 {
			t = head
			r.cursor[d]++
			break
		}
		if head.Kind == graph.Update && r.sch.Opts.DeferBlockedUpdates {
			r.deferred[d] = append(r.deferred[d], head)
			r.cursor[d]++
			continue
		}
		return
	}
	if t == nil {
		return
	}
	r.running[d] = true
	l := &r.lanes[d]
	l.task = t
	r.mgr.Acquire(l.dev.ID, t.Inputs, t.Outputs, t.WorkspaceBytes, l.ready, l.fail)
}

// lane runs device d's tasks, one at a time (runner.running[d] admits
// the next only after finished has run), so one record per device
// holds the task in flight and the four callbacks its life needs.
type lane struct {
	r    *runner
	dev  *hw.Device
	task *graph.Task
	// start is when the kernel began, for the trace span.
	start sim.Time

	ready             func()
	started, finished func(at sim.Time)
	fail              func(error)
}

func (l *lane) bind(r *runner, d int) {
	l.r, l.dev = r, r.top.Device(hw.DeviceID(d))
	l.ready, l.started, l.finished, l.fail = l.onReady, l.onStarted, l.onFinished, l.onFail
}

// onReady runs when the task's tensors are resident and pinned: overlap
// the next swap-ins, then queue the kernel.
func (l *lane) onReady() {
	l.r.prefetchAhead(int(l.dev.ID))
	l.dev.Compute.Acquire(l.dev.KernelTime(l.task.FLOPs), l.started, l.finished)
}

func (l *lane) onStarted(at sim.Time) { l.start = at }

func (l *lane) onFinished(at sim.Time) {
	r, t := l.r, l.task
	if r.trace != nil {
		r.trace.Add(l.dev.ID, trace.Compute, t.String(), l.start, at)
	}
	if err := r.mgr.Release(l.dev.ID, t.Inputs, t.Outputs, t.Mutates, t.Frees, t.WorkspaceBytes); err != nil {
		r.fail(err)
		return
	}
	r.running[l.dev.ID] = false
	r.taskCompleted(t)
}

func (l *lane) onFail(err error) {
	l.r.fail(fmt.Errorf("runtime: %s on %s: %w", l.task, l.dev.ID, err))
}

// prefetchAhead overlaps upcoming swap-ins with the current compute.
func (r *runner) prefetchAhead(d int) {
	if !r.sch.Opts.Prefetch {
		return
	}
	q := r.sch.Queues[d]
	// cursor already points past the task now starting, so cursor+0
	// is the next task in line.
	for k := 0; k < sched.DefaultPrefetchDepth; k++ {
		idx := r.cursor[d] + k
		if idx >= len(q) {
			return
		}
		for _, in := range q[idx].Inputs {
			r.mgr.Prefetch(hw.DeviceID(d), in)
		}
	}
}

// taskCompleted propagates completion to dependents and detects the
// end of the iteration.
func (r *runner) taskCompleted(t *graph.Task) {
	r.completed++
	for _, s := range t.Succs {
		r.depsLeft[s.ID]--
		if r.depsLeft[s.ID] == 0 && (s.Kind == graph.AllReduce || s.Kind == graph.Gather) {
			r.launchCollective(s)
		}
	}
	if r.completed == len(r.g.Tasks) {
		r.onIterDone()
		return
	}
	r.dispatchAll()
}

// launchCollective runs an AllReduce or Gather task. By convention
// the i-th input (and output, for gathers) belongs to replica/shard i
// and therefore to GPU i.
//
// AllReduce: pin every replica's gradient buffer, run the ring
// all-reduce, release with the buffers marked dirty (they now hold
// the averaged gradients).
//
// Gather: pin every shard's partial on its device and allocate the
// full replica there, run the ring all-gather, release with replicas
// dirty and partials freed.
func (r *runner) launchCollective(t *graph.Task) {
	c := r.colls[t.ID]
	if c == nil {
		c = &collRun{r: r, t: t}
		c.ready, c.fail, c.asyncFail, c.done = c.onReady, c.onFail, c.onAsyncFail, c.onDone
		r.colls[t.ID] = c
	}
	c.acquired = 0
	for i := range t.Inputs {
		var out []*tensor.Tensor
		if t.Kind == graph.Gather {
			out = t.Outputs[i : i+1]
		}
		r.mgr.Acquire(hw.DeviceID(i), t.Inputs[i:i+1], out, 0, c.ready, c.fail)
	}
}

// collRun is one collective task's launch state. A task launches once
// per iteration and completes before the next begins, so the record and
// its bound callbacks serve the whole run.
type collRun struct {
	r        *runner
	t        *graph.Task
	acquired int

	ready     func()
	fail      func(error)
	asyncFail func(error)
	done      func(at sim.Time)
}

// onReady counts one replica's buffers pinned; the last one starts the
// ring.
func (c *collRun) onReady() {
	r, t := c.r, c.t
	c.acquired++
	if c.acquired < len(t.Inputs) {
		return
	}
	devs := r.devIDs[:len(t.Inputs)]
	var err error
	switch t.Kind {
	case graph.AllReduce:
		err = collective.RingAllReduce(r.top, devs, t.CommBytes, c.done, c.asyncFail)
	case graph.Gather:
		err = collective.RingAllGather(r.top, devs, t.CommBytes, c.done, c.asyncFail)
	default:
		err = fmt.Errorf("runtime: unexpected collective kind %v", t.Kind)
	}
	if err != nil {
		r.fail(err)
	}
}

func (c *collRun) onDone(sim.Time) {
	r, t := c.r, c.t
	for j := range t.Inputs {
		in := t.Inputs[j : j+1]
		var out, mut, frees []*tensor.Tensor
		switch t.Kind {
		case graph.AllReduce:
			mut = in
		case graph.Gather:
			out = t.Outputs[j : j+1]
			mut = out
			frees = t.Frees[j : j+1]
		}
		if err := r.mgr.Release(hw.DeviceID(j), in, out, mut, frees, 0); err != nil {
			r.fail(err)
			return
		}
	}
	r.taskCompleted(t)
}

func (c *collRun) onFail(err error) {
	c.r.fail(fmt.Errorf("runtime: collective %s: %w", c.t, err))
}

func (c *collRun) onAsyncFail(err error) {
	c.r.fail(fmt.Errorf("runtime: collective %s mid-flight: %w", c.t, err))
}
