// Package memory implements device memory management for virtualized
// training: residency tracking, LRU eviction, on-demand swapping
// between host and device (the per-GPU "GPU memory virtualization"
// baseline, vDNN / IBM-LMS style), and the coordinated facilities
// Harmony adds on top — dirty tracking (clean drops instead of
// writebacks), peer-to-peer migration, and prefetch.
//
// The manager is asynchronous and event-driven: an Acquire request
// pins already-resident tensors immediately, evicts and swaps in the
// rest over simulated DMA transfers, and invokes its ready callback
// once every input is pinned and space for outputs and workspace is
// reserved.
//
// Bookkeeping is by index, not by hash: tensor IDs are dense (the
// registry hands them out from zero), so the per-tensor tables — states,
// home device, LRU links — are slices indexed by ID, and an acquire's
// pinned flags are positional, parallel to its input list (which is why
// Acquire refuses an input listed twice). Memory is per run, not
// per operation: the tensor states are one slab, and acquire and
// transfer records go back on per-Manager free lists when they are done,
// so once those lists are warm the simulator's hot loop allocates
// nothing per acquire, per transfer or per LRU move.
//
// A Manager belongs to one simulation and runs on its engine's
// goroutine; like sim.Engine, it is not safe for concurrent use.
package memory

import (
	"fmt"

	"harmony/internal/hw"
	"harmony/internal/sim"
	"harmony/internal/tensor"
)

// Policy selects between naive per-GPU virtualization and Harmony's
// coordinated behavior.
type Policy struct {
	// DirtyTracking drops clean device copies on eviction instead of
	// writing them back. Naive virtualization (the baseline) writes
	// back unconditionally, which is why its weight swap volume is
	// (4m+2)N|W| rather than 3N|W| (§3).
	DirtyTracking bool
	// P2P moves tensors between devices over direct links when the
	// topology allows it; otherwise cross-device moves bounce through
	// host memory as two swaps.
	P2P bool
	// Lookahead selects schedule-informed (Belady-style) eviction:
	// the victim is the resident tensor whose next use is farthest in
	// the device's task queue, falling back to LRU when no oracle is
	// installed. This is the paper's "the scheduler and swapping
	// algorithms in Harmony inform each other's decisions" made
	// concrete: the runtime exposes its queues to the memory manager.
	Lookahead bool
}

// DeviceStats aggregates swap traffic and memory pressure per device.
type DeviceStats struct {
	SwapInBytes  int64
	SwapOutBytes int64
	DropBytes    int64 // clean evictions, no traffic
	P2PInBytes   int64
	P2POutBytes  int64

	SwapIns  int
	SwapOuts int
	Drops    int

	// Per-tensor-class traffic, for comparing against the paper's
	// analytical swap model (Fig. 5).
	KindSwapIn  [tensor.NumKinds]int64
	KindSwapOut [tensor.NumKinds]int64

	// HighWaterUsed is the peak bytes physically resident.
	// HighWaterDemand is the peak bytes of live tensors homed to the
	// device whether resident or swapped out — the "memory usage"
	// bars of Fig. 2(c) that stick out above GPU capacity.
	HighWaterUsed   int64
	HighWaterDemand int64
}

// devState is one device's byte accounting, LRU list and acquire queue.
type devState struct {
	dev *hw.Device

	used int64 // bytes physically resident (incl. in-flight swap-ins)
	// wsReserved is workspace held by running tasks; evictions cannot
	// reclaim it.
	wsReserved int64
	// pendingFree is bytes being evicted right now (freed when their
	// writeback completes).
	pendingFree int64
	// demand is live bytes homed to this device (resident or swapped
	// out); see DeviceStats.HighWaterDemand.
	demand int64
	// usageHook observes every change to `used` (for timelines).
	usageHook func(used int64)
	stats     DeviceStats

	// The LRU is a list threaded through links, the Manager's per-tensor
	// link table (one table serves every device: a tensor is resident on
	// one device at a time). lruHead is the coldest tensor's ID, noTensor
	// when empty.
	lruHead, lruTail int
	links            []lruLink
	queue            []*acquire
}

// lruLink is one tensor's place in a device's LRU list, indexed by the
// dense tensor ID. dev is the device whose list holds it; hw.Host, which
// has no list, means none.
type lruLink struct {
	prev, next int
	dev        hw.DeviceID
}

// noTensor ends an LRU list.
const noTensor = -1

func (d *devState) free() int64 {
	return d.dev.MemBytes - d.used - d.wsReserved
}

// touch and forget maintain LRU order. touch makes st the most recently
// used tensor of d.
func (d *devState) touch(st *tensor.State) {
	id := st.Tensor.ID
	d.forget(st)
	l := &d.links[id]
	l.prev, l.next, l.dev = d.lruTail, noTensor, d.dev.ID
	if d.lruTail == noTensor {
		d.lruHead = id
	} else {
		d.links[d.lruTail].next = id
	}
	d.lruTail = id
}

// forget unlinks st if it is on d's list.
func (d *devState) forget(st *tensor.State) {
	l := &d.links[st.Tensor.ID]
	if l.dev != d.dev.ID {
		return
	}
	if l.prev == noTensor {
		d.lruHead = l.next
	} else {
		d.links[l.prev].next = l.next
	}
	if l.next == noTensor {
		d.lruTail = l.prev
	} else {
		d.links[l.next].prev = l.prev
	}
	l.dev = hw.Host
}

// dequeue removes the head acquire by shifting the few that wait behind
// it down, so the queue keeps its array.
func (d *devState) dequeue() {
	n := copy(d.queue, d.queue[1:])
	d.queue[n] = nil
	d.queue = d.queue[:n]
}

func (d *devState) addUsed(b int64) {
	d.used += b
	if d.used > d.stats.HighWaterUsed {
		d.stats.HighWaterUsed = d.used
	}
	if d.usageHook != nil {
		d.usageHook(d.used)
	}
}

// subUsed releases resident bytes.
func (d *devState) subUsed(b int64) {
	d.used -= b
	if d.usageHook != nil {
		d.usageHook(d.used)
	}
}

func (d *devState) addDemand(b int64) {
	d.demand += b
	if d.demand > d.stats.HighWaterDemand {
		d.stats.HighWaterDemand = d.demand
	}
}

// acquire is one pending residency request. Its bookkeeping is
// positional: pinned[i] describes want[i]. It records no transfer it
// started: one in flight sets its tensor's InFlight, which advance
// waits out before it looks again.
//
// A granted acquire goes back on Manager.acqs; a failed one is dropped
// instead.
type acquire struct {
	dev      *devState
	want     []*tensor.State
	pinned   []bool
	outputs  []*tensor.State
	outBytes int64
	ws       int64
	ready    func()
	fail     func(error)
	failed   bool

	// Backing for want/outputs and pinned, kept across reuse.
	states []*tensor.State
	flags  []bool
}

// xferKind is what a transfer does; xferNames are the Hook's names.
type xferKind int8

const (
	swapIn xferKind = iota
	swapOut
	migrate
)

var xferNames = [...]string{"swap-in", "swap-out", "p2p"}

// xfer is one DMA in flight: a swap-in, a writeback or a p2p move. done
// is finish, bound once, and the record goes back on Manager.xfers when
// finish has run, so issuing a transfer builds nothing.
type xfer struct {
	m    *Manager
	done func(at sim.Time)

	kind xferKind
	// d is the device the transfer lands on, or a writeback leaves; src
	// is a migration's source.
	d, src *devState
	st     *tensor.State
	start  sim.Time
}

// Manager owns tensor states and device memory for one training run.
type Manager struct {
	eng    *sim.Engine
	top    *hw.Topology
	reg    *tensor.Registry
	pol    Policy
	states []tensor.State
	devs   []*devState
	// acqs and xfers are the free lists of spent acquire and transfer
	// records.
	acqs  []*acquire
	xfers []*xfer
	// home[id] is the device whose working set live tensor id belongs
	// to (for demand accounting); hw.Host, never a working set, means
	// none.
	home []hw.DeviceID

	// fatal, once set, poisons all further operations; the runtime
	// checks it after the simulation drains.
	fatal error

	// Hook, when non-nil, observes every completed transfer and drop
	// (for Gantt traces). kind is "swap-in", "swap-out", "p2p" or
	// "drop"; start==end for drops.
	Hook func(kind string, t *tensor.Tensor, dev hw.DeviceID, start, end sim.Time)

	// NextUse, when non-nil and Policy.Lookahead is set, returns the
	// queue position of the next task on dev that uses the tensor
	// (a large value when it is never used again). Installed by the
	// runtime, which knows the schedule.
	NextUse func(id int, dev hw.DeviceID) int
}

// New creates a manager for all tensors in reg over the topology.
func New(eng *sim.Engine, top *hw.Topology, reg *tensor.Registry, pol Policy) *Manager {
	m := &Manager{eng: eng, top: top, reg: reg, pol: pol}
	m.states = make([]tensor.State, reg.Len())
	m.home = make([]hw.DeviceID, reg.Len())
	links := make([]lruLink, reg.Len())
	for _, t := range reg.All() {
		m.states[t.ID] = *tensor.NewState(t)
		m.home[t.ID] = hw.Host
		links[t.ID].dev = hw.Host
	}
	for _, d := range top.GPUs {
		m.devs = append(m.devs, &devState{dev: d, lruHead: noTensor, lruTail: noTensor, links: links})
	}
	return m
}

// State returns the lifetime state machine for a tensor.
func (m *Manager) State(t *tensor.Tensor) *tensor.State { return &m.states[t.ID] }

// Err returns the first fatal error, if any.
func (m *Manager) Err() error { return m.fatal }

// Stats returns a copy of the per-device statistics.
func (m *Manager) Stats(dev hw.DeviceID) DeviceStats { return m.devs[dev].stats }

// Used returns bytes currently resident on a device.
func (m *Manager) Used(dev hw.DeviceID) int64 { return m.devs[dev].used }

// OnUsageChange installs a per-device observer of resident-bytes
// changes (the memory-usage timeline of Fig. 2(c)). The observer must
// not reenter the Manager.
func (m *Manager) OnUsageChange(dev hw.DeviceID, fn func(used int64)) {
	m.devs[dev].usageHook = fn
}

// InitHost materializes tensors in host memory (initial weights,
// optimizer state, gradient buffers, input batches).
func (m *Manager) InitHost(ts ...*tensor.Tensor) error {
	for _, t := range ts {
		if err := m.State(t).AllocHost(); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) setFatal(err error) {
	if m.fatal == nil {
		m.fatal = err
		m.eng.Stop()
	}
}

// transfer issues x's DMA; a transfer the topology refuses poisons the
// run via Err. Like Topology.Transfer, x.done fires from a later engine
// event, never synchronously.
func (m *Manager) transfer(src, dst hw.DeviceID, x *xfer) {
	if err := m.top.Transfer(src, dst, x.st.Tensor.Bytes, x.done); err != nil {
		m.setFatal(err)
	}
}

// newXfer takes a transfer record off the free list, or builds one with
// its completion bound, and starts it now.
func (m *Manager) newXfer(kind xferKind, d *devState, st *tensor.State) *xfer {
	var x *xfer
	if n := len(m.xfers); n > 0 {
		x = m.xfers[n-1]
		m.xfers = m.xfers[:n-1]
	} else {
		x = &xfer{m: m}
		x.done = x.finish
	}
	*x = xfer{m: m, done: x.done, kind: kind, d: d, st: st, start: m.eng.Now()}
	return x
}

// Acquire requests residency of inputs on dev, plus space for outputs
// and workspace bytes. When granted: inputs and freshly allocated
// outputs are pinned, workspace is reserved, and ready runs. On an
// impossible request, fail runs instead.
func (m *Manager) Acquire(dev hw.DeviceID, inputs, outputs []*tensor.Tensor, workspace int64, ready func(), fail func(error)) {
	d := m.devs[dev]
	var needBytes int64
	for i, t := range inputs {
		for _, u := range inputs[:i] {
			if u == t {
				// Pins are counted per position; a tensor listed twice
				// would be pinned twice for one task.
				fail(fmt.Errorf("memory: task on %s lists input %s twice", dev, t))
				return
			}
		}
		needBytes += t.Bytes
	}
	for _, t := range outputs {
		needBytes += t.Bytes
	}
	if needBytes+workspace > d.dev.MemBytes {
		fail(fmt.Errorf("memory: task needs %d bytes on %s (capacity %d): no schedule can fit it",
			needBytes+workspace, dev, d.dev.MemBytes))
		return
	}
	a := m.newAcquire(len(inputs), len(outputs))
	for i, t := range inputs {
		a.want[i] = m.State(t)
	}
	for i, t := range outputs {
		a.outputs[i] = m.State(t)
		a.outBytes += t.Bytes
	}
	a.dev, a.ws, a.ready, a.fail = d, workspace, ready, fail
	d.queue = append(d.queue, a)
	m.pump(d)
}

// newAcquire takes an acquire record off the free list, or builds one,
// with room for ni inputs and no outputs and every flag clear.
func (m *Manager) newAcquire(ni, no int) *acquire {
	var a *acquire
	if n := len(m.acqs); n > 0 {
		a = m.acqs[n-1]
		m.acqs = m.acqs[:n-1]
	} else {
		a = new(acquire)
	}
	// One array for the states (want, then outputs), one for the flags.
	n := ni + no
	if cap(a.states) < n {
		a.states = make([]*tensor.State, n)
	}
	if cap(a.flags) < ni {
		a.flags = make([]bool, ni)
	}
	a.want, a.outputs = a.states[:ni:ni], a.states[ni:n]
	a.pinned = a.flags[:ni]
	clear(a.pinned)
	a.outBytes, a.failed = 0, false
	return a
}

// Release ends a task's residency claims: unpins inputs and outputs,
// marks mutated tensors dirty, frees dead tensors, and releases the
// workspace reservation.
func (m *Manager) Release(dev hw.DeviceID, inputs, outputs, mutates, frees []*tensor.Tensor, workspace int64) error {
	d := m.devs[dev]
	for _, t := range mutates {
		if err := m.states[t.ID].MarkDirty(dev); err != nil {
			return err
		}
	}
	for _, t := range inputs {
		if err := m.states[t.ID].Unpin(); err != nil {
			return err
		}
	}
	for _, t := range outputs {
		if err := m.states[t.ID].Unpin(); err != nil {
			return err
		}
	}
	d.wsReserved -= workspace
	if d.wsReserved < 0 {
		return fmt.Errorf("memory: workspace reservation underflow on %s", dev)
	}
	for _, t := range frees {
		if err := m.FreeTensor(t); err != nil {
			return err
		}
	}
	m.pumpAll()
	return nil
}

// FreeTensor destroys a tensor wherever it lives (last use passed, or
// iteration cleanup), with its home accounting; any queued acquire the
// freed space lets proceed is pumped before returning.
func (m *Manager) FreeTensor(t *tensor.Tensor) error {
	st := m.State(t)
	if st.Loc == tensor.LocNone {
		return nil
	}
	if st.OnAnyDevice() {
		d := m.devs[st.Dev]
		d.forget(st)
		d.subUsed(t.Bytes)
	}
	if h := m.home[t.ID]; h != hw.Host {
		m.devs[h].addDemand(-t.Bytes)
		m.home[t.ID] = hw.Host
	}
	if err := st.Free(); err != nil {
		return err
	}
	m.pumpAll()
	return nil
}

func (m *Manager) setHome(t *tensor.Tensor, dev hw.DeviceID) {
	if h := m.home[t.ID]; h != hw.Host {
		if h == dev {
			return
		}
		m.devs[h].addDemand(-t.Bytes)
	}
	m.home[t.ID] = dev
	m.devs[dev].addDemand(t.Bytes)
}

// Prefetch opportunistically swaps a tensor into dev if it is
// host-resident, idle, and fits without evicting anything. It never
// blocks or fails; at worst it does nothing.
func (m *Manager) Prefetch(dev hw.DeviceID, t *tensor.Tensor) {
	st := m.State(t)
	d := m.devs[dev]
	if st.Loc != tensor.LocHost || st.InFlight || d.free() < t.Bytes {
		return
	}
	m.startSwapIn(d, st)
}

// pumpAll advances every device's queue; cheap, and avoids missed
// wakeups from cross-device interactions.
func (m *Manager) pumpAll() {
	for _, d := range m.devs {
		m.pump(d)
	}
}

// pump advances the head acquire of a device as far as possible. A
// granted acquire is dequeued and its pins taken before its ready
// callback runs, so ready may synchronously reenter the Manager (the
// runtime's does, to prefetch and to release collectives).
func (m *Manager) pump(d *devState) {
	for len(d.queue) > 0 && m.fatal == nil {
		a := d.queue[0]
		if a.failed {
			d.dequeue()
			continue
		}
		granted, progress := m.advance(a)
		if granted {
			d.dequeue()
			// ready may reenter Acquire and reuse the record at once.
			ready := a.ready
			m.acqs = append(m.acqs, a)
			ready()
			continue
		}
		if !progress {
			return
		}
	}
}

// advance tries to move one acquire forward. It returns granted=true
// when the acquire is fully satisfied, and progress=true if it
// changed any state (so the pump loop re-evaluates). Pins taken here
// are owned by the acquire and released when the task calls Release.
func (m *Manager) advance(a *acquire) (granted, progress bool) {
	d := a.dev
	dev := d.dev.ID
	allPinned := true
	for i, st := range a.want {
		if a.pinned[i] {
			continue
		}
		switch {
		case st.OnDevice(dev):
			if st.InFlight {
				allPinned = false
				continue // eviction or migration racing us; wait
			}
			if err := st.Pin(); err != nil {
				m.failAcquire(a, err)
				return false, false
			}
			d.touch(st)
			a.pinned[i] = true
			progress = true
		case st.InFlight:
			// In transit somewhere (prefetch landing here, or an
			// eviction elsewhere); re-evaluate when it settles.
			allPinned = false
		case st.OnAnyDevice():
			// Resident on another device.
			allPinned = false
			if m.pol.P2P && m.top.CanP2P(st.Dev, dev) {
				if st.Pins > 0 {
					continue // peer task still using it; wait
				}
				if !m.ensureSpace(d, st.Tensor.Bytes) {
					return false, progress
				}
				m.startMigrate(d, st)
				progress = true
			} else {
				// Host bounce, step 1: push it out of the peer; the
				// host case below handles step 2 next round. If the
				// peer still has it pinned, wait for release.
				if st.Pins > 0 {
					continue
				}
				m.startEviction(m.devs[st.Dev], st)
				progress = true
			}
		case st.HostValid():
			allPinned = false
			if !m.ensureSpace(d, st.Tensor.Bytes) {
				return false, progress
			}
			m.startSwapIn(d, st)
			progress = true
		default:
			m.failAcquire(a, fmt.Errorf("memory: task on %s needs %s which was never materialized", dev, st.Tensor))
			return false, false
		}
	}
	if !allPinned {
		return false, progress
	}
	// All inputs pinned: make room for outputs + workspace, then
	// allocate outputs and reserve workspace.
	if a.outBytes+a.ws > 0 && !m.ensureSpace(d, a.outBytes+a.ws) {
		return false, progress
	}
	for _, st := range a.outputs {
		if err := st.AllocDevice(dev); err != nil {
			m.failAcquire(a, err)
			return false, false
		}
		if err := st.Pin(); err != nil {
			m.failAcquire(a, err)
			return false, false
		}
		d.addUsed(st.Tensor.Bytes)
		d.touch(st)
		m.setHome(st.Tensor, dev)
	}
	d.wsReserved += a.ws
	return true, true
}

func (m *Manager) failAcquire(a *acquire, err error) {
	a.failed = true
	a.fail(err)
}

// ensureSpace makes progress toward `need` free bytes on d, starting
// evictions as necessary. It returns true if the space is available
// now.
func (m *Manager) ensureSpace(d *devState, need int64) bool {
	if d.free() >= need {
		return true
	}
	// Start evictions until in-flight frees would cover the deficit.
	for d.free()+d.pendingFree < need {
		victim := m.pickVictim(d)
		if victim == nil {
			// Nothing evictable right now; wait for pins or
			// transfers to release memory. Progress is guaranteed
			// because the feasibility check bounds each acquire.
			return false
		}
		m.startEviction(d, victim)
	}
	// Clean drops free space synchronously; re-check rather than
	// forcing a needless wait.
	return d.free() >= need
}

// pickVictim returns the eviction victim: with lookahead, the
// unpinned idle resident tensor whose next scheduled use is farthest
// away (Belady); otherwise the least-recently-used one. LRU order
// breaks lookahead ties.
func (m *Manager) pickVictim(d *devState) *tensor.State {
	if m.pol.Lookahead && m.NextUse != nil {
		var best *tensor.State
		bestUse := -1
		for id := d.lruHead; id != noTensor; id = d.links[id].next {
			st := &m.states[id]
			if st.Pins > 0 || st.InFlight {
				continue
			}
			use := m.NextUse(st.Tensor.ID, d.dev.ID)
			if use > bestUse {
				best, bestUse = st, use
			}
		}
		return best
	}
	for id := d.lruHead; id != noTensor; id = d.links[id].next {
		st := &m.states[id]
		if st.Pins == 0 && !st.InFlight {
			return st
		}
	}
	return nil
}

// startEviction removes st from d, either by a free clean drop (when
// dirty tracking is on and the host copy is valid) or by an async
// writeback.
func (m *Manager) startEviction(d *devState, st *tensor.State) {
	if m.pol.DirtyTracking && !st.Dirty() {
		if err := st.Drop(); err != nil {
			m.setFatal(err)
			return
		}
		d.forget(st)
		d.subUsed(st.Tensor.Bytes)
		d.stats.DropBytes += st.Tensor.Bytes
		d.stats.Drops++
		if m.Hook != nil {
			m.Hook("drop", st.Tensor, d.dev.ID, m.eng.Now(), m.eng.Now())
		}
		return
	}
	if err := st.BeginSwapOut(); err != nil {
		m.setFatal(err)
		return
	}
	d.forget(st)
	bytes := st.Tensor.Bytes
	d.pendingFree += bytes
	d.stats.SwapOutBytes += bytes
	d.stats.SwapOuts++
	d.stats.KindSwapOut[st.Tensor.Kind] += bytes
	m.transfer(d.dev.ID, hw.Host, m.newXfer(swapOut, d, st))
}

// startSwapIn begins a host→device copy; memory is charged at start.
func (m *Manager) startSwapIn(d *devState, st *tensor.State) {
	if err := st.BeginSwapIn(d.dev.ID); err != nil {
		m.setFatal(err)
		return
	}
	bytes := st.Tensor.Bytes
	d.addUsed(bytes)
	d.stats.SwapInBytes += bytes
	d.stats.SwapIns++
	d.stats.KindSwapIn[st.Tensor.Kind] += bytes
	m.transfer(hw.Host, d.dev.ID, m.newXfer(swapIn, d, st))
}

// startMigrate begins a p2p device→device move into d.
func (m *Manager) startMigrate(d *devState, st *tensor.State) {
	src := m.devs[st.Dev]
	if err := st.BeginMigrate(d.dev.ID); err != nil {
		m.setFatal(err)
		return
	}
	src.forget(st)
	bytes := st.Tensor.Bytes
	d.addUsed(bytes)
	src.stats.P2POutBytes += bytes
	d.stats.P2PInBytes += bytes
	x := m.newXfer(migrate, d, st)
	x.src = src
	m.transfer(src.dev.ID, d.dev.ID, x)
}

// finish completes x's transfer, then puts the record back on the free
// list before pumping, which may issue the next transfer on it.
func (x *xfer) finish(at sim.Time) {
	m, d, st := x.m, x.d, x.st
	bytes := st.Tensor.Bytes
	switch x.kind {
	case swapIn:
		if err := st.EndSwapIn(); err != nil {
			m.setFatal(err)
			return
		}
		d.touch(st)
		m.setHome(st.Tensor, d.dev.ID)
	case swapOut:
		if err := st.EndSwapOut(); err != nil {
			m.setFatal(err)
			return
		}
		d.pendingFree -= bytes
		d.subUsed(bytes)
	case migrate:
		if err := st.EndMigrate(d.dev.ID); err != nil {
			m.setFatal(err)
			return
		}
		x.src.subUsed(bytes)
		d.touch(st)
		m.setHome(st.Tensor, d.dev.ID)
	}
	if m.Hook != nil {
		m.Hook(xferNames[x.kind], st.Tensor, d.dev.ID, x.start, at)
	}
	m.xfers = append(m.xfers, x)
	m.pumpAll()
}
