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
// pinned/pending flags are positional, parallel to its input list (which
// is why Acquire refuses an input listed twice). The simulator's hot
// loop builds one object per acquire and none per LRU move.
//
// Locking discipline (DESIGN.md §12): scheduling state — tensor state
// machines, acquire queues, LRU lists, the home table — is guarded by
// Manager.mu. Every exported scheduling method takes mu for its full
// duration, as do the transfer-completion closures when the simulation
// engine fires them; unexported helpers (pump, advance, ensureSpace,
// startEviction, startSwapIn, startMigrate, freeLocked, setHome,
// setFatal) require mu held. The lock is not reentrant. An acquire's
// ready callback is invoked with mu RELEASED (pump dequeues the grant
// first, then unlocks around the call) at exactly the same program
// point as the historical lock-free code, so ready may reenter the
// Manager and single-threaded simulation event order is unchanged.
// fail, Hook and NextUse run WITH mu held and must not synchronously
// reenter the Manager.
//
// Byte accounting — used, wsReserved, pendingFree, demand, statistics,
// the usage hook — is sharded per device behind devShard.mu, so stats
// and usage reads (Used, Stats, TotalStats, per-device timelines) and
// accounting updates on different devices never serialize on
// Manager.mu. Lock order is Manager.mu → devShard.mu, taken briefly
// inside the accounting helpers; no path holds two shard locks at
// once, and multi-shard sweeps visit shards one at a time in ascending
// device order. usageHook fires after the shard lock is released, in
// Manager.mu order (all mutations happen under it), and must not
// reenter the Manager.
package memory

import (
	"fmt"
	"sync"

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
	KindP2P     [tensor.NumKinds]int64

	// HighWaterUsed is the peak bytes physically resident.
	// HighWaterDemand is the peak bytes of live tensors homed to the
	// device whether resident or swapped out — the "memory usage"
	// bars of Fig. 2(c) that stick out above GPU capacity.
	HighWaterUsed   int64
	HighWaterDemand int64
}

// devShard is one device's accounting shard. The byte counters,
// statistics and usage hook live behind the shard's own mu (see the
// package comment for the Manager.mu → devShard.mu order); scheduling
// state — the LRU, the acquire queue — stays under Manager.mu.
type devShard struct {
	dev *hw.Device

	mu   sync.Mutex
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

	// Owned by Manager.mu, like all scheduling state. The LRU is a list
	// threaded through links, the Manager's per-tensor link table (one
	// table serves every shard: a tensor is resident on one device at a
	// time). lruHead is the coldest tensor's ID, noTensor when empty.
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

func (d *devShard) free() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dev.MemBytes - d.used - d.wsReserved
}

// headroom returns free and pending-free bytes from one consistent
// shard critical section (the eviction loop compares their sum).
func (d *devShard) headroom() (free, pending int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dev.MemBytes - d.used - d.wsReserved, d.pendingFree
}

func (d *devShard) usedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// touch and forget maintain LRU order; Manager.mu guards them. touch
// makes st the most recently used tensor of d.
func (d *devShard) touch(st *tensor.State) {
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
func (d *devShard) forget(st *tensor.State) {
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
// it down, so the queue keeps its array; Manager.mu guards it.
func (d *devShard) dequeue() {
	n := copy(d.queue, d.queue[1:])
	d.queue[n] = nil
	d.queue = d.queue[:n]
}

func (d *devShard) addUsed(b int64) {
	d.mu.Lock()
	d.used += b
	if d.used > d.stats.HighWaterUsed {
		d.stats.HighWaterUsed = d.used
	}
	hook, used := d.usageHook, d.used
	d.mu.Unlock()
	if hook != nil {
		hook(used)
	}
}

// subUsed releases resident bytes.
func (d *devShard) subUsed(b int64) {
	d.mu.Lock()
	d.used -= b
	hook, used := d.usageHook, d.used
	d.mu.Unlock()
	if hook != nil {
		hook(used)
	}
}

func (d *devShard) addDemand(b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.demand += b
	if d.demand > d.stats.HighWaterDemand {
		d.stats.HighWaterDemand = d.demand
	}
}

func (d *devShard) addPendingFree(b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pendingFree += b
}

// addWS adjusts the workspace reservation and returns the new value
// (Release checks it for underflow).
func (d *devShard) addWS(b int64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wsReserved += b
	return d.wsReserved
}

// note runs fn on the shard's statistics under the shard lock.
func (d *devShard) note(fn func(s *DeviceStats)) {
	d.mu.Lock()
	fn(&d.stats)
	d.mu.Unlock()
}

func (d *devShard) statsSnapshot() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// acquire is one pending residency request. Its bookkeeping is
// positional: pinned[i] and pending[i] describe want[i].
type acquire struct {
	dev      *devShard
	want     []*tensor.State
	pinned   []bool
	pending  []bool // transfers in flight on our behalf
	outputs  []*tensor.State
	outBytes int64
	ws       int64
	ready    func()
	fail     func(error)
	failed   bool

	// Backing for want/outputs and pinned/pending when the task is
	// small enough (every layer-level task is), so that an acquire is
	// one allocation.
	stateBuf [inlineStates]*tensor.State
	flagBuf  [2 * inlineStates]bool
}

const inlineStates = 6

// Manager owns tensor states and device memory for one training run.
// See the package comment for the locking discipline.
type Manager struct {
	mu     sync.Mutex
	eng    *sim.Engine
	top    *hw.Topology
	reg    *tensor.Registry
	pol    Policy
	states []*tensor.State
	devs   []*devShard
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
	m.states = make([]*tensor.State, reg.Len())
	m.home = make([]hw.DeviceID, reg.Len())
	links := make([]lruLink, reg.Len())
	for _, t := range reg.All() {
		m.states[t.ID] = tensor.NewState(t)
		m.home[t.ID] = hw.Host
		links[t.ID].dev = hw.Host
	}
	for _, d := range top.GPUs {
		m.devs = append(m.devs, &devShard{dev: d, lruHead: noTensor, lruTail: noTensor, links: links})
	}
	return m
}

// State returns the lifetime state machine for a tensor. The states
// slice is immutable after New; reading the returned State while the
// manager is pumping transfers is the caller's concern.
func (m *Manager) State(t *tensor.Tensor) *tensor.State { return m.states[t.ID] }

// Err returns the first fatal error, if any.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fatal
}

// Stats returns a copy of the per-device statistics. It takes only
// the device's accounting shard lock, so sampling stats mid-run never
// contends with scheduling on other devices.
func (m *Manager) Stats(dev hw.DeviceID) DeviceStats {
	return m.devs[dev].statsSnapshot()
}

// TotalStats sums statistics across devices, sweeping the shards one
// at a time in ascending device order; each device's contribution is a
// consistent snapshot.
func (m *Manager) TotalStats() DeviceStats {
	var s DeviceStats
	for _, d := range m.devs {
		ds := d.statsSnapshot()
		s.SwapInBytes += ds.SwapInBytes
		s.SwapOutBytes += ds.SwapOutBytes
		s.DropBytes += ds.DropBytes
		s.P2PInBytes += ds.P2PInBytes
		s.P2POutBytes += ds.P2POutBytes
		s.SwapIns += ds.SwapIns
		s.SwapOuts += ds.SwapOuts
		s.Drops += ds.Drops
		for k := 0; k < tensor.NumKinds; k++ {
			s.KindSwapIn[k] += ds.KindSwapIn[k]
			s.KindSwapOut[k] += ds.KindSwapOut[k]
			s.KindP2P[k] += ds.KindP2P[k]
		}
	}
	return s
}

// Used returns bytes currently resident on a device (shard lock only).
func (m *Manager) Used(dev hw.DeviceID) int64 {
	return m.devs[dev].usedBytes()
}

// OnUsageChange installs a per-device observer of resident-bytes
// changes (the memory-usage timeline of Fig. 2(c)). The observer runs
// after the shard lock is released and must not reenter the Manager.
func (m *Manager) OnUsageChange(dev hw.DeviceID, fn func(used int64)) {
	d := m.devs[dev]
	d.mu.Lock()
	defer d.mu.Unlock()
	d.usageHook = fn
}

// InitHost materializes tensors in host memory (initial weights,
// optimizer state, gradient buffers, input batches).
func (m *Manager) InitHost(ts ...*tensor.Tensor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range ts {
		if err := m.states[t.ID].AllocHost(); err != nil {
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

// transfer issues a DMA; a transfer the topology refuses poisons the
// run via Err. Requires mu held; like Topology.Transfer, done fires
// from a later engine event, never synchronously.
func (m *Manager) transfer(src, dst hw.DeviceID, bytes int64, done func(at sim.Time)) {
	if err := m.top.Transfer(src, dst, bytes, done); err != nil {
		m.setFatal(err)
	}
}

// Acquire requests residency of inputs on dev, plus space for outputs
// and workspace bytes. When granted: inputs and freshly allocated
// outputs are pinned, workspace is reserved, and ready runs. On an
// impossible request, fail runs instead.
func (m *Manager) Acquire(dev hw.DeviceID, inputs, outputs []*tensor.Tensor, workspace int64, ready func(), fail func(error)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.devs[dev]
	a := &acquire{dev: d, ws: workspace, ready: ready, fail: fail}
	// One array each for the states (want, then outputs) and the flags
	// (pinned, then pending).
	ni, n := len(inputs), len(inputs)+len(outputs)
	states, flags := a.stateBuf[:], a.flagBuf[:]
	if n > inlineStates {
		states, flags = make([]*tensor.State, n), make([]bool, 2*ni)
	}
	a.want, a.outputs = states[:ni:ni], states[ni:n]
	a.pinned, a.pending = flags[:ni:ni], flags[ni:2*ni]
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
		a.want[i] = m.states[t.ID]
		needBytes += t.Bytes
	}
	for i, t := range outputs {
		a.outputs[i] = m.states[t.ID]
		a.outBytes += t.Bytes
		needBytes += t.Bytes
	}
	if needBytes+workspace > d.dev.MemBytes {
		fail(fmt.Errorf("memory: task needs %d bytes on %s (capacity %d): no schedule can fit it",
			needBytes+workspace, dev, d.dev.MemBytes))
		return
	}
	d.queue = append(d.queue, a)
	m.pump(d)
}

// Release ends a task's residency claims: unpins inputs and outputs,
// marks mutated tensors dirty, frees dead tensors, and releases the
// workspace reservation.
func (m *Manager) Release(dev hw.DeviceID, inputs, outputs, mutates, frees []*tensor.Tensor, workspace int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
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
		if err := m.freeLocked(t); err != nil {
			return err
		}
	}
	m.pumpAll()
	return nil
}

// FreeTensor destroys a tensor wherever it lives (last use passed, or
// iteration cleanup).
func (m *Manager) FreeTensor(t *tensor.Tensor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freeLocked(t)
}

// freeLocked destroys t's residency and home accounting. Requires mu
// held; any queue progress it unlocks is pumped before returning.
func (m *Manager) freeLocked(t *tensor.Tensor) error {
	st := m.states[t.ID]
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
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.states[t.ID]
	d := m.devs[dev]
	if st.Loc != tensor.LocHost || st.InFlight || d.free() < t.Bytes {
		return
	}
	m.startSwapIn(d, st, nil, 0)
}

// pumpAll advances every device's queue; cheap, and avoids missed
// wakeups from cross-device interactions. Requires mu held (pump may
// release and retake it around ready callbacks).
func (m *Manager) pumpAll() {
	for _, d := range m.devs {
		m.pump(d)
	}
}

// pump advances the head acquire of a device as far as possible. It
// requires mu held, and releases it around each granted acquire's
// ready callback: the grant is already dequeued and its pins taken,
// so the state is consistent, and ready may synchronously reenter the
// Manager (the runtime's does, to prefetch and to release
// collectives). pump always returns with mu held.
func (m *Manager) pump(d *devShard) {
	for len(d.queue) > 0 && m.fatal == nil {
		a := d.queue[0]
		if a.failed {
			d.dequeue()
			continue
		}
		granted, progress := m.advance(a)
		if granted {
			d.dequeue()
			m.mu.Unlock()
			a.ready()
			m.mu.Lock()
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
// Requires mu held.
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
			a.pending[i] = false
			progress = true
		case st.InFlight:
			// In transit somewhere (prefetch landing here, or an
			// eviction elsewhere); re-evaluate when it settles.
			allPinned = false
		case st.OnAnyDevice():
			// Resident on another device.
			allPinned = false
			if a.pending[i] {
				continue
			}
			if m.pol.P2P && m.top.CanP2P(st.Dev, dev) {
				if st.Pins > 0 {
					continue // peer task still using it; wait
				}
				if !m.ensureSpace(d, st.Tensor.Bytes) {
					return false, progress
				}
				a.pending[i] = true
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
			if a.pending[i] {
				continue
			}
			if !m.ensureSpace(d, st.Tensor.Bytes) {
				return false, progress
			}
			a.pending[i] = true
			m.startSwapIn(d, st, a, i)
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
	d.addWS(a.ws)
	return true, true
}

func (m *Manager) failAcquire(a *acquire, err error) {
	a.failed = true
	a.fail(err)
}

// ensureSpace makes progress toward `need` free bytes on d, starting
// evictions as necessary. It returns true if the space is available
// now. Requires mu held.
func (m *Manager) ensureSpace(d *devShard, need int64) bool {
	if d.free() >= need {
		return true
	}
	// Start evictions until in-flight frees would cover the deficit.
	for {
		if free, pending := d.headroom(); free+pending >= need {
			break
		}
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
func (m *Manager) pickVictim(d *devShard) *tensor.State {
	if m.pol.Lookahead && m.NextUse != nil {
		var best *tensor.State
		bestUse := -1
		for id := d.lruHead; id != noTensor; id = d.links[id].next {
			st := m.states[id]
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
		st := m.states[id]
		if st.Pins == 0 && !st.InFlight {
			return st
		}
	}
	return nil
}

// startEviction removes st from d, either by a free clean drop (when
// dirty tracking is on and the host copy is valid) or by an async
// writeback. Requires mu held; the writeback-completion closure
// retakes it on its own goroutine.
func (m *Manager) startEviction(d *devShard, st *tensor.State) {
	if m.pol.DirtyTracking && !st.Dirty() {
		if err := st.Drop(); err != nil {
			m.setFatal(err)
			return
		}
		d.forget(st)
		d.subUsed(st.Tensor.Bytes)
		d.note(func(s *DeviceStats) {
			s.DropBytes += st.Tensor.Bytes
			s.Drops++
		})
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
	start := m.eng.Now()
	d.addPendingFree(bytes)
	d.note(func(s *DeviceStats) {
		s.SwapOutBytes += bytes
		s.SwapOuts++
		s.KindSwapOut[st.Tensor.Kind] += bytes
	})
	// Transfer never fires its callback synchronously (it schedules an
	// engine event), so re-taking mu in the completion closure cannot
	// deadlock against the lock we hold here.
	m.transfer(d.dev.ID, hw.Host, bytes, func(at sim.Time) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := st.EndSwapOut(); err != nil {
			m.setFatal(err)
			return
		}
		d.addPendingFree(-bytes)
		d.subUsed(bytes)
		if m.Hook != nil {
			m.Hook("swap-out", st.Tensor, d.dev.ID, start, at)
		}
		m.pumpAll()
	})
}

// startSwapIn begins a host→device copy; memory is charged at start.
// When the copy is on behalf of an acquire, a is that acquire and pos
// the position of st in a.want; a prefetch passes a nil a. Requires mu
// held; the DMA-completion closure retakes it on its own goroutine.
func (m *Manager) startSwapIn(d *devShard, st *tensor.State, a *acquire, pos int) {
	if err := st.BeginSwapIn(d.dev.ID); err != nil {
		m.setFatal(err)
		return
	}
	bytes := st.Tensor.Bytes
	start := m.eng.Now()
	d.addUsed(bytes)
	d.note(func(s *DeviceStats) {
		s.SwapInBytes += bytes
		s.SwapIns++
		s.KindSwapIn[st.Tensor.Kind] += bytes
	})
	m.transfer(hw.Host, d.dev.ID, bytes, func(at sim.Time) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := st.EndSwapIn(); err != nil {
			m.setFatal(err)
			return
		}
		d.touch(st)
		m.setHome(st.Tensor, d.dev.ID)
		if a != nil {
			a.pending[pos] = false
		}
		if m.Hook != nil {
			m.Hook("swap-in", st.Tensor, d.dev.ID, start, at)
		}
		m.pumpAll()
	})
}

// startMigrate begins a p2p device→device move into d. Requires mu
// held; the copy-completion closure retakes it on its own goroutine.
func (m *Manager) startMigrate(d *devShard, st *tensor.State) {
	src := m.devs[st.Dev]
	if err := st.BeginMigrate(d.dev.ID); err != nil {
		m.setFatal(err)
		return
	}
	src.forget(st)
	bytes := st.Tensor.Bytes
	start := m.eng.Now()
	d.addUsed(bytes)
	// Two shards are updated, one at a time — never both locks at once.
	src.note(func(s *DeviceStats) { s.P2POutBytes += bytes })
	d.note(func(s *DeviceStats) {
		s.P2PInBytes += bytes
		s.KindP2P[st.Tensor.Kind] += bytes
	})
	m.transfer(src.dev.ID, d.dev.ID, bytes, func(at sim.Time) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if err := st.EndMigrate(d.dev.ID); err != nil {
			m.setFatal(err)
			return
		}
		src.subUsed(bytes)
		d.touch(st)
		m.setHome(st.Tensor, d.dev.ID)
		if m.Hook != nil {
			m.Hook("p2p", st.Tensor, d.dev.ID, start, at)
		}
		m.pumpAll()
	})
}
