// Package exec is Harmony's real-execution runtime: it trains actual
// models (internal/nn kernels, real float32 data) under the same task
// graphs and schedules as the simulator, but on capacity-limited
// *virtual devices* whose memories form a coherent virtual memory
// backed by host buffers. Swaps are real memcpys; capacity limits are
// enforced exactly; eviction takes the pages that are free to lose
// first — the ones the plan says are all zeros (MarkZero) — and is LRU
// among the rest, with the same dirty-tracking and p2p policies as the
// simulated memory manager. A known-zero page never crosses the link:
// it is dropped without a write-back and comes back as a zero-fill.
//
// This is the proof that the paper's design trains models end to end:
// the quickstart and mnist examples push a model whose footprint
// exceeds per-device capacity through Harmony scheduling and verify
// the loss decreases.
package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/claimword"
	"harmony/internal/fault"
	"harmony/internal/memory"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// VMStats counts real data movement and fault handling.
type VMStats struct {
	SwapInBytes  int64
	SwapOutBytes int64
	DropBytes    int64
	P2PBytes     int64
	SwapIns      int
	SwapOuts     int
	Drops        int
	P2PMoves     int
	// ZeroFills counts known-zero pages (MarkZero) made resident by a
	// memset instead of a copy, demand or prefetch; their evictions
	// count under Drops. The Swap* counters stay what they were: bytes
	// and copies that crossed the link.
	ZeroFills     int
	ZeroFillBytes int64
	// FaultsInjected counts injected transfer faults observed by this
	// VM; Retries counts the re-attempts the retry layer issued for
	// them (successful retries leave FaultsInjected > Retries only
	// when a fault was fatal or retries were exhausted).
	FaultsInjected int
	Retries        int
	// Prefetch/overlap counters (see EnsureAsync / CleanAhead).
	// PrefetchIssued counts async swap-ins handed to the DMA engine;
	// PrefetchHits counts Ensure calls that found their tensor already
	// resident (or in flight) thanks to a prefetch; CleanAheads counts
	// proactive write-backs; AsyncDMANanos is the time the DMA
	// workers' copies held the link — their modeled reservations, or
	// with no bandwidth modeled the wall time of their memcpys — divide
	// by step wall time for the compute/swap overlap fraction.
	PrefetchIssued int
	PrefetchHits   int
	CleanAheads    int
	AsyncDMANanos  int64
}

// add accumulates counters (used to carry stats across the VM rebuild
// a recovery performs, and to sum per-shard counters).
func (s VMStats) add(o VMStats) VMStats {
	s.SwapInBytes += o.SwapInBytes
	s.SwapOutBytes += o.SwapOutBytes
	s.DropBytes += o.DropBytes
	s.P2PBytes += o.P2PBytes
	s.SwapIns += o.SwapIns
	s.SwapOuts += o.SwapOuts
	s.Drops += o.Drops
	s.P2PMoves += o.P2PMoves
	s.ZeroFills += o.ZeroFills
	s.ZeroFillBytes += o.ZeroFillBytes
	s.FaultsInjected += o.FaultsInjected
	s.Retries += o.Retries
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchHits += o.PrefetchHits
	s.CleanAheads += o.CleanAheads
	s.AsyncDMANanos += o.AsyncDMANanos
	return s
}

// buffer is one tensor's VM state. Concurrency splits its fields into
// three ownership domains:
//
//   - word/done: the packed atomic claim word (internal/claimword) and
//     the claim's wakeup channel. Mutated only by the state-machine
//     helpers in dma.go (claim/commit/settle/pin/unpin/
//     consumePrefetch), only via CAS — the claimdiscipline analyzer
//     enforces this.
//   - dev, devID, host, state: owned by the claim holder. Claims
//     require idleness and (except snapshot write-backs) zero pins, so
//     a successful claim CAS excludes every other writer; lock-free
//     readers first observe an idle word via an atomic load, which
//     happens-after the settle that published the fields. state is
//     atomic because pin holders write it (MarkDirty, MarkZero) while
//     shard scans (CleanAhead, EnsureAsync's LRU bump) read it. A claim
//     holder stores pageClean, after the copy that made it true (and
//     pageDirty on the page Alloc creates); on an existing page
//     pageDirty and pageZero are stored under a pin, by the task that
//     just wrote the device copy.
//   - last, prev, next: LRU bookkeeping, guarded by the owning
//     device's shard mutex. A buffer is linked iff its word is
//     resident-idle or claimed-resident; unlinking happens only under
//     the shard lock while holding the claim.
type buffer struct {
	t    *tensor.Tensor
	host []float32 // backing copy; nil until first host materialization
	dev  []float32 // device copy; nil when not resident
	// devID is the device holding dev, -1 when not resident. Written
	// only by the claim holder; atomic because Ensure and EnsureAsync
	// read it optimistically before they pin or claim.
	devID atomic.Int32
	state atomic.Uint32 // pageClean, pageDirty or pageZero

	// word is the packed DMA/residency/pin state machine; done points
	// to the current claim's wakeup channel, closed at settle. done is
	// published by the claim winner right after its CAS, so waiters
	// that observe a claimed word with a nil done simply yield and
	// re-observe.
	word atomic.Uint64
	done atomic.Pointer[chan struct{}]

	last int64 // LRU clock (diagnostics; ordering lives in the list)

	// Intrusive per-shard LRU list (least-recent at head).
	prev, next *buffer
}

// A page's state says what losing its device copy would lose.
const (
	// pageClean: the host copy is current. Evicting drops the device
	// copy under dirty tracking; a non-resident page is always clean
	// or zero.
	pageClean uint32 = iota
	// pageDirty: the device copy is newer than the host copy (or the
	// only one) and must be written back before it goes.
	pageDirty
	// pageZero: every element is +0, on the plan's word (MarkZero) and
	// not by inspection. The page needs no backing store: it is evicted
	// as a drop, its host copy released, and made resident again by a
	// memset. Entered only under MemPolicy.DirtyTracking.
	pageZero
)

func newBuffer(t *tensor.Tensor) *buffer {
	b := &buffer{t: t}
	b.devID.Store(-1)
	return b
}

func (b *buffer) floats() int { return int(b.t.Bytes / 4) }

// backed reports whether a non-resident b can be made resident: it has
// a host copy to read, or is known to be all zeros and needs none.
func (b *buffer) backed() bool { return b.host != nil || b.state.Load() == pageZero }

// load atomically observes b's claim word.
func (b *buffer) load() claimword.Word { return claimword.Word(b.word.Load()) }

// lruList is one device's residency list, least-recently-used first.
type lruList struct{ head, tail *buffer }

// vmShard is one device's slice of the VM: capacity accounting, LRU
// order, prefetch budget, DMA queue and movement stats, guarded by
// its own mutex so devices never contend with each other on the swap
// hot path.
type vmShard struct {
	mu sync.Mutex

	dev     int
	used    int64
	lru     lruList
	clock   int64
	pfBytes int64 // prefetched bytes in flight or resident-unconsumed
	// budget caps pfBytes for this shard. Seeded from the engine-wide
	// cap at StartEngine and retuned between steps by the adaptive
	// prefetch controller (SetPrefetchBudget); never exceeds
	// VM.budget, so static residency verification can use the
	// engine-wide cap as the worst case. Guarded by mu.
	budget int64
	stats  VMStats
	queue  []dmaReq
	work   *sync.Cond // signaled when queue grows or the VM closes
	// syncOuts counts synchronous write-backs (eviction or Host
	// stalls) on this device; cleanSeen is its value at the last
	// CleanAhead batch. Clean-ahead only arms after a new stall, so
	// workloads whose evictions are all drops never pay write-back
	// link traffic.
	syncOuts  int
	cleanSeen int
}

// VM is a coherent virtual memory across virtual devices.
//
// Locking discipline (DESIGN.md §12): the hot path is sharded by
// device. Each vmShard's mutex guards only that device's accounting —
// used bytes, LRU order, prefetch budget, DMA queue and stats.
// Per-buffer state (residency, pins, claim) lives in a packed atomic
// claim word driven by CAS (internal/claimword), so demand Ensure,
// prefetch EnsureAsync, eviction and DMA completion on different
// devices never touch a common lock. Copy execution (memcpy, modeled
// link time, fault-retry backoff) always runs with no shard lock
// held, under a buffer claim.
//
// Shard acquisition order: no code path holds two shard locks at
// once. Cross-device operations (p2p moves, multi-device sweeps like
// StatsSnapshot, Close and checkpoint save/load) visit shards one at
// a time in ascending device order; p2p reserves and charges the
// destination shard, releases it, and only then touches the source.
// Any future path that must nest shard locks must acquire them in
// ascending vmShard.dev order and say so in its doc comment (the
// lockhold analyzer checks the declaration).
//
// Deadlock discipline: synchronous paths may wait on waitable claims
// (async DMA-worker operations and committed sync claims), which
// always complete autonomously; eviction never waits on an
// uncommitted sync claim — the claimer may itself be waiting to
// reserve. Claims on resident buffers set async or committed in the
// claim CAS itself, so no observer ever sees a resident
// claimed-unwaitable buffer (the schedcheck DMA model proves this
// over all interleavings). DMA workers never wait on anything but
// their queue.
type VM struct {
	capacity int64
	pol      memory.Policy
	shards   []*vmShard

	// bufMu guards the tensor-ID → buffer map (and host backing
	// materialization, which happens at setup time); buffer state is
	// in the claim word, not here.
	bufMu sync.RWMutex
	bufs  map[int]*buffer

	// clk is the VM's only source of time: the timestamps it records
	// (DMA spans, overlap counters) and the modeled links' timelines
	// and sleeps (link.go) all go through it, which keeps wall time off
	// the deterministic path (enforced by the determinism analyzer) and
	// lets in-package tests run the link model on a trace.ManualClock.
	// Set before the first transfer, never after.
	clk trace.Clock
	// link is the modeled interconnect: one timeline per device link
	// plus the shared host uplink, and each lane's unslept debt.
	link linkModel

	// Async DMA engine (StartEngine). engOn flips once when the
	// engine starts; closed once at Close. pending counts queued or
	// in-flight async requests; the worker that drops it to zero
	// broadcasts idle under engMu, and WaitIdle holds engMu between
	// its check and its wait, so wakeups are never lost. budget is
	// immutable after StartEngine (published by engOn).
	engOn    atomic.Bool
	closed   atomic.Bool
	pending  atomic.Int64
	engMu    sync.Mutex
	idle     *sync.Cond // on engMu
	started  bool       // under engMu
	asyncErr error      // under engMu: first fatal fault on a DMA worker
	budget   int64      // per-device cap on pfBytes
	wg       sync.WaitGroup

	// cfgMu guards the injectable knobs; a transfer reads them once
	// (xferConfig), off the hot path.
	cfgMu sync.Mutex
	cfg   xferConfig
}

// xferConfig is what a transfer needs to know besides its operands.
type xferConfig struct {
	// bps is the bandwidth of every modeled link in bytes per second: a
	// copy then also occupies its path's links for bytes/bps and its
	// lane waits for that (link.go), so swap cost behaves like a PCIe
	// transfer instead of a memcpy. 0 (or less) disables modeling.
	bps int64
	// rec, when non-nil, receives DMA spans (outside any lock) for the
	// swap-overlap Gantt lanes.
	rec func(dev int, lane trace.Lane, label string, start, end time.Time)
	// Fault injection (SetFaultInjection): inj decides whether a
	// swap-in, swap-out or p2p copy about to run fails; transient
	// failures are retried up to maxRetries times with fault.Backoff
	// between attempts. Backoff sleeps run outside all locks — a
	// stalled transfer stalls only its own buffer's waiters, never
	// the other devices.
	inj        *fault.Injector
	maxRetries int
	stepFn     func() int // current trainer step for fault site identity
}

// xferConfig snapshots the knobs for one transfer.
func (vm *VM) xferConfig() xferConfig {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	return vm.cfg
}

// NewVM creates n virtual devices with the given per-device capacity.
func NewVM(devices int, capacityBytes int64, pol memory.Policy) *VM {
	if devices <= 0 || capacityBytes <= 0 {
		panic(fmt.Sprintf("exec: bad VM shape devices=%d capacity=%d", devices, capacityBytes))
	}
	vm := &VM{
		capacity: capacityBytes,
		pol:      pol,
		shards:   make([]*vmShard, devices),
		bufs:     make(map[int]*buffer),
		clk:      trace.WallClock{},
		link:     newLinkModel(devices),
	}
	for d := range vm.shards {
		sh := &vmShard{dev: d, cleanSeen: -1} // first CleanAhead may act before any stall
		sh.work = sync.NewCond(&sh.mu)
		vm.shards[d] = sh
	}
	vm.idle = sync.NewCond(&vm.engMu)
	return vm
}

// SetFaultInjection arms the VM with a fault injector. stepFn reports
// the current trainer step (called without any VM lock held; it must
// not call back into the VM). Passing a nil injector disarms.
func (vm *VM) SetFaultInjection(inj *fault.Injector, maxRetries int, stepFn func() int) {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	vm.cfg.inj = inj
	vm.cfg.maxRetries = maxRetries
	vm.cfg.stepFn = stepFn
}

// SetLinkBandwidth gives every modeled link — each device's and the
// host uplink they share — this bandwidth (0 disables modeling; copies
// then cost only their memcpy time).
func (vm *VM) SetLinkBandwidth(bytesPerSec int64) {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	vm.cfg.bps = bytesPerSec
}

// SetRecorder installs a DMA span recorder (nil disarms). fn is
// called outside all VM locks, on device-worker and DMA goroutines,
// and must be safe for concurrent use.
func (vm *VM) SetRecorder(fn func(dev int, lane trace.Lane, label string, start, end time.Time)) {
	vm.cfgMu.Lock()
	defer vm.cfgMu.Unlock()
	vm.cfg.rec = fn
}

// inject consults cfg's injector for a transfer op touching tensor t
// on dev, retrying transient faults in place with backoff. Must be
// called without any shard lock held: the backoff sleeps on the
// calling goroutine, so a flaky transfer stalls only the waiters of
// its own buffer. Per-site determinism is unchanged — decisions hash
// the operation identity, not the interleaving.
func (vm *VM) inject(cfg xferConfig, op fault.Op, dev int, t *tensor.Tensor) error {
	if cfg.inj.Rules() == 0 {
		return nil
	}
	step := 0
	if cfg.stepFn != nil {
		step = cfg.stepFn()
	}
	retries, err := injectRetrying(cfg.inj, op, dev, step, t.Layer, cfg.maxRetries)
	if retries > 0 || err != nil {
		sh := vm.shards[dev]
		sh.mu.Lock()
		sh.stats.Retries += retries
		sh.stats.FaultsInjected += retries // every retry answers an injected fault
		if err != nil {
			sh.stats.FaultsInjected++
		}
		sh.mu.Unlock()
	}
	return err
}

// injectRetrying consults the injector for one operation, retrying
// transient faults up to maxRetries times with fault.Backoff between
// attempts, and reports how many retries it took. The backoff sleeps on
// the calling goroutine, so call it without any lock held.
func injectRetrying(inj *fault.Injector, op fault.Op, dev, step, layer, maxRetries int) (int, error) {
	err := inj.Inject(op, dev, step, layer)
	attempt := 0
	for ; fault.IsTransient(err) && attempt < maxRetries; attempt++ {
		inj.NoteRetry(op, dev, step)
		time.Sleep(fault.Backoff(attempt))
		err = inj.Inject(op, dev, step, layer)
	}
	return attempt, err
}

// lookup resolves a tensor ID to its buffer under the map lock.
func (vm *VM) lookup(id int) (*buffer, bool) {
	vm.bufMu.RLock()
	b, ok := vm.bufs[id]
	vm.bufMu.RUnlock()
	return b, ok
}

// Used returns resident bytes on a device.
func (vm *VM) Used(dev int) int64 {
	sh := vm.shards[dev]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.used
}

// StatsSnapshot sums the per-shard movement counters, visiting shards
// one at a time in ascending device order (the fixed shard order —
// never two shard locks at once).
func (vm *VM) StatsSnapshot() VMStats {
	var s VMStats
	for _, sh := range vm.shards {
		sh.mu.Lock()
		s = s.add(sh.stats)
		sh.mu.Unlock()
	}
	return s
}

// ---------------------------------------------------------------- LRU

// lruPush links b as the most-recently-used buffer of sh and stamps
// its clock. Requires sh.mu held.
func (vm *VM) lruPush(sh *vmShard, b *buffer) {
	sh.clock++
	b.last = sh.clock
	l := &sh.lru
	b.prev, b.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
}

// lruRemove unlinks b from sh's list. Requires sh.mu held.
func (vm *VM) lruRemove(sh *vmShard, b *buffer) {
	l := &sh.lru
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

// touch bumps a linked buffer to most-recently-used. Requires sh.mu
// held and b linked on sh (idle-resident on sh.dev implies linked).
func (vm *VM) touch(sh *vmShard, b *buffer) {
	vm.lruRemove(sh, b)
	vm.lruPush(sh, b)
}

// demote moves a linked buffer to the head of sh's list: the next
// victim, ahead of everything the LRU order would pick. Requires sh.mu
// held and b linked on sh.
func (vm *VM) demote(sh *vmShard, b *buffer) {
	vm.lruRemove(sh, b)
	l := &sh.lru
	b.next = l.head
	if l.head != nil {
		l.head.prev = b
	} else {
		l.tail = b
	}
	l.head = b
}

// victim scans sh's LRU list once and returns the least-recently-used
// evictable buffer — resident, idle and unpinned per its claim word —
// or, when nothing is evictable, the least-recently-used buffer whose
// in-flight operation completes autonomously (an async DMA-worker op
// or a committed sync claim) for reserve to wait on. Known-zero pages
// need no special case here: MarkZero put them at the head, so the
// victims that are free to lose are the first ones met. One pass, each
// word observed once: claims settle without the shard lock, and a
// separate second scan for waiters would miss a DMA that landed between
// the two and report a full device. Walking the list (not the buffer
// map) keeps the choice deterministic for a given residency history.
// Requires sh.mu held; the word check is advisory — evict re-validates
// by claiming.
func (vm *VM) victim(sh *vmShard) (evictable, waitable *buffer) {
	// Prefetched-but-unused pages are about to be demanded by the
	// schedule; evicting one turns a hit into a re-fetch. Prefer any
	// other victim, falling back only when nothing else is evictable.
	var prefetched *buffer
	for b := sh.lru.head; b != nil; b = b.next {
		switch w := b.load(); {
		case w.State() != claimword.Idle:
			if waitable == nil && w.Waitable() {
				waitable = b
			}
		case w.Pins() > 0: // held by a running task: neither
		case w.Prefetched():
			if prefetched == nil {
				prefetched = b
			}
		default:
			return b, nil
		}
	}
	return prefetched, waitable
}

// --------------------------------------------------------- public API

// HostAlloc materializes a tensor's host backing (zeroed) and returns
// it. Idempotent for already-materialized tensors. Host backing is a
// setup-time operation: callers must not race it with transfers of
// the same tensor. The caller may go on to write the slice, so a
// known-zero page becomes an ordinary clean one, with a fresh backing in
// place of any stale one.
func (vm *VM) HostAlloc(t *tensor.Tensor) []float32 {
	vm.bufMu.Lock()
	defer vm.bufMu.Unlock()
	b, ok := vm.bufs[t.ID]
	if !ok {
		b = newBuffer(t)
		vm.bufs[t.ID] = b
	}
	if b.state.CompareAndSwap(pageZero, pageClean) || b.host == nil {
		b.host = make([]float32, b.floats())
	}
	return b.host
}

// ZeroAlloc materializes t as all zeros. Under dirty tracking that is a
// known-zero page with no copy anywhere — its first Ensure is a memset,
// not a swap-in; the naive policy gets the zeroed host backing it would
// have had from HostAlloc. Setup-time, like HostAlloc, and only for a
// tensor the VM has not seen.
func (vm *VM) ZeroAlloc(t *tensor.Tensor) {
	if !vm.pol.DirtyTracking {
		vm.HostAlloc(t)
		return
	}
	vm.bufMu.Lock()
	defer vm.bufMu.Unlock()
	if _, ok := vm.bufs[t.ID]; !ok {
		b := newBuffer(t)
		b.state.Store(pageZero)
		vm.bufs[t.ID] = b
	}
}

// Host returns the host backing, swapping the device copy back first
// if it is dirty (used to read results out). The claim is taken with
// committed set: a snapshot write-back holds everything it needs, so
// eviction on the buffer's device may wait on it. A known-zero page has
// no backing to return; it is given a fresh zeroed one and becomes an
// ordinary clean page, because the caller may write what it is handed.
func (vm *VM) Host(t *tensor.Tensor) ([]float32, error) {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil, fmt.Errorf("exec: tensor %s has no buffer", t)
		}
		if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedIdle) {
			vm.waitSettle(b)
			continue
		}
		// Claim held: dev/host/state are ours to read.
		resident := b.load().Resident()
		switch st := b.state.Load(); {
		case st == pageDirty && resident:
			if err := vm.writeBack(xferOut, int(b.devID.Load()), b); err != nil {
				vm.settle(b, true, 0)
				return nil, err
			}
		case st == pageZero:
			b.host = make([]float32, b.floats())
			b.state.Store(pageClean)
		}
		host := b.host
		vm.settle(b, resident, 0)
		if host == nil {
			return nil, fmt.Errorf("exec: tensor %s has no valid copy", t)
		}
		return host, nil
	}
}

// Ensure makes t resident on dev and pins it, returning the device
// slice. The tensor must have a valid copy somewhere. If a prefetch
// already swapped (or is swapping) it in, Ensure rides that DMA
// instead of copying twice.
//
// The fast path — tensor already resident on dev — is one pin CAS on
// the claim word plus a shard-local LRU touch; it takes no lock any
// other device can observe.
func (vm *VM) Ensure(dev int, t *tensor.Tensor) ([]float32, error) {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil, fmt.Errorf("exec: tensor %s was never materialized", t)
		}
		w := b.load()
		if w.State() != claimword.Idle {
			// A copy is in flight (possibly our own prefetch): ride it
			// out and re-evaluate. A prefetch landing in the right place
			// is counted as a hit by the fast path on the next pass.
			vm.waitSettle(b)
			continue
		}
		if w.Resident() && int(b.devID.Load()) == dev {
			if !vm.pin(b, w) {
				continue // word moved under us; re-evaluate
			}
			// Pinned: residency and placement are now frozen. Re-check
			// the placement read that preceded the pin (an eviction and
			// re-fetch elsewhere could have recycled the word bits).
			if int(b.devID.Load()) != dev {
				vm.unpin(b)
				continue
			}
			dst := b.dev
			hit := vm.consumePrefetch(b)
			sh := vm.shards[dev]
			sh.mu.Lock()
			if hit {
				sh.pfBytes -= b.t.Bytes
				sh.stats.PrefetchHits++
			}
			vm.touch(sh, b)
			sh.mu.Unlock()
			return dst, nil
		}
		if w.Resident() {
			if w.Pins() > 0 {
				// A correctly dispatched schedule never uses one tensor from
				// two in-flight tasks, so a cross-device request for a pinned
				// tensor is a dependency bug — fail loudly instead of
				// corrupting the running task's view.
				return nil, fmt.Errorf("exec: tensor %s pinned on gpu%d while requested on gpu%d (dependency bug)",
					t, b.devID.Load(), dev)
			}
			if vm.pol.P2P {
				dst, err := vm.moveP2P(dev, b)
				if err == errRetry {
					continue // b changed while reserving; re-evaluate
				}
				return dst, err
			}
			if err := vm.bounce(b); err != nil {
				if err == errRetry {
					continue
				}
				return nil, err
			}
			continue // now host-only; swap in on the next pass
		}
		if !b.backed() {
			return nil, fmt.Errorf("exec: tensor %s has no valid copy to swap in", t)
		}
		dst, err := vm.swapIn(dev, b)
		if err == errRetry {
			continue
		}
		return dst, err
	}
}

// swapIn demand-loads non-resident b onto dev and pins it. The fill runs
// on the caller's goroutine with no shard lock held. b is claimed but
// non-resident while reserving, so no eviction scan can see it;
// residency and the committed mark are established by a single commit
// CAS, upholding the invariant that every claim on a resident buffer
// completes autonomously.
func (vm *VM) swapIn(dev int, b *buffer) ([]float32, error) {
	if !vm.claim(b, claimword.SwapIn, false, false, claimword.NeedEmpty) {
		return nil, errRetry
	}
	sh := vm.shards[dev]
	sh.mu.Lock()
	if err := vm.reserve(sh, b.t.Bytes); err != nil {
		sh.mu.Unlock()
		vm.settle(b, false, 0)
		return nil, err
	}
	dst := make([]float32, b.floats())
	b.dev = dst
	b.devID.Store(int32(dev))
	vm.commit(b) // reserve done: only the fill remains
	sh.used += b.t.Bytes
	vm.lruPush(sh, b)
	sh.mu.Unlock()

	if err := vm.fill(xferIn, dev, b); err != nil {
		vm.dropResidency(b)
		vm.settle(b, false, 0)
		return nil, err
	}
	vm.settle(b, true, +1)
	return dst, nil
}

// errRetry tells Ensure that the buffer changed underneath a
// lock-dropping step and the whole decision must be re-evaluated.
var errRetry = errors.New("exec: retry")

// moveP2P transfers b (resident on another device, unpinned, idle) to
// dev and pins it. Shard order: the destination shard is reserved,
// charged and released *before* b is claimed — never two shard locks
// at once — and the claim CAS carries committed, because a claim
// holding its destination completes without further allocation, so
// the source device's eviction may wait on it. Because reserve can
// drop the shard lock and the claim races demand traffic, b may
// change underneath; errRetry sends Ensure back around.
func (vm *VM) moveP2P(dev int, b *buffer) ([]float32, error) {
	bytes := b.t.Bytes
	dsh := vm.shards[dev]
	dsh.mu.Lock()
	if err := vm.reserve(dsh, bytes); err != nil {
		dsh.mu.Unlock()
		return nil, err
	}
	dsh.used += bytes // hold the destination while copying
	dsh.mu.Unlock()
	if !vm.claim(b, claimword.SwapIn, false, true, claimword.NeedUnpinned) {
		vm.uncharge(dsh, bytes)
		return nil, errRetry
	}
	if w := b.load(); !w.Resident() || int(b.devID.Load()) == dev {
		vm.settle(b, w.Resident(), 0)
		vm.uncharge(dsh, bytes)
		return nil, errRetry
	}
	src, srcDev := b.dev, int(b.devID.Load())
	dst := make([]float32, b.floats())

	if _, err := vm.transfer(xferP2P, dev, srcDev, b.t, dst, src); err != nil {
		vm.settle(b, true, 0)
		vm.uncharge(dsh, bytes)
		return nil, err
	}

	pf := vm.consumePrefetch(b) // prefetched to the wrong device: not a hit
	ssh := vm.shards[srcDev]
	ssh.mu.Lock()
	vm.lruRemove(ssh, b)
	ssh.used -= bytes
	if pf {
		ssh.pfBytes -= bytes
	}
	ssh.mu.Unlock()
	b.dev = dst
	b.devID.Store(int32(dev))
	dsh.mu.Lock()
	vm.lruPush(dsh, b)
	dsh.stats.P2PBytes += bytes
	dsh.stats.P2PMoves++
	dsh.mu.Unlock()
	vm.settle(b, true, +1)
	return dst, nil
}

// uncharge returns speculatively-held destination bytes.
func (vm *VM) uncharge(sh *vmShard, bytes int64) {
	sh.mu.Lock()
	sh.used -= bytes
	sh.mu.Unlock()
}

// bounce writes b (resident elsewhere, observed unpinned-idle) back
// to host and drops its residency, so Ensure can swap it in at the
// requested device on its next pass. The claim CAS carries committed
// — a write-back never reserves; it only frees.
func (vm *VM) bounce(b *buffer) error {
	if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
		return errRetry
	}
	if !b.load().Resident() {
		vm.settle(b, false, 0)
		return nil // evicted meanwhile; already host-only
	}
	if err := vm.writeBack(xferOut, int(b.devID.Load()), b); err != nil {
		vm.settle(b, true, 0)
		return err
	}
	vm.dropResidency(b)
	vm.settle(b, false, 0)
	return nil
}

// Alloc creates a fresh device buffer for an output tensor (dirty, no
// host copy) and pins it.
func (vm *VM) Alloc(dev int, t *tensor.Tensor) ([]float32, error) {
	for {
		vm.bufMu.Lock()
		b, ok := vm.bufs[t.ID]
		if !ok {
			b = newBuffer(t)
			vm.bufs[t.ID] = b
		}
		vm.bufMu.Unlock()
		w := b.load()
		if w.State() != claimword.Idle {
			vm.waitSettle(b)
			continue
		}
		if w.Resident() || b.backed() {
			return nil, fmt.Errorf("exec: tensor %s already materialized", t)
		}
		// Claim while reserving: reserve may drop the shard lock to
		// drain evictions, and nothing must touch a half-allocated
		// buffer meanwhile.
		if !vm.claim(b, claimword.SwapIn, false, false, claimword.NeedEmpty) {
			continue
		}
		if b.backed() { // re-check under claim ownership
			vm.settle(b, false, 0)
			return nil, fmt.Errorf("exec: tensor %s already materialized", t)
		}
		sh := vm.shards[dev]
		sh.mu.Lock()
		if err := vm.reserve(sh, t.Bytes); err != nil {
			sh.mu.Unlock()
			vm.settle(b, false, 0)
			return nil, err
		}
		dst := make([]float32, b.floats())
		b.dev = dst
		b.devID.Store(int32(dev))
		b.state.Store(pageDirty)
		vm.commit(b)
		sh.used += t.Bytes
		vm.lruPush(sh, b)
		sh.mu.Unlock()
		vm.settle(b, true, +1)
		return dst, nil
	}
}

// MarkDirty records an in-place mutation of the device copy. The
// caller must hold a pin on t (task outputs are pinned while their
// kernels run), which is what makes the state write race-free against
// eviction's clean checks. Whatever the page was — clean or known-zero
// — it is an ordinary dirty page from here on.
func (vm *VM) MarkDirty(t *tensor.Tensor) error {
	b, ok := vm.lookup(t.ID)
	if !ok || !b.load().Resident() {
		return fmt.Errorf("exec: MarkDirty on non-resident %s", t)
	}
	b.state.Store(pageDirty)
	return nil
}

// MarkZero is MarkDirty for a mutation that left every element of the
// device copy +0. The VM takes the caller's word for it and from then
// on moves no byte of the page: it becomes the device's next victim —
// the one page that costs no link time to lose now and none to bring
// back — eviction drops it (releasing any host copy), and the next
// Ensure or prefetch memsets it (DESIGN.md §9, "Known-zero pages"). The
// next MarkDirty ends that. The naive policy writes every page back
// unconditionally and evicts in plain LRU order, so there the page is
// simply dirty.
func (vm *VM) MarkZero(t *tensor.Tensor) error {
	b, ok := vm.lookup(t.ID)
	if !ok || !b.load().Resident() {
		return fmt.Errorf("exec: MarkZero on non-resident %s", t)
	}
	if !vm.pol.DirtyTracking {
		b.state.Store(pageDirty)
		return nil
	}
	b.state.Store(pageZero)
	sh := vm.shards[b.devID.Load()] // the caller's pin freezes placement
	sh.mu.Lock()
	vm.demote(sh, b)
	sh.mu.Unlock()
	return nil
}

// Unpin releases one pin.
func (vm *VM) Unpin(t *tensor.Tensor) error {
	b, ok := vm.lookup(t.ID)
	if !ok || !vm.unpin(b) {
		return fmt.Errorf("exec: Unpin underflow on %s", t)
	}
	return nil
}

// Free destroys the tensor entirely, waiting out any in-flight DMA.
func (vm *VM) Free(t *tensor.Tensor) error {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil
		}
		w := b.load()
		if w.State() != claimword.Idle {
			vm.waitSettle(b)
			continue
		}
		if w.Pins() > 0 {
			return fmt.Errorf("exec: Free of pinned %s", t)
		}
		if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
			continue
		}
		if b.load().Resident() {
			vm.dropResidency(b)
		}
		vm.bufMu.Lock()
		delete(vm.bufs, t.ID)
		vm.bufMu.Unlock()
		vm.settle(b, false, 0)
		return nil
	}
}

// reserve evicts LRU victims on sh until `bytes` fit. Requires sh.mu
// held; may release and reacquire it while write-backs drain or
// async DMAs complete, so callers must not rely on unrelated shard
// state across the call. Synchronous uncommitted claims held by other
// goroutines are treated like pins (they complete into a pinned
// buffer anyway); waitable claims — async operations and committed
// sync claims — are waited on, since both finish without help.
func (vm *VM) reserve(sh *vmShard, bytes int64) error {
	if bytes > vm.capacity {
		return fmt.Errorf("exec: tensor of %d bytes exceeds device capacity %d", bytes, vm.capacity)
	}
	for sh.used+bytes > vm.capacity {
		victim, inflight := vm.victim(sh)
		if victim == nil {
			if inflight != nil {
				sh.mu.Unlock()
				vm.waitSettle(inflight)
				sh.mu.Lock()
				continue
			}
			return fmt.Errorf("exec: device %d cannot free %d bytes (used %d, all pinned)",
				sh.dev, bytes, sh.used)
		}
		if err := vm.evict(sh, victim); err != nil {
			if err == errRetry {
				continue // victim changed under the claim race; rescan
			}
			return err
		}
	}
	return nil
}

// evict removes b from sh: known-zero pages and dirty-tracked clean ones
// are dropped, everything else is written back first. Requires sh.mu
// held (released around the write-back copy). The eviction claim carries
// committed in its CAS — write-backs never reserve — so concurrent
// reserves on the shard may wait on it from its first visible word.
func (vm *VM) evict(sh *vmShard, b *buffer) error {
	if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
		return errRetry // raced with a pin or another claim
	}
	if st := b.state.Load(); st == pageZero || vm.pol.DirtyTracking && st == pageClean && b.host != nil {
		sh.stats.DropBytes += b.t.Bytes
		sh.stats.Drops++
		vm.unlink(sh, b)
		vm.settle(b, false, 0)
		return nil
	}
	// Write back. Naive virtualization (DirtyTracking off) writes back
	// unconditionally.
	sh.mu.Unlock()
	err := vm.writeBack(xferOut, sh.dev, b)
	sh.mu.Lock()
	if err != nil {
		vm.settle(b, true, 0) // stays resident (and dirty)
		return err
	}
	vm.unlink(sh, b)
	vm.settle(b, false, 0)
	return nil
}

// dropResidency releases b's device residency. Requires the caller to
// hold b's claim; takes (and releases) the shard lock of b's device.
func (vm *VM) dropResidency(b *buffer) {
	sh := vm.shards[b.devID.Load()]
	sh.mu.Lock()
	vm.unlink(sh, b)
	sh.mu.Unlock()
}

// unlink takes b, resident on sh's device, off the device: out of the
// LRU, its bytes and any unconsumed prefetch charge returned, its
// device copy forgotten — and, for a known-zero page, whatever stale
// host copy an earlier write-back left, so the page holds no memory
// anywhere until it is filled again. Requires sh.mu held and b's claim
// owned by the caller.
func (vm *VM) unlink(sh *vmShard, b *buffer) {
	vm.lruRemove(sh, b)
	sh.used -= b.t.Bytes
	if vm.consumePrefetch(b) {
		sh.pfBytes -= b.t.Bytes
	}
	b.dev = nil
	b.devID.Store(-1)
	if b.state.Load() == pageZero {
		b.host = nil
	}
}

// Invalidate discards any device copy without writeback, making the
// host backing authoritative (used when host contents are overwritten
// externally, e.g. checkpoint restore). Fails on pinned tensors.
func (vm *VM) Invalidate(t *tensor.Tensor) error {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			return nil
		}
		w := b.load()
		if w.State() != claimword.Idle {
			vm.waitSettle(b)
			continue
		}
		if !w.Resident() {
			return nil
		}
		if w.Pins() > 0 {
			return fmt.Errorf("exec: Invalidate of pinned %s", t)
		}
		if b.host == nil {
			return fmt.Errorf("exec: Invalidate would lose the only copy of %s", t)
		}
		if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedUnpinned) {
			continue
		}
		if !b.load().Resident() {
			vm.settle(b, false, 0)
			continue
		}
		b.state.Store(pageClean)
		vm.dropResidency(b)
		vm.settle(b, false, 0)
		return nil
	}
}
