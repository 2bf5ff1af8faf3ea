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
	"slices"
	"sort"
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
	// ZeroFills counts known-zero pages (MarkZero) made resident
	// without a copy, demand or prefetch: by a memset, or, for a
	// gradient, whose next backward overwrites it, by nothing at all;
	// their evictions count under Drops. The Swap* counters stay what
	// they were: bytes and copies that crossed the link.
	ZeroFills     int
	ZeroFillBytes int64
	// FaultsInjected counts injected transfer faults observed by this
	// VM; Retries counts the re-attempts the retry layer issued for
	// them (successful retries leave FaultsInjected > Retries only
	// when a fault was fatal or retries were exhausted).
	FaultsInjected int
	Retries        int
	// Prefetch/overlap counters (see EnsureAsync).
	// PrefetchIssued counts async swap-ins handed to the DMA engine;
	// PrefetchHits counts Ensure calls that found their tensor already
	// resident (or in flight) thanks to a prefetch; AsyncDMANanos is
	// the time the DMA workers' copies held the link — their modeled
	// reservations, or with no bandwidth modeled the wall time of their
	// memcpys — divide by step wall time for the compute/swap overlap
	// fraction.
	PrefetchIssued int
	PrefetchHits   int
	AsyncDMANanos  int64
	// CleanAheads is always zero: the DMA engine only prefetches, and
	// write-backs are the demand path's alone.
	//
	// Deprecated: always zero; removed by the next benchmark PR.
	CleanAheads int
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
	s.AsyncDMANanos += o.AsyncDMANanos
	return s
}

// buffer is one tensor's VM state. Concurrency splits its fields into
// three ownership domains:
//
//   - the embedded claimword.Cell: the packed atomic claim word and
//     the claim's wakeup channel. Its fields are claimword's own, so
//     this package can change them only through the Cell's
//     transitions (Claim, Commit, Settle, Pin, Unpin,
//     ConsumePrefetch), each a CAS on the observed word.
//   - dev, devID, host, state: owned by the claim holder — except at
//     birth (HostAlloc, HostBind, ZeroAlloc), which writes host and
//     state under bufMu before any transfer can reach the page. Claims
//     require an unclaimed, unpinned word, so a successful claim CAS
//     excludes every other writer; lock-free readers first observe an
//     unclaimed word via an atomic load, which happens-after the
//     settle that published the fields. state is atomic because pin
//     holders write it (MarkDirty, MarkZero) while EnsureAsync's LRU
//     bump reads it under the shard lock. A claim holder stores
//     pageClean, after the copy that made it true (and pageDirty on
//     the page Alloc creates); on an existing page pageDirty and
//     pageZero are stored under a pin, by the task that just wrote the
//     device copy.
//   - prev, next: LRU bookkeeping, guarded by the owning
//     device's shard mutex. A buffer is linked iff its word is
//     resident-idle or claimed-resident; unlinking happens only under
//     the shard lock while holding the claim.
type buffer struct {
	t    *tensor.Tensor
	host []float32 // backing copy; nil until first host materialization
	dev  []float32 // device copy; nil when not resident
	// devID is the device holding dev, -1 when not resident. Written
	// only by the claim holder; atomic because Ensure and EnsureAsync
	// read it optimistically before they pin or claim (Ensure also to
	// pick the shard a p2p-off move evicts from).
	devID atomic.Int32
	state atomic.Uint32 // pageClean, pageDirty or pageZero

	// The packed claim/residency/pin word and the claim's wake
	// channel, reachable only through their transitions.
	claimword.Cell

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

// lruList is one device's residency list, least-recently-used first.
type lruList struct{ head, tail *buffer }

// vmShard is one device's slice of the VM: capacity accounting, LRU
// order, prefetch bytes, DMA queue and movement stats, guarded by
// its own mutex so devices never contend with each other on the swap
// hot path.
type vmShard struct {
	mu sync.Mutex

	dev     int
	used    int64
	lru     lruList
	pfBytes int64 // prefetched bytes in flight or resident-unconsumed; at most VM.budget
	stats   VMStats
	queue   []dmaReq
	work    *sync.Cond // signaled when queue grows or the VM closes
	// spares are the device slices of pages that left this device, in
	// one stack per capacity, ascending, for the next pages placed here
	// (take, give). held is the capacity in bytes of every device slice
	// the shard holds, resident or spare: a spare is kept only while
	// held fits the device.
	spares []spareStack
	held   int64
}

// spareStack is a shard's spare device slices of one capacity.
type spareStack struct {
	cap    int
	slices [][]float32
}

// VM is a coherent virtual memory across virtual devices.
//
// Locking discipline (DESIGN.md §12): the hot path is sharded by
// device. Each vmShard's mutex guards only that device's accounting —
// used bytes, LRU order, prefetch bytes, DMA queue and stats.
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
// The lockorder analyzer reports any path that nests two shard locks,
// whatever its doc comment says: no two locks of one class may nest.
//
// Deadlock discipline: eviction may wait on committed claims, which
// always complete on their own, and never on an uncommitted one — the
// claimer may itself be waiting to reserve. Claims on resident buffers
// set committed in the claim CAS itself, and a landing page commits
// before it is linked, so no observer ever sees a resident
// claimed-unwaitable buffer (claimword.Claim refuses any other, and
// its tests prove no transition sequence reaches one). DMA workers
// never wait on anything but their queue.
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

	// cfg holds the transfer knobs. They are plain fields, written
	// before the first transfer or between steps: Trainer.newVM sets them
	// before any worker starts, and EnableTrace's write is ordered before
	// the next step's transfers by the go statements that start its
	// tasks and by vmShard.mu, which hands every queued copy to a worker.
	cfg xferConfig
}

// xferConfig is what a transfer needs to know besides its operands.
type xferConfig struct {
	// bps is the bandwidth of every modeled link in bytes per second: a
	// copy then also occupies its path's links for bytes/bps and its
	// lane waits for that (link.go), so swap cost behaves like a PCIe
	// transfer instead of a memcpy. 0 (or less) disables modeling.
	bps int64
	// rec, when non-nil, receives DMA spans for the swap-overlap Gantt
	// lanes. It is called outside all VM locks, on device-worker and DMA
	// goroutines, and must be safe for concurrent use.
	rec func(dev int, lane trace.Lane, label string, start, end time.Time)
	// Fault injection: inj decides whether a swap-in, swap-out or p2p
	// copy about to run fails; transient failures are retried up to
	// maxRetries times with fault.Backoff between attempts. Backoff
	// sleeps run outside all locks — a stalled transfer stalls only its
	// own buffer's waiters, never the other devices.
	inj        *fault.Injector
	maxRetries int
	// stepFn reports the current trainer step for fault site identity.
	// It is called with no VM lock held and must not call back into the
	// VM.
	stepFn func() int
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
		sh := &vmShard{dev: d}
		sh.work = sync.NewCond(&sh.mu)
		vm.shards[d] = sh
	}
	vm.idle = sync.NewCond(&vm.engMu)
	return vm
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

// lruPush links b as the most-recently-used buffer of sh. Requires
// sh.mu held.
func (vm *VM) lruPush(sh *vmShard, b *buffer) {
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
// evictable buffer — resident, unclaimed and unpinned per its claim
// word — or, when nothing is evictable, the least-recently-used buffer
// whose claim completes on its own (a committed one: every claim a
// linked buffer can carry) for reserve to wait on. Known-zero pages
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
		switch w := b.Load(); {
		case w.Claimed():
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

// ------------------------------------------------------ device memory

// take returns the device slice for a page of n floats being placed on
// sh: a spare of capacity n, else the spare of the next larger capacity
// present (best fit), holding whatever its last page left there — or,
// when no spare is that large, a fresh one, for which spares are trimmed
// first, shortest first, until everything sh holds fits its capacity
// with it. zero asks for the slice cleared (a fresh one already is).
// Requires sh.mu held.
//
// A best-fit page's slack — its slice's capacity past n — is memory
// sh.used does not count, so reserve can fill the device until a fresh
// slice does not fit beside the resident ones even with every spare
// gone. Then sh holds more than its capacity, and keeps no spare (give)
// until its pages have shed that much.
func (vm *VM) take(sh *vmShard, n int, zero bool) []float32 {
	i := sh.spareAt(n)
	for i < len(sh.spares) && len(sh.spares[i].slices) == 0 {
		i++
	}
	if i < len(sh.spares) {
		s := sh.spares[i].pop()[:n]
		if zero {
			clear(s)
		}
		return s
	}
	for i := range sh.spares {
		st := &sh.spares[i]
		for len(st.slices) > 0 && sh.held+int64(n)*4 > vm.capacity {
			st.pop()
			sh.held -= int64(st.cap) * 4
		}
	}
	sh.held += int64(n) * 4
	return make([]float32, n)
}

// give keeps the device slice of a page leaving sh as a spare, at its
// full capacity — unless sh holds more than its capacity, when the slice
// goes to the garbage collector instead. Requires sh.mu held.
func (vm *VM) give(sh *vmShard, s []float32) {
	c := cap(s)
	if sh.held > vm.capacity {
		sh.held -= int64(c) * 4
		return
	}
	i := sh.spareAt(c)
	if i == len(sh.spares) || sh.spares[i].cap != c {
		sh.spares = slices.Insert(sh.spares, i, spareStack{cap: c})
	}
	sh.spares[i].slices = append(sh.spares[i].slices, s[:c])
}

// pop removes and returns the top of st, letting go of it in the
// stack's own array.
func (st *spareStack) pop() []float32 {
	last := len(st.slices) - 1
	s := st.slices[last]
	st.slices[last] = nil
	st.slices = st.slices[:last]
	return s
}

// spareAt returns the index of sh's first spare stack of capacity c or
// more. Requires sh.mu held.
func (sh *vmShard) spareAt(c int) int {
	return sort.Search(len(sh.spares), func(i int) bool { return sh.spares[i].cap >= c })
}

// --------------------------------------------------------- public API

// HostAlloc materializes a tensor's host backing (zeroed) and returns
// it: a tensor born in host memory, as each step's inputs are and, under
// the naive policy, every persistent tensor (Trainer.bear). Idempotent
// for already-materialized tensors. Host backing is a setup-time
// operation: callers must not race it with transfers of the same
// tensor. The caller may go on to write the slice, so a known-zero page
// becomes an ordinary clean one, with a fresh backing in place of any
// stale one.
func (vm *VM) HostAlloc(t *tensor.Tensor) []float32 {
	vm.bufMu.Lock()
	defer vm.bufMu.Unlock()
	b, _ := vm.birth(t)
	if b.state.CompareAndSwap(pageZero, pageClean) || b.host == nil {
		b.host = make([]float32, b.floats())
	}
	return b.host
}

// HostBind is HostAlloc with the caller's slice, which must hold
// exactly t's floats, as the host backing instead of a fresh one: a
// tensor born in host memory again and again, as each step's inputs
// are, whose caller reuses the slice once Free has dropped the tensor.
// Until then the VM may write the page back into it. Setup-time, like
// HostAlloc.
func (vm *VM) HostBind(t *tensor.Tensor, host []float32) {
	vm.bufMu.Lock()
	defer vm.bufMu.Unlock()
	b, _ := vm.birth(t)
	b.host = host
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
	if b, fresh := vm.birth(t); fresh {
		b.state.Store(pageZero)
	}
}

// birth returns t's buffer, creating it — fresh reports that it did.
// Requires vm.bufMu held for writing.
func (vm *VM) birth(t *tensor.Tensor) (b *buffer, fresh bool) {
	b, ok := vm.bufs[t.ID]
	if !ok {
		b = newBuffer(t)
		vm.bufs[t.ID] = b
	}
	return b, !ok
}

// Read copies t's current contents into dst, which must hold exactly
// t's floats, and moves nothing: zeros for a known-zero page, resident or
// not — its device bytes are only as zero as its fill made them — else
// the device copy when the page is resident (it is never older than the
// host's), else the host backing. Page state, LRU order, host backing
// and the links are left as they were, so reading a page out — a
// checkpoint, a recovery snapshot, an evaluation — costs the run
// nothing it would otherwise not have spent. A claim in flight is
// waited out and a pinned page refused (seize).
func (vm *VM) Read(t *tensor.Tensor, dst []float32) error {
	return vm.seize(t, "Read", false, func(b *buffer) (bool, error) {
		resident := b.Load().Resident()
		switch {
		case len(dst) != b.floats():
			return resident, fmt.Errorf("exec: Read of %s into %d floats, want %d", t, len(dst), b.floats())
		case b.state.Load() == pageZero:
			clear(dst)
		case resident:
			copy(dst, b.dev)
		case b.host != nil:
			copy(dst, b.host)
		default:
			return false, fmt.Errorf("exec: tensor %s has no valid copy", t)
		}
		return resident, nil
	})
}

// seize is how Read, Free and Invalidate take a page whole: it waits
// out a claim in flight, refuses a pinned page — its pin holder may be
// writing it, and between steps nothing is pinned — claims it, runs act
// under the claim and settles with the residency act reports. The claim
// is an ordinary committed one: it needs nothing more, so eviction on
// the page's device may wait on it. A tensor the VM holds nothing of is
// nothing to do when absentOK, and an error otherwise.
func (vm *VM) seize(t *tensor.Tensor, op string, absentOK bool, act func(*buffer) (resident bool, err error)) error {
	for {
		b, ok := vm.lookup(t.ID)
		if !ok {
			if absentOK {
				return nil
			}
			return fmt.Errorf("exec: tensor %s has no buffer", t)
		}
		w := b.Load()
		if w.Claimed() {
			b.WaitSettle()
			continue
		}
		if w.Pins() > 0 {
			return fmt.Errorf("exec: %s of pinned %s", op, t)
		}
		if !b.Claim(true, claimword.NeedUnpinned) {
			continue
		}
		resident, err := act(b)
		b.Settle(resident, 0)
		return err
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
		w := b.Load()
		if w.Claimed() {
			// A copy is in flight (possibly our own prefetch): ride it
			// out and re-evaluate. A prefetch landing in the right place
			// is counted as a hit by the fast path on the next pass.
			b.WaitSettle()
			continue
		}
		if w.Resident() && int(b.devID.Load()) == dev {
			if !b.Pin(w) {
				continue // word moved under us; re-evaluate
			}
			// Pinned: residency and placement are now frozen. Re-check
			// the placement read that preceded the pin (an eviction and
			// re-fetch elsewhere could have recycled the word bits).
			if int(b.devID.Load()) != dev {
				b.Unpin()
				continue
			}
			dst := b.dev
			hit := b.ConsumePrefetch()
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
			// Without p2p a page changes devices through the host: evict it
			// from its own device — a write-back, or a drop where eviction
			// would drop it — and swap it in here on the next pass.
			if src := b.devID.Load(); src >= 0 { // else evicted meanwhile
				sh := vm.shards[src]
				sh.mu.Lock()
				err := vm.evict(sh, b)
				sh.mu.Unlock()
				if err != nil && err != errRetry {
					return nil, err
				}
			}
			continue
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
// on the caller's goroutine with no shard lock held, under the claim
// the landing committed.
func (vm *VM) swapIn(dev int, b *buffer) ([]float32, error) {
	sh := vm.shards[dev]
	sh.mu.Lock()
	dst, err := vm.land(sh, b, landDemand)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := vm.fill(xferIn, dev, b); err != nil {
		vm.dropResidency(b)
		b.Settle(false, 0)
		return nil, err
	}
	b.Settle(true, +1)
	return dst, nil
}

// errRetry tells Ensure that the buffer changed underneath a
// lock-dropping step and the whole decision must be re-evaluated.
var errRetry = errors.New("exec: retry")

// A landing says how a page comes to be placed on a device.
type landing int

const (
	// landDemand: a demand swap-in; reserve evicts to make room.
	landDemand landing = iota
	// landAlloc: a page born on the device (Alloc), with no copy
	// anywhere; reserve evicts to make room, and the slice is cleared.
	landAlloc
	// landPrefetch: a prefetch, which evicts nothing; its caller has
	// checked that the page fits beside what is resident.
	landPrefetch
)

// land is the one way a page becomes resident on sh's device: it claims
// non-resident b, re-checks under the claim that b is backed — or, born
// by Alloc, that it is not — makes room, takes a device slice, sets the
// device, commits, charges the bytes and links b into sh's LRU. It
// returns b's device slice with the claim still held — committed, so
// eviction may wait on it — for the caller to fill and settle; errRetry
// means b changed before the claim and the caller re-evaluates. b is
// claimed but non-resident and unlinked while reserve runs, so no
// eviction scan can see it; residency and the committed mark land in
// one CAS before lruPush, upholding the invariant that every claim on a
// resident buffer completes on its own. Requires sh.mu held; reserve
// may release and reacquire it.
func (vm *VM) land(sh *vmShard, b *buffer, how landing) ([]float32, error) {
	if !b.Claim(false, claimword.NeedEmpty) {
		return nil, errRetry
	}
	if b.backed() == (how == landAlloc) {
		b.Settle(false, 0)
		return nil, errRetry
	}
	if how != landPrefetch {
		if err := vm.reserve(sh, b.t.Bytes); err != nil {
			b.Settle(false, 0)
			return nil, err
		}
	}
	// A fill writes every element; only Alloc's page is handed out as
	// it is, so only it needs the slice cleared.
	b.dev = vm.take(sh, b.floats(), how == landAlloc)
	b.devID.Store(int32(sh.dev))
	b.Commit(how == landPrefetch)
	sh.used += b.t.Bytes
	if how == landPrefetch {
		sh.pfBytes += b.t.Bytes
	}
	vm.lruPush(sh, b)
	return b.dev, nil
}

// moveP2P transfers b (resident on another device, unpinned, idle) to
// dev and pins it. Shard order: the destination shard is reserved,
// charged, given its slice and released *before* b is claimed — never
// two shard locks at once — and the claim CAS carries committed,
// because a claim holding its destination completes without further
// allocation, so the source device's eviction may wait on it. Because
// reserve can drop the shard lock and the claim races demand traffic,
// b may change underneath; errRetry sends Ensure back around.
func (vm *VM) moveP2P(dev int, b *buffer) ([]float32, error) {
	bytes := b.t.Bytes
	dsh := vm.shards[dev]
	dsh.mu.Lock()
	if err := vm.reserve(dsh, bytes); err != nil {
		dsh.mu.Unlock()
		return nil, err
	}
	dsh.used += bytes                      // hold the destination while copying
	dst := vm.take(dsh, b.floats(), false) // the copy writes every element
	dsh.mu.Unlock()
	if !b.Claim(true, claimword.NeedUnpinned) {
		vm.uncharge(dsh, bytes, dst)
		return nil, errRetry
	}
	if w := b.Load(); !w.Resident() || int(b.devID.Load()) == dev {
		b.Settle(w.Resident(), 0)
		vm.uncharge(dsh, bytes, dst)
		return nil, errRetry
	}
	src, srcDev := b.dev, int(b.devID.Load())

	if _, err := vm.transfer(xferP2P, dev, srcDev, b.t, dst, src); err != nil {
		b.Settle(true, 0)
		vm.uncharge(dsh, bytes, dst)
		return nil, err
	}

	// Prefetched to the wrong device is not a hit: unlink returns the
	// budget charge with the source's bytes and slice.
	ssh := vm.shards[srcDev]
	ssh.mu.Lock()
	vm.unlink(ssh, b)
	ssh.mu.Unlock()
	b.dev = dst
	b.devID.Store(int32(dev))
	dsh.mu.Lock()
	vm.lruPush(dsh, b)
	dsh.stats.P2PBytes += bytes
	dsh.stats.P2PMoves++
	dsh.mu.Unlock()
	b.Settle(true, +1)
	return dst, nil
}

// uncharge returns speculatively-held destination bytes and the slice
// taken for them.
func (vm *VM) uncharge(sh *vmShard, bytes int64, s []float32) {
	sh.mu.Lock()
	sh.used -= bytes
	vm.give(sh, s)
	sh.mu.Unlock()
}

// Alloc creates a fresh, zeroed device buffer for a tensor the VM holds
// nothing of — a task's output, or a weight born on the device that
// reads it (Trainer.bear) — dirty, with no host copy until eviction
// writes it back, and pins it.
func (vm *VM) Alloc(dev int, t *tensor.Tensor) ([]float32, error) {
	vm.bufMu.Lock()
	b, _ := vm.birth(t)
	vm.bufMu.Unlock()
	sh := vm.shards[dev]
	for {
		w := b.Load()
		if w.Claimed() {
			b.WaitSettle()
			continue
		}
		if w.Resident() || b.backed() {
			return nil, fmt.Errorf("exec: tensor %s already materialized", t)
		}
		sh.mu.Lock()
		dst, err := vm.land(sh, b, landAlloc)
		sh.mu.Unlock()
		if err == errRetry {
			continue
		}
		if err != nil {
			return nil, err
		}
		b.state.Store(pageDirty)
		b.Settle(true, +1)
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
	if !ok || !b.Load().Resident() {
		return fmt.Errorf("exec: MarkDirty on non-resident %s", t)
	}
	b.state.Store(pageDirty)
	return nil
}

// MarkZero is MarkDirty for a mutation after which the page reads as
// +0s: one that left every element of the device copy +0, or, for a
// gradient, the update whose next backward overwrites the page unread
// (DESIGN.md §9, "Known-zero pages"). The VM takes the caller's word for
// it and from then on moves no byte of the page: it becomes the
// device's next victim — the one page that costs no link time to lose
// now and none to bring back — eviction drops it (releasing any host
// copy), Read returns +0s, and the next Ensure or prefetch memsets it, a
// gradient excepted (fill). The next MarkDirty ends that. The naive
// policy writes every page back unconditionally and evicts in plain LRU
// order, so there the page is simply dirty.
func (vm *VM) MarkZero(t *tensor.Tensor) error {
	b, ok := vm.lookup(t.ID)
	if !ok || !b.Load().Resident() {
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
	if !ok || !b.Unpin() {
		return fmt.Errorf("exec: Unpin underflow on %s", t)
	}
	return nil
}

// Free destroys the tensor entirely, waiting out any in-flight DMA.
func (vm *VM) Free(t *tensor.Tensor) error {
	return vm.seize(t, "Free", true, func(b *buffer) (bool, error) {
		if b.Load().Resident() {
			vm.dropResidency(b)
		}
		vm.bufMu.Lock()
		delete(vm.bufs, t.ID)
		vm.bufMu.Unlock()
		return false, nil
	})
}

// reserve evicts LRU victims on sh until `bytes` fit. Requires sh.mu
// held; may release and reacquire it while write-backs drain or
// claims in flight complete, so callers must not rely on unrelated
// shard state across the call. A linked buffer's claim is always a
// committed one — a landing commits before it links — and is waited
// on, since it finishes without help.
func (vm *VM) reserve(sh *vmShard, bytes int64) error {
	if bytes > vm.capacity {
		return fmt.Errorf("exec: tensor of %d bytes exceeds device capacity %d", bytes, vm.capacity)
	}
	for sh.used+bytes > vm.capacity {
		victim, inflight := vm.victim(sh)
		if victim == nil {
			if inflight != nil {
				sh.mu.Unlock()
				inflight.WaitSettle()
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
// Ensure, which picks b without sh's LRU, may find it moved or gone by
// the time the claim lands; that is errRetry too.
func (vm *VM) evict(sh *vmShard, b *buffer) error {
	if !b.Claim(true, claimword.NeedUnpinned) {
		return errRetry // raced with a pin or another claim
	}
	if w := b.Load(); !w.Resident() || int(b.devID.Load()) != sh.dev {
		b.Settle(w.Resident(), 0)
		return errRetry
	}
	if st := b.state.Load(); st == pageZero || vm.pol.DirtyTracking && st == pageClean && b.host != nil {
		sh.stats.DropBytes += b.t.Bytes
		sh.stats.Drops++
		vm.unlink(sh, b)
		b.Settle(false, 0)
		return nil
	}
	// Write back. Naive virtualization (DirtyTracking off) writes back
	// unconditionally.
	sh.mu.Unlock()
	err := vm.writeBack(sh.dev, b)
	sh.mu.Lock()
	if err != nil {
		b.Settle(true, 0) // stays resident (and dirty)
		return err
	}
	vm.unlink(sh, b)
	b.Settle(false, 0)
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
// device slice kept as one of sh's spares — and, for a known-zero page,
// whatever stale host copy an earlier write-back left dropped, so the
// page holds no memory anywhere until it is filled again. It is the one
// place a page leaves a device: eviction, drop, p2p move, Free or a
// failed fill. Requires sh.mu held and b's claim owned by the caller.
func (vm *VM) unlink(sh *vmShard, b *buffer) {
	vm.lruRemove(sh, b)
	sh.used -= b.t.Bytes
	if b.ConsumePrefetch() {
		sh.pfBytes -= b.t.Bytes
	}
	vm.give(sh, b.dev)
	b.dev = nil
	b.devID.Store(-1)
	if b.state.Load() == pageZero {
		b.host = nil
	}
}

// Invalidate discards any device copy without writeback, making the
// host backing authoritative (for a caller that has overwritten the
// host contents itself). Fails on pinned tensors.
func (vm *VM) Invalidate(t *tensor.Tensor) error {
	return vm.seize(t, "Invalidate", true, func(b *buffer) (bool, error) {
		if !b.Load().Resident() {
			return false, nil
		}
		if b.host == nil {
			return true, fmt.Errorf("exec: Invalidate would lose the only copy of %s", t)
		}
		b.state.Store(pageClean)
		vm.dropResidency(b)
		return false, nil
	})
}
