package exec

import (
	"fmt"
	"runtime"
	"time"

	"harmony/internal/claimword"
	"harmony/internal/fault"
	"harmony/internal/nn"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// This file is the VM's asynchronous DMA engine and the buffer claim
// state machine: per-device worker goroutines service prefetch
// swap-ins (EnsureAsync) and proactive write-backs (CleanAhead) while
// device workers compute. All copies run outside the shard locks
// under a buffer claim; completion is signaled through the packed
// claim word, so a demand Ensure on an in-flight buffer rides the DMA
// instead of copying twice.

type dmaKind int

const (
	dmaSwapIn    dmaKind = iota // prefetch: host→device fill of b.dev
	dmaWriteback                // clean-ahead: device→host, device copy kept
)

type dmaReq struct {
	b    *buffer
	kind dmaKind
	dev  int // device whose DMA lane services the request
}

// ------------------------------------------------------ state machine
//
// claim, commit, settle, pin, unpin and consumePrefetch are the only
// functions allowed to mutate a buffer's claim word (and its done
// channel), and they do so exclusively through CAS on the pure
// transitions in internal/claimword — every other path must go
// through them so waiters, eviction and the reserve path always see a
// coherent claim. The claimdiscipline analyzer (internal/analyzers)
// rejects word/done mutations anywhere else, and raw stores even
// here.

// claim CASes b into the claimed state st. async marks claims
// serviced by a DMA worker; committed marks sync claims that already
// hold everything they need (write-backs, p2p with the destination
// charged) — set in the claim CAS itself so no observer ever sees a
// resident claimed-unwaitable word. Returns false when the buffer is
// not claimable under need (already claimed, pinned, resident);
// callers re-observe and retry or bail. On success the claim's
// wakeup channel is published to b.done.
func (vm *VM) claim(b *buffer, st claimword.State, async, committed bool, need claimword.Need) bool {
	for {
		w := b.load()
		n, ok := claimword.Claim(w, st, async, committed, need)
		if !ok {
			return false
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			ch := make(chan struct{})
			b.done.Store(&ch)
			return true
		}
	}
}

// commit publishes residency for a claimed swap-in whose reserve
// completed: residency and the waitable mark land in one CAS (async
// claims also gain the prefetched mark). Requires the caller to hold
// b's claim; callers must commit before the buffer becomes visible to
// any eviction scan (lruPush), which the claimdiscipline analyzer
// checks lexically.
func (vm *VM) commit(b *buffer) {
	for {
		w := b.load()
		n, ok := claimword.Commit(w)
		if !ok {
			panic(fmt.Sprintf("exec: commit of unclaimed %s", b.t))
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			return
		}
	}
}

// settle completes b's in-flight DMA — state back to idle, residency
// set to the outcome, pinDelta applied (paths that hand the buffer to
// their caller pinned pass +1) — and wakes every waiter by closing
// the claim's channel. Requires the caller to hold b's claim. The
// pointer-CAS on done tolerates a successor claim publishing its own
// channel between our word CAS and the cleanup.
func (vm *VM) settle(b *buffer, resident bool, pinDelta int) {
	p := b.done.Load()
	for {
		w := b.load()
		n, ok := claimword.Settle(w, resident, pinDelta)
		if !ok {
			panic(fmt.Sprintf("exec: settle of unclaimed %s", b.t))
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			break
		}
	}
	if p != nil {
		b.done.CompareAndSwap(p, nil)
		close(*p)
	}
}

// pin takes one pin via a single CAS against the word the caller just
// observed — not a retry loop, so the caller's placement reads stay
// tied to the exact word that was pinned. Fails when the buffer is
// claimed, not resident, or the word moved; the caller re-observes.
func (vm *VM) pin(b *buffer, w claimword.Word) bool {
	n, ok := claimword.Pin(w)
	if !ok {
		return false
	}
	return b.word.CompareAndSwap(uint64(w), uint64(n))
}

// unpin releases one pin. Returns false on underflow.
func (vm *VM) unpin(b *buffer) bool {
	for {
		w := b.load()
		n, ok := claimword.Unpin(w)
		if !ok {
			return false
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			return true
		}
	}
}

// consumePrefetch clears b's prefetched mark; exactly one caller wins
// and must return the bytes to the owning shard's prefetch budget
// (under that shard's lock).
func (vm *VM) consumePrefetch(b *buffer) bool {
	for {
		w := b.load()
		n, ok := claimword.ConsumePrefetch(w)
		if !ok {
			return false
		}
		if b.word.CompareAndSwap(uint64(w), uint64(n)) {
			return true
		}
	}
}

// waitSettle blocks until b's current claim settles, then returns so
// the caller can re-observe the word (a new claim may land at any
// time). Tolerates the tiny window where a claim won its CAS but has
// not published its channel yet, and stale channels from claims that
// already settled (closed channels wake immediately).
func (vm *VM) waitSettle(b *buffer) {
	p := b.done.Load()
	if p == nil {
		runtime.Gosched()
		return
	}
	<-*p
}

// ---------------------------------------------------------- DMA engine

// StartEngine launches one DMA worker goroutine per device and allows
// async swap-in bytes in flight per device up to budgetBytes. Call
// Close to drain and stop the workers (recovery does, before
// discarding a VM). Idempotent; must be called before the first
// EnsureAsync/CleanAhead.
func (vm *VM) StartEngine(budgetBytes int64) {
	vm.engMu.Lock()
	defer vm.engMu.Unlock()
	if vm.started || vm.closed.Load() {
		return
	}
	if budgetBytes <= 0 || budgetBytes > vm.capacity {
		budgetBytes = vm.capacity / 2
	}
	vm.budget = budgetBytes
	for _, sh := range vm.shards {
		sh.budget = budgetBytes // pre-engOn: nothing reads shard budgets yet
	}
	vm.started = true
	vm.wg.Add(len(vm.shards))
	for d := range vm.shards {
		go vm.dmaWorker(d)
	}
	vm.engOn.Store(true) // publishes budgets to EnsureAsync
}

// SetPrefetchBudget retunes dev's prefetch byte budget. The adaptive
// controller calls it between steps (after WaitIdle), but it is safe
// at any time: the value is clamped to (0, engine cap] and read under
// the shard lock, so in-flight prefetches keep their accounting. A
// shrink does not cancel bytes already in flight; it only gates new
// EnsureAsync admissions.
func (vm *VM) SetPrefetchBudget(dev int, bytes int64) {
	if !vm.engOn.Load() || dev < 0 || dev >= len(vm.shards) {
		return
	}
	if bytes <= 0 || bytes > vm.budget {
		bytes = vm.budget
	}
	sh := vm.shards[dev]
	sh.mu.Lock()
	sh.budget = bytes
	sh.mu.Unlock()
}

// Close stops the DMA workers after draining queued requests. Safe to
// call on a VM whose engine never started, and more than once. Shard
// conds are poked one at a time in ascending device order.
func (vm *VM) Close() {
	vm.engMu.Lock()
	if !vm.started || vm.closed.Load() {
		vm.engMu.Unlock()
		return
	}
	vm.closed.Store(true)
	vm.engMu.Unlock()
	for _, sh := range vm.shards {
		sh.mu.Lock()
		sh.work.Broadcast()
		sh.mu.Unlock()
	}
	vm.wg.Wait()
}

// WaitIdle blocks until no async DMA is queued or in flight, then
// returns (and clears) the first fatal fault a DMA worker hit, if
// any. The trainer calls it at every step boundary so stats are
// settled and recovery never races a live DMA. Holding engMu between
// the pending check and the wait pairs with the worker's
// broadcast-under-engMu, so the zero-crossing wakeup is never lost.
func (vm *VM) WaitIdle() error {
	vm.engMu.Lock()
	defer vm.engMu.Unlock()
	if !vm.started {
		return nil
	}
	for vm.pending.Load() > 0 {
		vm.idle.Wait()
	}
	err := vm.asyncErr
	vm.asyncErr = nil
	return err
}

// latchAsyncErr records the first fatal DMA-worker fault for WaitIdle.
func (vm *VM) latchAsyncErr(err error) {
	if _, fatal := fault.AsFatal(err); !fatal {
		return
	}
	vm.engMu.Lock()
	if vm.asyncErr == nil {
		vm.asyncErr = err
	}
	vm.engMu.Unlock()
}

// EnsureAsync requests that t become resident on dev without
// blocking: a prefetch. It never waits, never evicts, never pins —
// it fills spare capacity only — and silently does nothing when the
// tensor is missing, already resident or in flight, not host-backed,
// over the per-device async budget, or the device is full. A later
// Ensure either hits the prefetched copy or rides the in-flight DMA.
// The whole admission runs under the destination shard's lock alone.
func (vm *VM) EnsureAsync(dev int, t *tensor.Tensor) {
	if !vm.engOn.Load() || vm.closed.Load() {
		return
	}
	b, ok := vm.lookup(t.ID)
	if !ok {
		return
	}
	w := b.load()
	if w.State() != claimword.Idle || w.Pins() > 0 {
		return
	}
	sh := vm.shards[dev]
	if w.Resident() {
		if int(b.devID.Load()) == dev {
			// Already where the upcoming task needs it: bump it so
			// eviction prefers colder pages — unless it is known-zero,
			// which stays the first to go: losing it costs the task a
			// memset, losing a colder page costs a transfer. Re-validate
			// under the shard lock — only idle-resident-here buffers are
			// linked here.
			sh.mu.Lock()
			if w2 := b.load(); w2.State() == claimword.Idle && w2.Resident() && int(b.devID.Load()) == dev && b.state.Load() != pageZero {
				vm.touch(sh, b)
			}
			sh.mu.Unlock()
		}
		return
	}
	if !b.backed() {
		return
	}
	bytes := t.Bytes
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The budget counts prefetched bytes until their first demand hit
	// (not merely while in flight), bounding how much device memory
	// prefetch may occupy at the expense of the present working set.
	if sh.pfBytes+bytes > sh.budget {
		return
	}
	// Prefetch fills spare capacity only. Evicting on behalf of the
	// future is a Belady bet the prefetcher always loses under
	// pressure: dropped pages are exactly the stashes and activations
	// the backward pass re-demands, and measured swap traffic tripled
	// when prefetch was allowed to make room for itself. The demand
	// path keeps sole authority over eviction.
	if sh.used+bytes > vm.capacity {
		return
	}
	if !vm.claim(b, claimword.SwapIn, true, false, claimword.NeedEmpty) {
		return // raced with a demand path; it will do the work
	}
	b.dev = make([]float32, b.floats())
	b.devID.Store(int32(dev))
	vm.commit(b) // async: residency + prefetched mark in one CAS
	sh.used += bytes
	sh.pfBytes += bytes
	vm.lruPush(sh, b)
	sh.stats.PrefetchIssued++
	vm.enqueue(sh, dmaReq{b: b, kind: dmaSwapIn, dev: dev})
}

// CleanAhead asynchronously writes back up to max dirty, idle,
// unpinned LRU buffers on dev (device copies kept, now clean), so
// later evictions find pages they can drop instead of stalling on a
// synchronous write-back. Known-zero pages are not dirty: they can
// already be dropped. No-op without dirty tracking — dropping clean
// pages is only legal under that policy.
func (vm *VM) CleanAhead(dev int, max int) {
	if !vm.engOn.Load() || vm.closed.Load() || !vm.pol.DirtyTracking {
		return
	}
	sh := vm.shards[dev]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Only act under real eviction pressure: a synchronous write-back
	// stall since the last batch and the device nearly full (≥3/4).
	// Outside that regime evictions drop clean pages for free, and a
	// write-back would be pure link traffic (weights are re-dirtied
	// every update, so eagerly cleaning them costs bandwidth forever
	// and buys nothing). Each stall re-arms one batch, so clean-ahead
	// tracks — and converts — the workload's real write-back rate.
	if sh.syncOuts == sh.cleanSeen || sh.used*4 < vm.capacity*3 {
		return
	}
	sh.cleanSeen = sh.syncOuts // re-arm on the next stall
	issued := 0
	for b := sh.lru.head; b != nil && issued < max; b = b.next {
		w := b.load()
		if w.State() != claimword.Idle || w.Pins() > 0 || b.state.Load() != pageDirty {
			continue
		}
		if !vm.claim(b, claimword.SwapOut, true, false, claimword.NeedUnpinned) {
			continue // raced with a pin; skip this page
		}
		sh.stats.CleanAheads++
		vm.enqueue(sh, dmaReq{b: b, kind: dmaWriteback, dev: dev})
		issued++
	}
}

// enqueue hands a request to sh's DMA worker. Requires sh.mu held;
// the queue is an unbounded slice precisely so enqueueing never
// blocks while holding the shard lock.
func (vm *VM) enqueue(sh *vmShard, r dmaReq) {
	vm.pending.Add(1)
	sh.queue = append(sh.queue, r)
	sh.work.Signal()
}

// dmaWorker drains one device's request queue. Workers never wait on
// buffer states — every request arrives pre-claimed — so they always
// make progress, which is what lets synchronous paths safely wait on
// async operations. Each worker parks on its own shard's cond; DMA
// completions on different devices share nothing but the pending
// counter.
func (vm *VM) dmaWorker(dev int) {
	defer vm.wg.Done()
	sh := vm.shards[dev]
	sh.mu.Lock()
	for {
		for len(sh.queue) == 0 {
			if vm.closed.Load() {
				sh.mu.Unlock()
				return
			}
			sh.work.Wait()
		}
		req := sh.queue[0]
		sh.queue = sh.queue[1:]
		sh.mu.Unlock()
		vm.service(req)
		if vm.pending.Add(-1) == 0 {
			vm.engMu.Lock()
			vm.idle.Broadcast()
			vm.engMu.Unlock()
		}
		sh.mu.Lock()
	}
}

// service performs one async DMA outside the shard lock.
func (vm *VM) service(req dmaReq) {
	b := req.b
	switch req.kind {
	case dmaSwapIn:
		if err := vm.fill(xferPrefetch, req.dev, b); err != nil {
			// Failed prefetch: roll the residency back (dropResidency
			// returns the bytes to the budget) and let the demand path
			// retry (and surface) the fault. Fatal faults are also latched
			// so WaitIdle reports them even if no demand follows.
			vm.dropResidency(b)
			vm.latchAsyncErr(err)
			vm.settle(b, false, 0)
			return
		}
		vm.settle(b, true, 0) // stays prefetched until the demand hit
	case dmaWriteback:
		if err := vm.writeBack(xferClean, req.dev, b); err != nil {
			vm.latchAsyncErr(err) // the page simply stays dirty
		}
		vm.settle(b, true, 0)
	}
}

// writeBack and fill are the two directions a page crosses the host
// link in, and the only places that decide whether it has to: a
// known-zero page (MarkZero) has no bytes worth moving either way. Both
// run under b's claim with no shard lock held, and own the bookkeeping
// of the copy they make — state, movement counters, the write-back
// stall count clean-ahead arms on — so their callers keep only what is
// theirs: claims, residency and pins.

// writeBack makes b's device copy on dev safe to lose: it copies it to
// the host (allocating the backing on first use) and leaves the page
// clean. A known-zero page is already safe to lose and nothing moves.
func (vm *VM) writeBack(x xfer, dev int, b *buffer) error {
	if b.state.Load() == pageZero {
		return nil
	}
	if b.host == nil {
		b.host = make([]float32, b.floats())
	}
	busy, err := vm.transfer(x, dev, overUplink, b.t, b.host, b.dev)
	if err != nil {
		return err
	}
	b.state.Store(pageClean)
	sh := vm.shards[dev]
	sh.mu.Lock()
	sh.stats.SwapOutBytes += b.t.Bytes
	sh.stats.SwapOuts++
	if x.waits == laneDMA {
		sh.stats.AsyncDMANanos += busy.Nanoseconds()
	} else {
		sh.syncOuts++
	}
	sh.mu.Unlock()
	return nil
}

// fill loads b's content into its freshly reserved device copy on dev:
// a copy from the host backing, after which the page is clean — or, for
// a known-zero page, the memset a real device would issue instead of a
// PCIe transfer, which leaves it known-zero. The memset is issued even
// though today's device copies come zeroed from make: that b.dev holds
// the page's content on return is fill's contract, not the allocator's.
// No copy means no link time and no fault site (internal/fault).
func (vm *VM) fill(x xfer, dev int, b *buffer) error {
	sh := vm.shards[dev]
	if b.state.Load() == pageZero {
		clear(b.dev)
		sh.mu.Lock()
		sh.stats.ZeroFillBytes += b.t.Bytes
		sh.stats.ZeroFills++
		sh.mu.Unlock()
		return nil
	}
	busy, err := vm.transfer(x, dev, overUplink, b.t, b.dev, b.host)
	if err != nil {
		return err
	}
	b.state.Store(pageClean)
	sh.mu.Lock()
	sh.stats.SwapInBytes += b.t.Bytes
	sh.stats.SwapIns++
	if x.waits == laneDMA {
		sh.stats.AsyncDMANanos += busy.Nanoseconds()
	}
	sh.mu.Unlock()
	return nil
}

// xfer names one kind of tensor copy: the fault site it answers to, the
// trace lane and label prefix its span carries, and which of its
// device's lanes waits for its link time (link.go) — laneDMA for the
// copies a DMA worker makes, whose link time overlaps compute.
type xfer struct {
	op     fault.Op
	lane   trace.Lane
	prefix string
	waits  laneKind
}

var (
	xferIn       = xfer{fault.SwapIn, trace.SwapIn, "in ", laneDemand}
	xferOut      = xfer{fault.SwapOut, trace.SwapOut, "out ", laneDemand}
	xferP2P      = xfer{fault.P2P, trace.P2P, "p2p ", laneDemand}
	xferPrefetch = xfer{fault.SwapIn, trace.Prefetch, "pf ", laneDMA}
	xferClean    = xfer{fault.SwapOut, trace.SwapOut, "cl ", laneDMA}
)

// transfer is the VM's one copy path, shared by every swap, p2p move and
// async DMA: consult the injector for dev's x.op site (transient faults
// retry in place), copy src into dst, charge the modeled links between
// dev and peer — the other device of a p2p move, overUplink for a swap —
// and emit the span on dev's x.lane. It returns how long the copy held
// the link: with bandwidth modeled, the span and the time are the
// reservation's [start, end) on the link's timeline, queueing visible as
// the gap before it; otherwise the wall time of the memcpy. Callers hold
// t's buffer claim and no shard lock; residency, dirty bits and stats
// stay theirs.
func (vm *VM) transfer(x xfer, dev, peer int, t *tensor.Tensor, dst, src []float32) (time.Duration, error) {
	cfg := vm.xferConfig()
	if err := vm.inject(cfg, x.op, dev, t); err != nil {
		return 0, err
	}
	start := vm.clk.Now()
	copyChunked(dst, src)
	var end time.Time
	if cfg.bps > 0 {
		start, end = vm.charge(cfg.bps, x.waits, dev, peer, t.Bytes)
	} else {
		end = vm.clk.Now()
	}
	if cfg.rec != nil {
		cfg.rec(dev, x.lane, x.prefix+t.String(), start, end)
	}
	return end.Sub(start), nil
}

// copyChunked copies src into dst through the shared kernel worker
// pool in cache-friendly chunks, so large DMAs use every core without
// starving compute (the pool interleaves fairly).
func copyChunked(dst, src []float32) {
	nn.ParallelFor(len(dst), 64<<10, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
