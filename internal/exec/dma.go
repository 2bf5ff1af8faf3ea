package exec

import (
	"time"

	"harmony/internal/fault"
	"harmony/internal/nn"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// This file is the VM's asynchronous DMA engine: per-device worker
// goroutines service prefetch swap-ins (EnsureAsync) while device
// workers compute. Write-backs are the demand path's alone: eviction
// makes them when it needs the room. All copies run outside the shard
// locks under a buffer claim; completion is signaled through the
// buffer's claim cell (claimword.Cell, whose transitions are the only
// way its word changes), so a demand Ensure on an in-flight buffer
// rides the DMA instead of copying twice.

// dmaReq is one prefetch: a host→device fill of b.dev, already landed
// (claimed and committed) by EnsureAsync.
type dmaReq struct {
	b   *buffer
	dev int // device whose DMA lane services the request
}

// StartEngine launches one DMA worker goroutine per device. Call Close
// to drain and stop the workers (recovery does, before discarding a
// VM). Idempotent; must be called before the first EnsureAsync. The
// budgetBytes parameter is deprecated: ignored, since prefetch is
// bounded by the caller's window and the device's free room alone; it
// stays until the benchmark harness stops passing it.
func (vm *VM) StartEngine(budgetBytes int64) {
	vm.engMu.Lock()
	defer vm.engMu.Unlock()
	if vm.engOn.Load() || vm.closed.Load() {
		return
	}
	vm.wg.Add(len(vm.shards))
	for d := range vm.shards {
		go vm.dmaWorker(d)
	}
	vm.engOn.Store(true) // the workers are running: EnsureAsync may enqueue
}

// Close stops the DMA workers after draining queued requests. Safe to
// call on a VM whose engine never started, and more than once. Shard
// conds are poked one at a time in ascending device order.
func (vm *VM) Close() {
	vm.engMu.Lock()
	if !vm.engOn.Load() || vm.closed.Load() {
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
	if !vm.engOn.Load() {
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
// or the device has no room for it. A later Ensure either hits the
// prefetched copy or rides the in-flight DMA. How far ahead it is
// asked is the caller's window (Trainer.prefetch); the whole admission
// runs under the destination shard's lock alone.
func (vm *VM) EnsureAsync(dev int, t *tensor.Tensor) {
	if !vm.engOn.Load() || vm.closed.Load() {
		return
	}
	b, ok := vm.lookup(t.ID)
	if !ok {
		return
	}
	w := b.Load()
	if w.Claimed() || w.Pins() > 0 {
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
			if w2 := b.Load(); !w2.Claimed() && w2.Resident() && int(b.devID.Load()) == dev && b.state.Load() != pageZero {
				vm.touch(sh, b)
			}
			sh.mu.Unlock()
		}
		return
	}
	if !b.backed() {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Prefetch fills spare capacity only. Evicting on behalf of the
	// future is a Belady bet the prefetcher always loses under
	// pressure: dropped pages are exactly the stashes and activations
	// the backward pass re-demands, and measured swap traffic tripled
	// when prefetch was allowed to make room for itself. The demand
	// path keeps sole authority over eviction.
	if sh.used+t.Bytes > vm.capacity {
		return
	}
	if _, err := vm.land(sh, b, landPrefetch); err != nil {
		return // raced with a demand path; it will do the work
	}
	sh.stats.PrefetchIssued++
	vm.enqueue(sh, dmaReq{b: b, dev: dev})
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
		// Pop by copying down: the queue is rarely more than one deep,
		// and re-slicing past its head would make the next append
		// reallocate it.
		req := sh.queue[0]
		n := copy(sh.queue, sh.queue[1:])
		sh.queue[n] = dmaReq{}
		sh.queue = sh.queue[:n]
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

// service performs one prefetch outside the shard lock.
func (vm *VM) service(req dmaReq) {
	b := req.b
	if err := vm.fill(xferPrefetch, req.dev, b); err != nil {
		// Failed prefetch: roll the residency back (dropResidency
		// returns the bytes to the device) and let the demand path
		// retry (and surface) the fault. Fatal faults are also latched
		// so WaitIdle reports them even if no demand follows.
		vm.dropResidency(b)
		vm.latchAsyncErr(err)
		b.Settle(false, 0)
		return
	}
	b.Settle(true, 0) // stays prefetched until the demand hit
}

// writeBack and fill are the two directions a page crosses the host
// link in, and the only places that decide whether it has to: a
// known-zero page (MarkZero) has no bytes worth moving either way. Both
// run under b's claim with no shard lock held, and own the bookkeeping
// of the copy they make — state and movement counters — so their
// callers keep only what is theirs: claims, residency and pins.

// writeBack makes b's device copy on dev safe to lose: it copies it to
// the host (allocating the backing on first use) and leaves the page
// clean. A known-zero page is already safe to lose and nothing moves.
// Only the demand path writes back, so the copy waits on dev's demand
// lane.
func (vm *VM) writeBack(dev int, b *buffer) error {
	if b.state.Load() == pageZero {
		return nil
	}
	if b.host == nil {
		b.host = make([]float32, b.floats())
	}
	if _, err := vm.transfer(xferOut, dev, overUplink, b.t, b.host, b.dev); err != nil {
		return err
	}
	b.state.Store(pageClean)
	sh := vm.shards[dev]
	sh.mu.Lock()
	sh.stats.SwapOutBytes += b.t.Bytes
	sh.stats.SwapOuts++
	sh.mu.Unlock()
	return nil
}

// fill loads b's content into its freshly reserved device copy on dev:
// a copy from the host backing, after which the page is clean — or, for
// a known-zero page, the memset a real device would issue instead of a
// PCIe transfer, which leaves it known-zero. The slice it is handed is
// usually a spare (VM.take) still holding whatever page last used it,
// so every element is written either way: that b.dev holds the page's
// content on return is fill's contract, not the allocator's. The one
// exception is a known-zero gradient (tensor.WeightGrad), whose bytes
// belong to its next backward: the first one of a step overwrites them
// unread (nn.Update.Reset), so its fill writes nothing, and
// only VM.Read, which reads a known-zero page as +0s, reads it before
// then. No copy means no link time and no fault site (internal/fault).
func (vm *VM) fill(x xfer, dev int, b *buffer) error {
	sh := vm.shards[dev]
	if b.state.Load() == pageZero {
		if b.t.Kind != tensor.WeightGrad {
			clear(b.dev)
		}
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
	cfg := vm.cfg
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
// starving compute (the pool interleaves fairly). A copy that would run
// inline anyway is made directly: the closure ParallelFor takes is
// heap-allocated where it is written, fanned out or not.
func copyChunked(dst, src []float32) {
	const grain = 64 << 10
	if len(dst) <= grain || nn.Workers() == 1 {
		copy(dst, src)
		return
	}
	nn.ParallelFor(len(dst), grain, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
