// Package lockhold is the fixture for the lockhold analyzer: blocking
// operations under a held mutex, and the doc-comment contracts that
// adjust the expected entry state. Leaked locks are pinned by the
// errpath fixture, nested shard locks by the lockorder fixture.
package lockhold

import (
	"sync"
	"time"
)

type vmish struct {
	mu   sync.Mutex
	aux  sync.Mutex
	cond *sync.Cond
	work chan int
	done chan struct{}
	wg   sync.WaitGroup
}

func (v *vmish) WaitIdle() {}

// recvUnderLock is the canonical violation: a channel wait while the
// metadata lock is held stalls every other goroutine needing the VM.
func (v *vmish) recvUnderLock() int {
	v.mu.Lock()
	x := <-v.work // want "channel receive while mu is held"
	v.mu.Unlock()
	return x
}

func (v *vmish) sendUnderLock() {
	v.mu.Lock()
	v.work <- 1 // want "channel send while mu is held"
	v.mu.Unlock()
}

// recvReleased is the correct shape: release, wait, reacquire.
func (v *vmish) recvReleased() int {
	v.mu.Lock()
	v.mu.Unlock()
	x := <-v.work
	v.mu.Lock()
	v.mu.Unlock()
	return x
}

func (v *vmish) sleepUnderLock() {
	v.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while mu is held"
	v.mu.Unlock()
}

// clock mirrors trace.Clock: the seam the modeled links sleep through
// parks the caller just as time.Sleep does.
type clock interface{ Sleep(d time.Duration) }

func (v *vmish) clockSleepUnderLock(clk clock) {
	v.mu.Lock()
	clk.Sleep(time.Millisecond) // want "Sleep \\(parks on the clock\\) while mu is held"
	v.mu.Unlock()
	clk.Sleep(time.Millisecond)
}

func (v *vmish) waitGroupUnderLock() {
	v.mu.Lock()
	v.wg.Wait() // want "sync.WaitGroup.Wait while mu is held"
	v.mu.Unlock()
}

func (v *vmish) waitIdleUnderLock() {
	v.mu.Lock()
	v.WaitIdle() // want "WaitIdle \\(drains async DMA\\) while mu is held"
	v.mu.Unlock()
}

func (v *vmish) selectUnderLock() {
	v.mu.Lock()
	select { // want "select without default while mu is held"
	case <-v.done:
	case x := <-v.work:
		_ = x
	}
	v.mu.Unlock()
}

// selectWithDefault never parks, so holding the lock across it is fine.
func (v *vmish) selectWithDefault() {
	v.mu.Lock()
	select {
	case <-v.done:
	default:
	}
	v.mu.Unlock()
}

// twoLocksHeld parks under two mutexes; the report names the lexically
// first held lock (v.aux before v.mu), the same one on every run,
// whatever order they were taken in.
func (v *vmish) twoLocksHeld() {
	v.mu.Lock()
	v.aux.Lock()
	<-v.done // want "channel receive while aux is held"
	v.aux.Unlock()
	v.mu.Unlock()
}

// capturedStillHeld: a closure that mentions the mutex does not take it
// away — the spawned goroutine contends for v.mu, this path still holds
// it at the receive.
func (v *vmish) capturedStillHeld() {
	v.mu.Lock()
	go func() {
		v.mu.Lock()
		v.mu.Unlock()
		v.wg.Done()
	}()
	<-v.done // want "channel receive while mu is held"
	v.mu.Unlock()
}

// addressedStillHeld: handing &v.mu to sync.NewCond stores a pointer to
// the mutex, not the critical section.
func (v *vmish) addressedStillHeld() {
	v.mu.Lock()
	v.cond = sync.NewCond(&v.mu)
	<-v.done // want "channel receive while mu is held"
	v.mu.Unlock()
}

// condWait is exempt: sync.Cond.Wait releases the mutex while parked.
func (v *vmish) condWait() {
	v.mu.Lock()
	for len(v.work) == 0 {
		v.cond.Wait()
	}
	v.mu.Unlock()
}

func (v *vmish) rangeChanUnderLock() {
	v.mu.Lock()
	for x := range v.work { // want "range over channel while mu is held"
		_ = x
	}
	v.mu.Unlock()
}

// deferUnlock is the idiomatic leak-proof shape.
func (v *vmish) deferUnlock(bad bool) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if bad {
		return errSentinel
	}
	return nil
}

// allowedRecv documents why this wait is safe: the channel is buffered
// and pre-filled by the caller, so the receive cannot park.
func (v *vmish) allowedRecv() int {
	v.mu.Lock()
	//lint:allow lockhold buffered and pre-filled by caller; never parks
	x := <-v.work
	v.mu.Unlock()
	return x
}

// vmShard mirrors the executor's per-device shard: a mutex plus
// payload.
type vmShard struct {
	mu   sync.Mutex
	used int64
}

// WaitSettle mirrors the claim cell's settle wait; its name is on the
// blocking list.
func (v *vmish) WaitSettle() {}

// reserveShard runs under the caller's shard lock and may return with
// it still held. Requires sh.mu held.
func (v *vmish) reserveShard(sh *vmShard, bytes int64) {
	sh.used += bytes
}

// blockUnderShardContract: the param contract puts sh.mu in the held
// state, so parking under it is flagged just like a receiver lock.
// Requires sh.mu held.
func (v *vmish) blockUnderShardContract(sh *vmShard) {
	<-v.done // want "channel receive while mu is held"
}

// waitSettleUnderLock: the in-module blocking list covers WaitSettle.
func (v *vmish) waitSettleUnderLock(sh *vmShard) {
	sh.mu.Lock()
	v.WaitSettle() // want "WaitSettle \\(blocks on claim settle\\) while mu is held"
	sh.mu.Unlock()
}

var errSentinel = sentinelErr{}

type sentinelErr struct{}

func (sentinelErr) Error() string { return "sentinel" }
