// Package claimdisc is the fixture for the claimdiscipline analyzer:
// the DMA buffer's packed claim word and done pointer may only be
// mutated through the state-machine helpers, helpers may only advance
// the word by CompareAndSwap, and a buffer under an uncommitted claim
// must be committed or settled before lruPush publishes it to a shard's
// LRU.
package claimdisc

import (
	"sync"
	"sync/atomic"
)

type page struct{ data []byte }

// buffer mirrors the executor's DMA buffer: the packed claim word and
// the done-channel pointer are the state-machine fields; dev/host are
// claim-holder-owned payload.
type buffer struct {
	word atomic.Uint64
	done atomic.Pointer[chan struct{}]
	dev  *page
	host *page
	hits atomic.Uint64
}

type shard struct {
	mu  sync.Mutex
	lru *buffer
}

type vm struct {
	shards []*shard
}

// claim wins the word by CAS and then owns the done slot; both writes
// are the point of the helper.
func (v *vm) claim(b *buffer, committed bool, need int) bool {
	for {
		w := b.word.Load()
		if w&1 != 0 {
			return false
		}
		n := w | 1
		if committed {
			n |= 2
		}
		if b.word.CompareAndSwap(w, n) {
			ch := make(chan struct{})
			b.done.Store(&ch)
			return true
		}
	}
}

// commit publishes residency with a CAS loop.
func (v *vm) commit(b *buffer, prefetched bool) {
	for {
		w := b.word.Load()
		if b.word.CompareAndSwap(w, w|2|4) {
			return
		}
	}
}

// settle clears the claim and hands the done channel to waiters.
func (v *vm) settle(b *buffer, resident bool, pinDelta int) {
	p := b.done.Load()
	for {
		w := b.word.Load()
		if b.word.CompareAndSwap(w, w&^uint64(3)) {
			break
		}
	}
	if b.done.CompareAndSwap(p, nil) {
		close(*p)
	}
}

// pin is a single-shot CAS against the caller's observed word.
func (v *vm) pin(b *buffer, w uint64) bool {
	return b.word.CompareAndSwap(w, w+256)
}

func (v *vm) unpin(b *buffer) bool {
	for {
		w := b.word.Load()
		if w&0xff00 == 0 {
			return false
		}
		if b.word.CompareAndSwap(w, w-256) {
			return true
		}
	}
}

func (v *vm) consumePrefetch(b *buffer) bool {
	for {
		w := b.word.Load()
		if w&8 == 0 {
			return false
		}
		if b.word.CompareAndSwap(w, w&^uint64(8)) {
			return true
		}
	}
}

// vm2 carries deliberately broken helpers: rule 2 — even inside a
// method named commit/settle, the word may only advance by
// CompareAndSwap. A raw Store or Swap clobbers pins taken concurrently
// by another device's Ensure.
type vm2 struct{}

func (v *vm2) commit(b *buffer, prefetched bool) {
	b.word.Store(b.word.Load() | 2) // want "non-CAS mutation of buffer.word \\(Store\\) inside a transition helper"
}

func (v *vm2) settle(b *buffer, resident bool, pinDelta int) {
	b.word.Swap(0)   // want "non-CAS mutation of buffer.word \\(Swap\\) inside a transition helper"
	b.done.Swap(nil) // want "non-CAS mutation of buffer.done \\(Swap\\) inside a transition helper"
}

// evictFast mutates the machine ad hoc — rule 1 on both fields.
func (v *vm) evictFast(b *buffer) {
	b.word.Store(0)                  // want "mutation of buffer.word outside the claim state-machine helpers"
	b.done.Store(nil)                // want "mutation of buffer.done outside the claim state-machine helpers"
	b.word.Add(256)                  // want "mutation of buffer.word outside the claim state-machine helpers"
	if b.word.CompareAndSwap(0, 1) { // want "mutation of buffer.word outside the claim state-machine helpers"
		return
	}
}

// resetLater mutates the word from closures: rule 1 holds inside the
// function literals of a non-helper, spawned ones included.
func (v *vm) resetLater(b *buffer) func() {
	go func() {
		b.word.Store(0) // want "mutation of buffer.word outside the claim state-machine helpers"
	}()
	return func() {
		b.word.Store(0) // want "mutation of buffer.word outside the claim state-machine helpers"
	}
}

// replaceWord reassigns the atomic value wholesale — never legal.
func (v *vm) replaceWord(b *buffer) {
	b.word = atomic.Uint64{} // want "direct assignment to buffer.word bypasses its atomic API"
}

// reads and non-claim atomics are fine anywhere.
func (v *vm) scan(b *buffer) bool {
	b.hits.Add(1)
	if p := b.done.Load(); p != nil {
		<-*p
	}
	return b.word.Load() != 0
}

// lruPush publishes a buffer where the eviction scan will find it.
func (v *vm) lruPush(sh *shard, b *buffer) {
	sh.lru = b
}

// landGood is the canonical correct shape: uncommitted claim, install
// payload, commit, then publish.
func (v *vm) landGood(sh *shard, b *buffer) {
	if !v.claim(b, false, 1) {
		return
	}
	b.dev = &page{}
	v.commit(b, false)
	v.lruPush(sh, b)
}

// swapInSettled resolves the claim with settle before a later push;
// equally fine.
func (v *vm) swapInSettled(sh *shard, b *buffer) {
	if !v.claim(b, false, 1) {
		return
	}
	v.settle(b, true, 0)
	v.lruPush(sh, b)
}

// swapInLeaky publishes with the claim still uncommitted — another
// device's reserve can now find a resident buffer whose claim it must
// not wait on.
func (v *vm) swapInLeaky(sh *shard, b *buffer) {
	if !v.claim(b, false, 1) {
		return
	}
	b.dev = &page{}
	v.lruPush(sh, b) // want "buffer published to the LRU under an uncommitted claim"
	v.commit(b, false)
}

// prefetchLeaky is the same mistake on a prefetch: no claim kind is
// exempt, so the prefetch's claim must commit before its page is
// linked too.
func (v *vm) prefetchLeaky(sh *shard, b *buffer) {
	if !v.claim(b, false, 1) {
		return
	}
	v.lruPush(sh, b) // want "buffer published to the LRU under an uncommitted claim"
	v.commit(b, true)
}

// committedAtClaim is exempt: the claim CAS itself set committed, so
// no observer ever sees an unwaitable resident claim.
func (v *vm) committedAtClaim(sh *shard, b *buffer) {
	if !v.claim(b, true, 0) {
		return
	}
	v.lruPush(sh, b)
}

// allowedRaw shows the escape hatch for genuinely special cases, with
// the mandatory reason.
func (v *vm) allowedRaw(b *buffer) {
	//lint:allow claimdiscipline test-only reset between iterations
	b.word.Store(0)
}
