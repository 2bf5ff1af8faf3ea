package claimword

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Cell is one buffer's live claim state: the packed Word and the wake
// channel of the claim it holds. Its fields are unexported, so outside
// this package the word changes only through the methods below, and
// every one of them except Pin applies its pure transition through the
// one compare-and-swap loop, apply: a transition computed from a stale
// word is retried, never stored over a pin another device took
// meanwhile. The zero Cell is a fresh buffer's: idle, non-resident,
// unpinned. A Cell must not be copied after first use.
type Cell struct {
	word atomic.Uint64
	// done points to the current claim's wake channel, closed at
	// Settle. The claim winner publishes it right after its CAS, so a
	// waiter that observes a claimed word with a nil done yields and
	// re-observes.
	done atomic.Pointer[chan struct{}]
}

// Load observes the word.
func (c *Cell) Load() Word { return Word(c.word.Load()) }

// apply advances the word by next until a CAS lands or next refuses
// the observed word, which it then returns with ok=false.
func (c *Cell) apply(next func(Word) (Word, bool)) (Word, bool) {
	for {
		w := c.Load()
		n, ok := next(w)
		if !ok {
			return w, false
		}
		if c.word.CompareAndSwap(uint64(w), uint64(n)) {
			return n, true
		}
	}
}

// Claim opens a claim under need (see the Claim transition) and
// publishes its wake channel. committed is set in the claim's own CAS,
// so no observer ever sees a resident claimed-unwaitable word. It
// reports false when the buffer is not claimable; the caller
// re-observes and retries or bails.
func (c *Cell) Claim(committed bool, need Need) bool {
	if _, ok := c.apply(func(w Word) (Word, bool) { return Claim(w, committed, need) }); !ok {
		return false
	}
	ch := make(chan struct{})
	c.done.Store(&ch)
	return true
}

// Commit publishes residency for the caller's claimed swap-in (see the
// Commit transition). It must come before the buffer becomes visible
// to an eviction scan. Panics if the word is not claimed.
func (c *Cell) Commit(prefetched bool) {
	if w, ok := c.apply(func(w Word) (Word, bool) { return Commit(w, prefetched) }); !ok {
		panic(fmt.Sprintf("claimword: Commit of unclaimed %v", w))
	}
}

// Settle completes the caller's claim — residency set to the outcome,
// pinDelta applied (see the Settle transition) — and wakes every
// waiter by closing the claim's channel. The pointer CAS on done
// tolerates a successor claim publishing its own channel between the
// word CAS and the cleanup. Panics if the word is not claimed.
func (c *Cell) Settle(resident bool, pinDelta int) {
	p := c.done.Load()
	if w, ok := c.apply(func(w Word) (Word, bool) { return Settle(w, resident, pinDelta) }); !ok {
		panic(fmt.Sprintf("claimword: Settle of unclaimed %v", w))
	}
	if p != nil {
		c.done.CompareAndSwap(p, nil)
		close(*p)
	}
}

// Pin takes one pin by a single CAS against w, the word the caller
// just observed — not a retry loop, so the caller's placement reads
// stay tied to the exact word that was pinned. It reports false when
// the buffer is claimed, not resident, or the word moved; the caller
// re-observes.
func (c *Cell) Pin(w Word) bool {
	n, ok := Pin(w)
	return ok && c.word.CompareAndSwap(uint64(w), uint64(n))
}

// Unpin releases one pin. It reports false on underflow.
func (c *Cell) Unpin() bool {
	_, ok := c.apply(Unpin)
	return ok
}

// ConsumePrefetch clears the prefetched mark. Exactly one caller wins:
// the demand hit it is counted as, or the move that takes the page
// off the device it was prefetched to.
func (c *Cell) ConsumePrefetch() bool {
	_, ok := c.apply(ConsumePrefetch)
	return ok
}

// WaitSettle blocks until the current claim settles, then returns so
// the caller can re-observe the word (a new claim may land at any
// time). It tolerates the window where a claim won its CAS but has not
// published its channel yet, and stale channels of claims that already
// settled (closed channels wake at once).
func (c *Cell) WaitSettle() {
	p := c.done.Load()
	if p == nil {
		runtime.Gosched()
		return
	}
	<-*p
}
