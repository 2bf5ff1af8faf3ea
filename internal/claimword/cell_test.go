package claimword

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCellUnderContention hammers one Cell the way the VM does. Pinners
// take and release pins on the resident buffer (Ensure's hit and the
// task's Unpin), consuming the prefetched mark when they find one, and
// ride out every claim they observe with WaitSettle. Meanwhile one
// claimer cycles the buffer through an eviction — a committed claim
// that consumes an unconsumed mark and settles non-resident — and a
// prefetch: an uncommitted claim, a prefetched Commit, a resident
// Settle. Pins are conserved, each prefetch's mark is consumed exactly
// once, and every waiter wakes. A transition that stores its successor
// word instead of CAS-ing it loses a concurrent pin, which the pinners
// see as an Unpin underflow or the final word as a leftover pin.
func TestCellUnderContention(t *testing.T) {
	const pinners, rounds = 4, 50_000
	var c Cell
	var landed, consumed atomic.Int64
	// Each goroutine and the first landing report at most once, so no
	// report blocks.
	failed := make(chan string, pinners+2)
	land := func() bool {
		// Nothing pins a non-resident buffer and the claimer is the
		// only claimant, so this claim cannot be refused.
		if !c.Claim(false, NeedEmpty) {
			failed <- fmt.Sprintf("prefetch claim refused on %v", c.Load())
			return false
		}
		c.Commit(true)
		landed.Add(1)
		c.Settle(true, 0)
		return true
	}
	land()

	var pinned sync.WaitGroup
	for range pinners {
		pinned.Add(1)
		go func() {
			defer pinned.Done()
			for n := 0; n < rounds; {
				w := c.Load()
				switch {
				case w.Claimed():
					c.WaitSettle()
				case !w.Resident() || !c.Pin(w):
					runtime.Gosched()
				default:
					n++
					if c.ConsumePrefetch() {
						consumed.Add(1)
					}
					if !c.Unpin() {
						failed <- fmt.Sprintf("Unpin underflow after %d pins on %v", n, c.Load())
						return
					}
				}
			}
		}()
	}
	var stop atomic.Bool
	var cycles int
	claimed := make(chan struct{})
	go func() {
		defer close(claimed)
		for !stop.Load() {
			if !c.Claim(true, NeedUnpinned) {
				runtime.Gosched()
				continue
			}
			if c.ConsumePrefetch() {
				consumed.Add(1)
			}
			c.Settle(false, 0)
			if !land() {
				return
			}
			cycles++
		}
	}()

	all := make(chan struct{})
	go func() {
		pinned.Wait()
		stop.Store(true)
		<-claimed
		close(all)
	}()
	select {
	case <-all:
	case <-time.After(2 * time.Minute):
		t.Fatalf("a waiter never woke: the word is %v", c.Load())
	}
	close(failed)
	for msg := range failed {
		t.Error(msg)
	}
	w := c.Load()
	if w.Claimed() || w.Pins() != 0 {
		t.Errorf("final word %v: want idle and unpinned", w)
	}
	unconsumed := int64(0)
	if w.Prefetched() {
		unconsumed = 1
	}
	if got := consumed.Load() + unconsumed; got != landed.Load() {
		t.Errorf("%d prefetches landed, %d marks consumed or left: want one each", landed.Load(), got)
	}
	t.Logf("%d pins on each of %d pinners, %d eviction and prefetch cycles", rounds, pinners, cycles)
}
