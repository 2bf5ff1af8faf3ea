// Package claimword defines the packed atomic claim word that drives
// the exec VM's per-buffer DMA state machine. One uint64 carries the
// DMA state, the residency/async/committed/prefetched flags and the
// pin count, so every transition on the hot path — pin, unpin, claim,
// commit, settle — is a single compare-and-swap instead of a critical
// section under a global lock. Demand Ensure, prefetch EnsureAsync,
// eviction and DMA completion on different devices therefore never
// contend on buffer metadata.
//
// The package holds only *pure* transition functions: each takes an
// observed word and returns the successor word plus an ok bit. The
// runtime (internal/exec) applies them with CompareAndSwap loops. The
// claimdiscipline analyzer (internal/analyzers) enforces that the
// executor mutates claim words only through its state-machine
// helpers, and those helpers only via CAS on these transitions.
//
// Word layout (low to high):
//
//	bits 0-1  DMA state: 0 idle, 1 swap-in, 2 swap-out
//	bit  2    async      — claim completes autonomously on a DMA worker
//	bit  3    committed  — sync claim past its reserve: pure transfer left
//	bit  4    resident   — a device copy exists (dev/devID are valid)
//	bit  5    prefetched — residency established by EnsureAsync, unconsumed
//	bits 8-27 pin count
//
// Invariant (DESIGN.md §9): a resident buffer is never claimed without
// async or committed set — every claim eviction can observe completes
// autonomously, so waiting on it cannot deadlock. It is a precondition
// of Claim, Commit always sets committed, and only Settle clears a
// claim, so no sequence of transitions reaches a word that breaks it.
// Nor is a claimed buffer ever pinned: Claim requires zero pins and Pin
// requires idleness, so a claim holder owns the buffer outright. The
// package's tests prove both by breadth-first search over every word
// reachable from the zero Word (TestEveryReachableWordIsWaitable),
// on a transition table that TestProtoTableMatchesClaimword diffs
// against these functions.
package claimword

import "fmt"

// Word is one buffer's packed claim state. The zero Word is idle,
// non-resident, unpinned — a freshly created buffer.
type Word uint64

// State is the DMA leg of the state machine.
type State uint64

const (
	// Idle: no DMA in flight; the buffer may be pinned, claimed or
	// evicted.
	Idle State = 0
	// SwapIn: a host→device or device→device copy is filling the
	// device buffer; its contents are undefined until settle.
	SwapIn State = 1
	// SwapOut: a device→host write-back is draining the device copy;
	// it stays valid but immutable (no pins) until settle.
	SwapOut State = 2
)

const (
	stateMask Word = 0x3

	flagAsync      Word = 1 << 2
	flagCommitted  Word = 1 << 3
	flagResident   Word = 1 << 4
	flagPrefetched Word = 1 << 5

	pinShift      = 8
	pinLimit Word = 1 << 20
	pinMask  Word = (pinLimit - 1) << pinShift
)

// State extracts the DMA state.
func (w Word) State() State { return State(w & stateMask) }

// Claimed reports whether a DMA is in flight (state != Idle).
func (w Word) Claimed() bool { return w.State() != Idle }

// Async reports a claim owned by an autonomously-completing worker.
func (w Word) Async() bool { return w&flagAsync != 0 }

// Committed reports a sync claim past its reserve.
func (w Word) Committed() bool { return w&flagCommitted != 0 }

// Resident reports that a device copy exists.
func (w Word) Resident() bool { return w&flagResident != 0 }

// Prefetched reports unconsumed prefetched residency.
func (w Word) Prefetched() bool { return w&flagPrefetched != 0 }

// Waitable reports a claim that completes autonomously — the only
// kind eviction may block on (an uncommitted sync claim may itself be
// waiting to reserve, so waiting on it could deadlock).
func (w Word) Waitable() bool { return w.Claimed() && (w.Async() || w.Committed()) }

// Pins returns the pin count.
func (w Word) Pins() int { return int((w & pinMask) >> pinShift) }

func (w Word) withPins(n int) Word {
	return (w &^ pinMask) | (Word(n) << pinShift & pinMask)
}

// String renders a word for diagnostics.
func (w Word) String() string {
	st := [3]string{"idle", "swap-in", "swap-out"}[w.State()]
	flags := ""
	if w.Async() {
		flags += "A"
	}
	if w.Committed() {
		flags += "C"
	}
	if w.Resident() {
		flags += "R"
	}
	if w.Prefetched() {
		flags += "P"
	}
	return fmt.Sprintf("{%s %s pins=%d}", st, flags, w.Pins())
}

// Need is a claim precondition: what the claimant requires of the
// buffer beyond it being idle and unpinned. Every claim excludes pins,
// so a pin holder's view is never read, moved or destroyed under it.
type Need int

const (
	// NeedUnpinned: idle and unpinned. Used by eviction, p2p moves,
	// Free, Invalidate and Read, which destroy, relocate or read the
	// device copy.
	NeedUnpinned Need = iota
	// NeedEmpty: idle, unpinned and non-resident. Used by swap-in,
	// Alloc and prefetch, which are about to create the device copy.
	NeedEmpty
)

// Claim transitions w into the claimed state st. async marks claims
// serviced by a DMA worker; committed marks sync claims that already
// hold every resource they need (write-backs, p2p with the
// destination reserved). A claim on a resident buffer must be one or
// the other, so eviction may wait on every claim it can see: a sync,
// uncommitted claim is refused there (swap-in and Alloc claim with
// NeedEmpty, which excludes residency anyway). Returns ok=false when
// the precondition fails (already claimed, pinned, resident against
// need, or unwaitable on a resident buffer); callers re-observe and
// retry or bail.
func Claim(w Word, st State, async, committed bool, need Need) (Word, bool) {
	if st != SwapIn && st != SwapOut {
		return w, false
	}
	if w.State() != Idle || w.Pins() > 0 || w.Resident() && !async && !committed {
		return w, false
	}
	if need == NeedEmpty && (w.Resident() || w.Prefetched()) {
		return w, false
	}
	n := (w &^ (stateMask | flagAsync | flagCommitted)) | Word(st)
	if async {
		n |= flagAsync
	}
	if committed {
		n |= flagCommitted
	}
	return n, true
}

// Commit publishes residency for a claimed swap-in (demand, Alloc or
// prefetch) whose reserve completed: only the pure transfer remains,
// so the claim now completes autonomously and eviction may wait on
// it. Sync claims gain committed; async (prefetch) claims additionally
// gain the prefetched mark. Residency and the waitable mark are set
// in the same word, upholding resident-implies-waitable atomically.
// Returns ok=false if w is not claimed.
func Commit(w Word) (Word, bool) {
	if !w.Claimed() {
		return w, false
	}
	n := w | flagResident | flagCommitted
	if w.Async() {
		n |= flagPrefetched
	}
	return n, true
}

// Settle completes w's claim: state returns to Idle, async/committed
// clear, residency is set to the outcome, and pinDelta (0 or +1, for
// paths that hand the buffer to their caller pinned) adjusts the pin
// count. Losing residency also clears the prefetched mark — the
// caller returns those bytes to the prefetch budget. Returns ok=false
// if w is not claimed or the pin adjustment underflows.
func Settle(w Word, resident bool, pinDelta int) (Word, bool) {
	if !w.Claimed() {
		return w, false
	}
	pins := w.Pins() + pinDelta
	if pins < 0 || Word(pins) >= pinLimit {
		return w, false
	}
	n := w &^ (stateMask | flagAsync | flagCommitted)
	if resident {
		n |= flagResident
	} else {
		n &^= flagResident | flagPrefetched
	}
	return n.withPins(pins), true
}

// Pin takes one pin on an idle resident buffer. Claims require
// idleness, so a successful pin excludes eviction and relocation
// until the matching Unpin. Returns ok=false when the buffer is
// claimed or not resident; callers re-observe (the claim may be their
// own prefetch about to land).
func Pin(w Word) (Word, bool) {
	if w.State() != Idle || !w.Resident() {
		return w, false
	}
	if Word(w.Pins()+1) >= pinLimit {
		return w, false
	}
	return w.withPins(w.Pins() + 1), true
}

// Unpin releases one pin. Returns ok=false on underflow.
func Unpin(w Word) (Word, bool) {
	if w.Pins() == 0 {
		return w, false
	}
	return w.withPins(w.Pins() - 1), true
}

// ConsumePrefetch clears the prefetched mark (first demand hit, or
// eviction/relocation of an unconsumed prefetch). Returns ok=false if
// the mark is not set; exactly one caller wins, so prefetch-budget
// accounting stays balanced.
func ConsumePrefetch(w Word) (Word, bool) {
	if !w.Prefetched() {
		return w, false
	}
	return w &^ flagPrefetched, true
}
