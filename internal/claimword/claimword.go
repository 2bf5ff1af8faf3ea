// Package claimword defines the packed atomic claim word that drives
// the exec VM's per-buffer claim protocol. One uint64 carries the
// claimed/committed/resident/prefetched flags and the pin count, so
// every transition on the hot path — pin, unpin, claim, commit, settle
// — is a single compare-and-swap instead of a critical section under a
// global lock. Demand Ensure, prefetch EnsureAsync, eviction and DMA
// completion on different devices therefore never contend on buffer
// metadata.
//
// The transitions are pure functions: each takes an observed word and
// returns the successor word plus an ok bit. A buffer's live word
// lives in a Cell (cell.go), whose fields are unexported: the runtime
// (internal/exec) embeds one per buffer and can change it only through
// the Cell's methods, which apply these transitions through one
// CompareAndSwap loop (Pin excepted: it is a single CAS against the
// word its caller observed). So the compiler, not a lint rule, keeps
// every write of the word on a transition, and TestCellUnderContention
// holds the loop to CAS.
//
// Word layout (low to high):
//
//	bit  0    claimed    — one holder owns the buffer's device copy and host backing
//	bit  1    committed  — the claim holds everything it needs: pure transfer left
//	bit  2    resident   — a device copy exists (dev/devID are valid)
//	bit  3    prefetched — residency established by EnsureAsync, unconsumed
//	bits 8-27 pin count
//
// Invariant (DESIGN.md §9): a resident buffer is never claimed without
// committed set — every claim eviction can observe completes on its
// own, so waiting on it cannot deadlock. It is a precondition of Claim,
// Commit always sets committed, and only Settle clears a claim, so no
// sequence of transitions reaches a word that breaks it. Nor is a
// claimed buffer ever pinned: Claim requires zero pins and Pin
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

const (
	flagClaimed    Word = 1 << 0
	flagCommitted  Word = 1 << 1
	flagResident   Word = 1 << 2
	flagPrefetched Word = 1 << 3

	pinShift      = 8
	pinLimit Word = 1 << 20
	pinMask  Word = (pinLimit - 1) << pinShift
)

// Claimed reports whether a claim is open on the buffer.
func (w Word) Claimed() bool { return w&flagClaimed != 0 }

// Committed reports a claim past its reserve.
func (w Word) Committed() bool { return w&flagCommitted != 0 }

// Resident reports that a device copy exists.
func (w Word) Resident() bool { return w&flagResident != 0 }

// Prefetched reports unconsumed prefetched residency.
func (w Word) Prefetched() bool { return w&flagPrefetched != 0 }

// Waitable reports a claim that completes on its own — the only kind
// eviction may block on (an uncommitted claim may itself be waiting to
// reserve, so waiting on it could deadlock).
func (w Word) Waitable() bool { return w.Claimed() && w.Committed() }

// Pins returns the pin count.
func (w Word) Pins() int { return int((w & pinMask) >> pinShift) }

func (w Word) withPins(n int) Word {
	return (w &^ pinMask) | (Word(n) << pinShift & pinMask)
}

// String renders a word for diagnostics.
func (w Word) String() string {
	s := fmt.Sprintf("{pins=%d", w.Pins())
	for i, flag := range [...]string{"claimed", "committed", "resident", "prefetched"} {
		if w&(1<<i) != 0 {
			s += " " + flag
		}
	}
	return s + "}"
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

// Claim opens a claim on w. committed marks claims that already hold
// every resource they need (write-backs, p2p with the destination
// reserved, reads); a claim on a resident buffer must be one, so
// eviction may wait on every claim it can see (swap-in, Alloc and
// prefetch claim uncommitted with NeedEmpty, which excludes residency
// anyway). Returns ok=false when the precondition fails (already
// claimed, pinned, resident against need, or uncommitted on a resident
// buffer); callers re-observe and retry or bail.
func Claim(w Word, committed bool, need Need) (Word, bool) {
	if w.Claimed() || w.Pins() > 0 || w.Resident() && !committed {
		return w, false
	}
	if need == NeedEmpty && (w.Resident() || w.Prefetched()) {
		return w, false
	}
	n := w&^flagCommitted | flagClaimed
	if committed {
		n |= flagCommitted
	}
	return n, true
}

// Commit publishes residency for a claimed swap-in (demand, Alloc or
// prefetch) whose reserve completed: only the pure transfer remains,
// so eviction may wait on the claim from now on. Residency and the
// committed mark are set in the same word, upholding
// resident-implies-waitable atomically; prefetched additionally marks
// the residency as a prefetch's. Returns ok=false if w is not claimed.
func Commit(w Word, prefetched bool) (Word, bool) {
	if !w.Claimed() {
		return w, false
	}
	n := w | flagResident | flagCommitted
	if prefetched {
		n |= flagPrefetched
	}
	return n, true
}

// Settle completes w's claim: claimed and committed clear, residency is
// set to the outcome, and pinDelta (0 or +1, for paths that hand the
// buffer to their caller pinned) adjusts the pin count. Losing
// residency also clears the prefetched mark — the caller returns those
// bytes to the prefetch budget. Returns ok=false if w is not claimed or
// the pin adjustment underflows.
func Settle(w Word, resident bool, pinDelta int) (Word, bool) {
	if !w.Claimed() {
		return w, false
	}
	pins := w.Pins() + pinDelta
	if pins < 0 || Word(pins) >= pinLimit {
		return w, false
	}
	n := w &^ (flagClaimed | flagCommitted)
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
	if w.Claimed() || !w.Resident() {
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
