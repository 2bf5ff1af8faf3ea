// Package exec is the fixture for the claimlife analyzer: every
// successful claim must reach exactly one of Commit or Settle on every
// CFG path, and a buffer under an uncommitted claim must be committed
// or settled before lruPush publishes it to a shard's LRU.
package exec

import (
	"errors"

	"claimword"
)

// buf mirrors the exec VM buffer: the claim cell is embedded, so its
// transitions are called on the buffer.
type buf struct {
	claimword.Cell
	dev []byte
}

type vm struct {
	depth int
}

// req carries a claimed buffer to another goroutine; the worker that
// drains the queue settles it.
type req struct {
	b *buf
}

func (v *vm) enqueue(r req) {
	_ = r
}

type shard struct{ lru *buf }

// lruPush publishes a buffer where the eviction scan will find it.
func (v *vm) lruPush(sh *shard, b *buf) {
	sh.lru = b
}

// lease has a Claim of its own; it is no claim cell.
type lease struct{ held bool }

func (l *lease) Claim() bool {
	l.held = true
	return true
}

// ---------------------------------------------------------------- clean

// committed takes the claim and commits on the only path that holds it.
func committed(b *buf) {
	if !b.Claim(false, 1) {
		return
	}
	b.Commit(false)
}

// settled resolves the claim through Settle instead of Commit.
func settled(b *buf) error {
	if !b.Claim(true, 0) {
		return errors.New("contended")
	}
	b.Settle(true, 0)
	return nil
}

// failedClaim never enters the claimed state, so the early return is
// fine on both arms.
func failedClaim(b *buf) bool {
	if !b.Claim(false, 1) {
		return false
	}
	b.Commit(false)
	return true
}

// onTheCell claims through the cell itself rather than the buffer
// embedding it.
func onTheCell(c *claimword.Cell) {
	if !c.Claim(true, 0) {
		return
	}
	c.Settle(false, 0)
}

// notACell takes a lease and keeps it: a method named Claim on another
// type opens no claim.
func notACell(l *lease) bool {
	return l.Claim()
}

// queueUncommitted stores the claimed buffer into a request that
// another owner would settle. Nothing hands a claim off: the path still
// ends holding it.
func queueUncommitted(v *vm, b *buf) {
	if !b.Claim(false, 1) { // want `claim on b taken at .* is neither committed nor settled on a path`
		return
	}
	v.enqueue(req{b: b})
}

// settleForeign settles a buffer claimed elsewhere: close-without-open
// is a no-op, not a diagnostic.
func settleForeign(b *buf) {
	b.Settle(false, -1)
}

// -------------------------------------------------------------- leaks

// leakOnError claims, then an unrelated failure returns before either
// Commit or Settle: the buffer is stuck claimed forever.
func leakOnError(v *vm, b *buf) error {
	if !b.Claim(false, 1) { // want `claim on b taken at .* is neither committed nor settled on an error path`
		return errors.New("contended")
	}
	if v.depth > 8 {
		return errors.New("too deep")
	}
	b.Commit(false)
	return nil
}

// leakOneBranch commits on one arm and forgets the other: the
// fallthrough path drops the claim on the floor.
func leakOneBranch(b *buf, ready bool) {
	if !b.Claim(false, 1) { // want `claim on b taken at .* is neither committed nor settled on a path`
		return
	}
	if ready {
		b.Commit(false)
	}
}

// ---------------------------------------------------------- publishing

// landGood is the canonical correct shape: uncommitted claim, install
// payload, commit, then publish.
func (v *vm) landGood(sh *shard, b *buf) {
	if !b.Claim(false, 1) {
		return
	}
	b.dev = []byte{}
	b.Commit(false)
	v.lruPush(sh, b)
}

// swapInSettled resolves the claim with Settle before a later push;
// equally fine.
func (v *vm) swapInSettled(sh *shard, b *buf) {
	if !b.Claim(false, 1) {
		return
	}
	b.Settle(true, 0)
	v.lruPush(sh, b)
}

// swapInLeaky publishes with the claim still uncommitted — another
// device's reserve can now find a resident buffer whose claim it must
// not wait on.
func (v *vm) swapInLeaky(sh *shard, b *buf) {
	if !b.Claim(false, 1) {
		return
	}
	b.dev = []byte{}
	v.lruPush(sh, b) // want "buffer published to the LRU under an uncommitted claim"
	b.Commit(false)
}

// prefetchLeaky is the same mistake on a prefetch: no claim kind is
// exempt, so the prefetch's claim must commit before its page is
// linked too.
func (v *vm) prefetchLeaky(sh *shard, b *buf) {
	if !b.Claim(false, 1) {
		return
	}
	v.lruPush(sh, b) // want "buffer published to the LRU under an uncommitted claim"
	b.Commit(true)
}

// committedAtClaim is exempt: the claim CAS itself set committed, so
// no observer ever sees an unwaitable resident claim.
func (v *vm) committedAtClaim(sh *shard, b *buf) {
	if !b.Claim(true, 0) {
		return
	}
	v.lruPush(sh, b)
	b.Settle(true, 0)
}
