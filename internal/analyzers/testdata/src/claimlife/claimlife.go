// Package claimlife is the fixture for the claimlife analyzer: every
// successful claim must reach exactly one of commit or settle on every
// CFG path.
package claimlife

import "errors"

// buf mirrors the exec VM buffer: a claim word guarded by CAS-style
// claim/commit/settle methods on the VM.
type buf struct {
	word uint32
}

type vm struct {
	depth int
}

func (v *vm) claim(b *buf) bool {
	if b.word != 0 {
		return false
	}
	b.word = 1
	return true
}

func (v *vm) commit(b *buf) {
	b.word = 2
}

func (v *vm) settle(b *buf, resident bool, pinDelta int) {
	b.word = 0
}

// req carries a claimed buffer to another goroutine; the worker that
// drains the queue settles it.
type req struct {
	b *buf
}

func (v *vm) enqueue(r req) {
	_ = r
}

// ---------------------------------------------------------------- clean

// committed takes the claim and commits on the only path that holds it.
func committed(v *vm, b *buf) {
	if !v.claim(b) {
		return
	}
	v.commit(b)
}

// settled resolves the claim through settle instead of commit.
func settled(v *vm, b *buf) error {
	if !v.claim(b) {
		return errors.New("contended")
	}
	v.settle(b, true, 0)
	return nil
}

// failedClaim never enters the claimed state, so the early return is
// fine on both arms.
func failedClaim(v *vm, b *buf) bool {
	if !v.claim(b) {
		return false
	}
	v.commit(b)
	return true
}

// queueUncommitted stores the claimed buffer into a request that
// another owner would settle. Nothing hands a claim off: the path still
// ends holding it.
func queueUncommitted(v *vm, b *buf) {
	if !v.claim(b) { // want `claim on b taken at .* is neither committed nor settled on a path`
		return
	}
	v.enqueue(req{b: b})
}

// settleForeign settles a buffer claimed elsewhere: close-without-open
// is a no-op, not a diagnostic.
func settleForeign(v *vm, b *buf) {
	v.settle(b, false, -1)
}

// -------------------------------------------------------------- leaks

// leakOnError claims, then an unrelated failure returns before either
// commit or settle: the buffer is stuck claimed forever.
func leakOnError(v *vm, b *buf) error {
	if !v.claim(b) { // want `claim on b taken at .* is neither committed nor settled on an error path`
		return errors.New("contended")
	}
	if v.depth > 8 {
		return errors.New("too deep")
	}
	v.commit(b)
	return nil
}

// leakOneBranch commits on one arm and forgets the other: the
// fallthrough path drops the claim on the floor.
func leakOneBranch(v *vm, b *buf, ready bool) {
	if !v.claim(b) { // want `claim on b taken at .* is neither committed nor settled on a path`
		return
	}
	if ready {
		v.commit(b)
	}
}
