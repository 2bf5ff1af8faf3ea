package analyzers

// Seeded production violations for the lock and claim-order checks, in
// the manner of seeded_test.go: each regression is planted in the real
// package the pass guards.

import "testing"

// TestLockholdSeededRecvUnderShardLock: a channel receive under the
// real vmShard.mu stalls every other goroutine needing that device's
// shard — the blocking-under-lock class lockhold exists for.
func TestLockholdSeededRecvUnderShardLock(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

// seededDrain waits for a wakeup while holding the shard lock.
func (vm *VM) seededDrain(dev int, wake chan struct{}) int64 {
	sh := vm.shards[dev]
	sh.mu.Lock()
	<-wake
	used := sh.used
	sh.mu.Unlock()
	return used
}
`)
	diags := runSeeded(t, tmp, Lockhold, "./internal/exec")
	mustDiag(t, diags, "lockhold", `channel receive while mu is held`)
}

// TestLockholdSeededClockSleepUnderLinkLock: the modeled links sleep
// through the trace.Clock seam, where time.Sleep's lexical rule cannot
// see them. A lane that slept out its reservation with the link model's
// mutex still held would stall every other device's transfers.
func TestLockholdSeededClockSleepUnderLinkLock(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

import "time"

// seededSettle sleeps a lane's debt off without letting go of the links.
func (vm *VM) seededSettle(lane int) {
	m := &vm.link
	m.mu.Lock()
	owed := m.debt[lane]
	m.debt[lane] = 0
	vm.clk.Sleep(owed + time.Microsecond)
	m.mu.Unlock()
}
`)
	diags := runSeeded(t, tmp, Lockhold, "./internal/exec")
	mustDiag(t, diags, "lockhold", `Sleep \(parks on the clock\) while mu is held`)
}

// TestErrpathSeededHappyPathLeak: Manager.mu leaked on a non-error
// return — no error guard anywhere near it — inside the real
// internal/memory package.
func TestErrpathSeededHappyPathLeak(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/memory/seeded.go", `package memory

// seededLive counts the live tensors; the empty-table shortcut returns
// with mu still held.
func (m *Manager) seededLive() int {
	m.mu.Lock()
	if len(m.states) == 0 {
		return 0
	}
	n := len(m.home)
	m.mu.Unlock()
	return n
}
`)
	diags := runSeeded(t, tmp, Errpath, "./internal/memory")
	mustDiag(t, diags, "errpath",
		`lock on m\.mu taken at seeded\.go:\d+ is still held on a path ending at the return at seeded\.go:\d+`)
}

// TestClaimDisciplineSeededPublishBeforeCommit: lruPush ahead of commit
// under a synchronous uncommitted claim inside the real internal/exec —
// the eviction scan can now find a resident buffer whose claim it must
// not wait on.
func TestClaimDisciplineSeededPublishBeforeCommit(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

import "harmony/internal/claimword"

// seededInstall publishes b to the shard's LRU before committing it.
// Requires sh.mu held.
func (vm *VM) seededInstall(sh *vmShard, b *buffer) {
	if !vm.claim(b, claimword.SwapIn, false, false, claimword.NeedIdle) {
		return
	}
	vm.lruPush(sh, b)
	vm.commit(b)
}
`)
	diags := runSeeded(t, tmp, ClaimDiscipline, "./internal/exec")
	mustDiag(t, diags, "claimdiscipline", `published to the LRU under an uncommitted synchronous claim`)
}
