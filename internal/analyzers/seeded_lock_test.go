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

// TestErrpathSeededHappyPathLeak: VM.bufMu leaked on a non-error
// return — no error guard anywhere near it — inside the real
// internal/exec package.
func TestErrpathSeededHappyPathLeak(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

// seededLive counts the registered buffers; the empty-map shortcut
// returns with bufMu still held.
func (vm *VM) seededLive() int {
	vm.bufMu.Lock()
	if len(vm.bufs) == 0 {
		return 0
	}
	n := len(vm.bufs)
	vm.bufMu.Unlock()
	return n
}
`)
	diags := runSeeded(t, tmp, Errpath, "./internal/exec")
	mustDiag(t, diags, "errpath",
		`lock on vm\.bufMu taken at seeded\.go:\d+ is still held on a path ending at the return at seeded\.go:\d+`)
}

// TestLockorderSeededProseIsNoLicence: a doc comment saying a method
// visits shards "in ascending device order" proves nothing. Holding one
// vmShard.mu while taking another deadlocks against any path that takes
// the same two the other way round, so lockorder reports the nesting
// whatever the doc comment says.
func TestLockorderSeededProseIsNoLicence(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

// seededBalance moves accounting from a device to its neighbour,
// visiting the two shards in ascending device order.
func (vm *VM) seededBalance(dev int, bytes int64) {
	lo, hi := vm.shards[dev], vm.shards[dev+1]
	lo.mu.Lock()
	hi.mu.Lock()
	lo.used -= bytes
	hi.used += bytes
	hi.mu.Unlock()
	lo.mu.Unlock()
}
`)
	diags := runSeeded(t, tmp, Lockorder, "./internal/exec")
	mustDiag(t, diags, "lockorder",
		`nested acquisition of exec\.vmShard\.mu while a lock of the same class is held`)
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
