// Package lockorder is the fixture for the lockorder analyzer: the
// global lock-acquisition graph built path by path from the lock
// lifecycle, rejecting cycles and any nesting of two locks of one class.
package lockorder

import "sync"

// manager is a top-level lock above per-device shards.
type manager struct {
	mu     sync.Mutex
	shards []devShard
}

// devShard is a per-device accounting shard, like the executor's
// vmShard.
type devShard struct {
	mu   sync.Mutex
	used int64
}

// registry is an unrelated lock class for the cycle cases.
type registry struct {
	mu    sync.Mutex
	names map[string]int
}

// ---------------------------------------------------------- clean order

// sweep takes the manager lock, then each shard one at a time — the
// documented order, no two shards ever held together.
func (m *manager) sweep() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for i := range m.shards {
		d := &m.shards[i]
		d.mu.Lock()
		total += d.used
		d.mu.Unlock()
	}
	return total
}

// chargeLocked is documented entry-held; its caller holds d.mu for it,
// so the summary must not read the contract as a second acquisition.
//
// Requires d.mu held.
func chargeLocked(d *devShard, n int64) {
	d.used += n
}

func (m *manager) charge(i int, n int64) {
	d := &m.shards[i]
	d.mu.Lock()
	chargeLocked(d, n)
	d.mu.Unlock()
}

// ------------------------------------------------- cycle at call depth

// lookup locks the registry and, deep inside a helper, the manager:
// registry.mu → manager.mu.
func (r *registry) lookup(m *manager, name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return totalOf(m)
}

func totalOf(m *manager) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for i := range m.shards {
		total += m.shards[i].used
	}
	return total
}

// rename locks the manager and then, via a helper, the registry:
// manager.mu → registry.mu. Together with lookup this closes the
// cycle, even though no single function ever holds both pairs.
func (m *manager) rename(r *registry, name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The cycle is reported once, at the witness of its canonically
	// first edge (smallest class leads).
	record(r, name) // want `lock-order cycle: lockorder\.manager\.mu → lockorder\.registry\.mu .* lockorder\.registry\.mu → lockorder\.manager\.mu`
}

func record(r *registry, name string) {
	r.mu.Lock()
	r.names[name] = len(r.names)
	r.mu.Unlock()
}

// ------------------------------------ contract lock released in the callee

// tally counts a name against a shard under the registry lock:
// registry.mu → devShard.mu.
func (r *registry) tally(d *devShard, name string) {
	r.mu.Lock()
	d.mu.Lock()
	d.used += int64(r.names[name])
	d.mu.Unlock()
	r.mu.Unlock()
}

// flushLocked lets go of the shard lock its caller holds for it around
// the registry update, so no path holds devShard.mu over registry.mu
// and there is no cycle with tally.
//
// Requires d.mu held.
func flushLocked(d *devShard, r *registry, name string) {
	d.mu.Unlock()
	record(r, name)
	d.mu.Lock()
}

func (m *manager) flush(i int, r *registry, name string) {
	d := &m.shards[i]
	d.mu.Lock()
	flushLocked(d, r, name)
	d.mu.Unlock()
}

// ------------------------------------------ cycle on one path only

// journal is a lock class taken on either side of the registry.
type journal struct {
	mu      sync.Mutex
	entries []string
}

// replay takes the registry lock on one arm only, then the journal's:
// registry.mu → journal.mu on the path that locked.
func (r *registry) replay(j *journal, locked bool) {
	if !locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	j.mu.Lock()
	for _, e := range j.entries {
		r.names[e]++
	}
	j.mu.Unlock()
}

// note takes the registry under the journal: journal.mu → registry.mu,
// the opposite order to replay's locking path.
func (j *journal) note(r *registry, name string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries = append(j.entries, name)
	record(r, name) // want `lock-order cycle: lockorder\.journal\.mu → lockorder\.registry\.mu .* lockorder\.registry\.mu → lockorder\.journal\.mu`
}

// ------------------------------------------- recursive acquisition

// audit re-locks the manager through a helper while already holding
// it: a self-deadlock no single-function pass can see.
func (m *manager) audit() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return totalOf(m) // want `nested acquisition of lockorder\.manager\.mu \(inside lockorder\.totalOf\) while a lock of the same class is held`
}

// ------------------------------------------- multi-shard nesting

// migrate holds one shard while a helper locks another — same class.
func (m *manager) migrate(from, to int, n int64) {
	d := &m.shards[from]
	d.mu.Lock()
	m.deposit(to, n) // want `nested acquisition of lockorder\.devShard\.mu \(inside lockorder\.manager\.deposit\) while a lock of the same class is held`
	d.used -= n
	d.mu.Unlock()
}

func (m *manager) deposit(i int, n int64) {
	d := &m.shards[i]
	d.mu.Lock()
	d.used += n
	d.mu.Unlock()
}

// rebalance does the same nested hold under a doc comment that calls
// it safe: shards are locked in ascending device order. Prose licenses
// nothing.
func (m *manager) rebalance(n int64) {
	for i := 0; i+1 < len(m.shards); i++ {
		lo, hi := &m.shards[i], &m.shards[i+1]
		lo.mu.Lock()
		moveAscending(lo, hi, n) // want `nested acquisition of lockorder\.devShard\.mu \(inside lockorder\.moveAscending\) while a lock of the same class is held`
		lo.mu.Unlock()
	}
}

// moveAscending shifts load between two shards locked in ascending
// device order, lo already held by the caller.
func moveAscending(lo, hi *devShard, n int64) {
	hi.mu.Lock()
	lo.used -= n
	hi.used += n
	hi.mu.Unlock()
}

// nestedShards takes a second shard lock while holding one, within one
// function — the deadlock class the fixed device order exists to
// prevent.
func nestedShards(a, b *devShard) {
	a.mu.Lock()
	b.mu.Lock() // want `nested acquisition of lockorder\.devShard\.mu while a lock of the same class is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

// orderedShards says its shards are locked in ascending device order;
// the nesting is reported all the same.
func orderedShards(a, b *devShard) {
	a.mu.Lock()
	b.mu.Lock() // want `nested acquisition of lockorder\.devShard\.mu while a lock of the same class is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

// nestedUnderContract holds one shard by contract and takes another.
// Requires sh.mu held.
func nestedUnderContract(sh, other *devShard) {
	other.mu.Lock() // want `nested acquisition of lockorder\.devShard\.mu while a lock of the same class is held`
	other.mu.Unlock()
}

// mergeNames nests two registries: the rule is per class, not per
// shard type.
func mergeNames(dst, src *registry) {
	dst.mu.Lock()
	src.mu.Lock() // want `nested acquisition of lockorder\.registry\.mu while a lock of the same class is held`
	for k, v := range src.names {
		dst.names[k] = v
	}
	src.mu.Unlock()
	dst.mu.Unlock()
}
