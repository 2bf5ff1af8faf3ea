// Package lockorder is the fixture for the lockorder analyzer: the
// global lock-acquisition graph built from interprocedural summaries,
// rejecting cycles, recursive acquisitions, and same-class shard
// nesting outside the ascending-order contract.
package lockorder

import "sync"

// manager mirrors memory.Manager: a top-level lock above per-device
// shards.
type manager struct {
	mu     sync.Mutex
	shards []devShard
}

// devShard mirrors the per-device accounting shard; the Shard suffix
// is what marks its mu as ascending-contract-governed.
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

// ------------------------------------------- recursive acquisition

// audit re-locks the manager through a helper while already holding
// it: a self-deadlock no single-function pass can see.
func (m *manager) audit() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return totalOf(m) // want `recursive acquisition of lockorder\.manager\.mu \(inside lockorder\.totalOf\) while it is already held`
}

// ------------------------------------------- multi-shard nesting

// migrate holds one shard while a helper locks another — same class,
// no ascending contract anywhere on the chain.
func (m *manager) migrate(from, to int, n int64) {
	d := &m.shards[from]
	d.mu.Lock()
	m.deposit(to, n) // want `second shard lock lockorder\.devShard\.mu acquired \(inside lockorder\.manager\.deposit\) while lockorder\.devShard\.mu is held`
	d.used -= n
	d.mu.Unlock()
}

func (m *manager) deposit(i int, n int64) {
	d := &m.shards[i]
	d.mu.Lock()
	d.used += n
	d.mu.Unlock()
}

// rebalance does the same nested hold, but declares the contract:
// shards are locked in ascending device order.
func (m *manager) rebalance(n int64) {
	for i := 0; i+1 < len(m.shards); i++ {
		lo, hi := &m.shards[i], &m.shards[i+1]
		lo.mu.Lock()
		moveAscending(lo, hi, n)
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
	b.mu.Lock() // want `second shard lock lockorder\.devShard\.mu acquired while lockorder\.devShard\.mu is held`
	b.mu.Unlock()
	a.mu.Unlock()
}

// orderedShards declares the contract, licensing the nesting: shards
// are locked in ascending device order.
func orderedShards(a, b *devShard) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// nestedUnderContract holds one shard by contract and takes another —
// still a nesting violation without the order declaration.
// Requires sh.mu held.
func nestedUnderContract(sh, other *devShard) {
	other.mu.Lock() // want `second shard lock lockorder\.devShard\.mu acquired while lockorder\.devShard\.mu is held`
	other.mu.Unlock()
}

// mergeNames nests the same lock class on a type that is not a *Shard:
// the shard-nesting rule (and its ascending-order license) does not
// apply, the class-level recursive-acquisition rule does.
func mergeNames(dst, src *registry) {
	dst.mu.Lock()
	src.mu.Lock() // want `recursive acquisition of lockorder\.registry\.mu while it is already held`
	for k, v := range src.names {
		dst.names[k] = v
	}
	src.mu.Unlock()
	dst.mu.Unlock()
}
