package analyzers

// Unit tests for the interprocedural engine itself: summaries, doc
// contracts, and the fixpoint closures, checked directly on a small
// inline program rather than through an analyzer's diagnostics.

import (
	"testing"
)

const engineSrc = `// Package engine exercises the summary walker.
package engine

import (
	"sync"
	"time"
)

type boxShard struct{ mu sync.Mutex }

type owner struct {
	mu     sync.Mutex
	shards []boxShard
}

// depositLocked updates accounting. Requires o.mu held.
func depositLocked(o *owner, n int) {}

func (o *owner) deposit(n int) {
	o.mu.Lock()
	depositLocked(o, n)
	o.mu.Unlock()
}

// branchy keeps the lock on only one arm, so the join drops it.
func (o *owner) branchy(b bool) {
	o.mu.Lock()
	if b {
		o.mu.Unlock()
	}
	helper()
}

func helper() {}

// deferred holds until return.
func (o *owner) deferred() {
	o.mu.Lock()
	defer o.mu.Unlock()
	helper()
}

// stamp reads the wall clock directly.
func stamp() int64 { return time.Now().UnixNano() }

// viaStamp reaches it one hop away.
func viaStamp() int64 { return stamp() }

// viaVia reaches it two hops away.
func viaVia() int64 { return viaStamp() }

// drain can learn about shutdown directly.
func drain(ch chan int) {
	for range ch {
	}
}

// viaDrain can learn about it one call down.
func viaDrain(ch chan int) {
	for {
		drain(ch)
	}
}

// spin never can.
func spin() {
	for {
		helper()
	}
}

// lockChain: transitive acquisition two hops deep.
func lockChain(o *owner) {
	middle(o)
}

func middle(o *owner) {
	o.deposit(1)
}
`

// loadEngine writes the inline program to a temp dir and loads it.
func loadEngine(t *testing.T) *Program {
	t.Helper()
	pkgs, err := LoadDirs(writeModule(t, map[string]string{"engine/engine.go": engineSrc}), "engine")
	if err != nil {
		t.Fatalf("loading engine package: %v", err)
	}
	return BuildProgram(pkgs)
}

func engineKey(name, recv string) FuncKey {
	return FuncKey{Pkg: "engine", Recv: recv, Name: name}
}

func TestInterprocSummaries(t *testing.T) {
	prog := loadEngine(t)

	// Every declared function got a summary.
	for _, name := range []string{"deposit", "branchy", "helper", "stamp", "drain", "spin"} {
		k := engineKey(name, "")
		if name == "deposit" || name == "branchy" {
			k.Recv = "owner"
		}
		if prog.Funcs[k] == nil {
			t.Errorf("no summary for %v", k)
		}
	}

	// Doc contract: depositLocked is entry-held on owner.mu.
	dl := prog.Funcs[engineKey("depositLocked", "")]
	if dl == nil || len(dl.EntryHeld) != 1 || dl.EntryHeld[0].Owner != "owner" || dl.EntryHeld[0].Name != "mu" {
		t.Errorf("depositLocked EntryHeld = %v, want [engine.owner.mu]", dl.EntryHeld)
	}

	// deposit records a direct acquisition with nothing held, and its
	// call to depositLocked is seen while owner.mu is held.
	dep := prog.Funcs[engineKey("deposit", "owner")]
	if len(dep.Acquires) != 1 || len(dep.Acquires[0].held) != 0 {
		t.Errorf("deposit Acquires = %+v, want one event with empty held", dep.Acquires)
	}
	foundCall := false
	for _, c := range dep.Calls {
		if c.callee.Name == "depositLocked" {
			foundCall = true
			if len(c.held) != 1 || c.held[0].Owner != "owner" {
				t.Errorf("depositLocked call site held = %v, want [engine.owner.mu]", c.held)
			}
		}
	}
	if !foundCall {
		t.Error("deposit's call to depositLocked not summarized")
	}

	// Branch join drops the disagreed lock: helper is called with
	// nothing (certainly) held.
	br := prog.Funcs[engineKey("branchy", "owner")]
	for _, c := range br.Calls {
		if c.callee.Name == "helper" && len(c.held) != 0 {
			t.Errorf("branchy's helper call held = %v, want empty after branch join", c.held)
		}
	}

	// Deferred unlock keeps the lock held at later calls.
	df := prog.Funcs[engineKey("deferred", "owner")]
	for _, c := range df.Calls {
		if c.callee.Name == "helper" && len(c.held) != 1 {
			t.Errorf("deferred's helper call held = %v, want [engine.owner.mu]", c.held)
		}
	}
}

func TestInterprocFixpoints(t *testing.T) {
	prog := loadEngine(t)

	// Taint: direct, one hop, two hops; the witness names the first hop.
	if w := prog.TaintWitness(engineKey("stamp", "")); w != "time.Now" {
		t.Errorf("stamp witness = %q, want time.Now", w)
	}
	if w := prog.TaintWitness(engineKey("viaStamp", "")); w != "time.Now via engine.stamp" {
		t.Errorf("viaStamp witness = %q", w)
	}
	if w := prog.TaintWitness(engineKey("viaVia", "")); w != "time.Now via engine.stamp" {
		t.Errorf("viaVia witness = %q (the original hop is preserved)", w)
	}
	if w := prog.TaintWitness(engineKey("helper", "")); w != "" {
		t.Errorf("helper witness = %q, want clean", w)
	}

	// Shutdown reachability: direct, one hop, never.
	if !prog.ReachesShutdown(engineKey("drain", "")) {
		t.Error("drain should reach shutdown directly")
	}
	if !prog.ReachesShutdown(engineKey("viaDrain", "")) {
		t.Error("viaDrain should reach shutdown through drain")
	}
	if prog.ReachesShutdown(engineKey("spin", "")) {
		t.Error("spin must not reach shutdown")
	}

	// Transitive acquisition: lockChain → middle → deposit → owner.mu.
	acq := prog.TransAcquires(engineKey("lockChain", ""))
	found := false
	for _, c := range acq {
		if c.Owner == "owner" && c.Name == "mu" {
			found = true
		}
	}
	if !found {
		t.Errorf("lockChain TransAcquires = %v, want engine.owner.mu two hops deep", acq)
	}
}
