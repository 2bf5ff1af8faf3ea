package analyzers

// Unit tests for the interprocedural engine itself: summaries, doc
// contracts, the fixpoint closures and the lock-order edges the lock
// exploration records, checked directly on a small inline program
// rather than through an analyzer's diagnostics. The index-based
// closures are also checked against map-based reference versions over
// every fixture program and the live tree.

import (
	"fmt"
	"slices"
	"strings"
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

// branchy keeps the lock on only one arm, which reaches helper holding
// it.
func (o *owner) branchy(b bool) {
	o.mu.Lock()
	if b {
		o.mu.Unlock()
	}
	helper()
}

var logMu sync.Mutex

func helper() {
	logMu.Lock()
	logMu.Unlock()
}

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

	// deposit records one direct acquisition. Its call to depositLocked
	// draws no edge: owner.mu is the callee's contract, and the callee's
	// own exploration, which starts with it open, takes nothing under it.
	dep := prog.Funcs[engineKey("deposit", "owner")]
	if len(dep.Acquires) != 1 || dep.Acquires[0].class.String() != "engine.owner.mu" {
		t.Errorf("deposit Acquires = %+v, want one event on engine.owner.mu", dep.Acquires)
	}
	if e := edgesIn(prog, engineKey("deposit", "owner")); len(e) != 0 {
		t.Errorf("deposit records edges %q, want none at a call into the lock's contract", e)
	}
	if e := edgesIn(prog, engineKey("depositLocked", "")); len(e) != 0 {
		t.Errorf("depositLocked records edges %q, want none", e)
	}

	// A lock held on one arm only reaches helper on that path, and the
	// path is enough for an edge.
	want := []string{"engine.owner.mu → engine.logMu via engine.helper"}
	if e := edgesIn(prog, engineKey("branchy", "owner")); !slices.Equal(e, want) {
		t.Errorf("branchy records edges %q, want %q", e, want)
	}

	// A deferred unlock keeps the lock held at later calls.
	if e := edgesIn(prog, engineKey("deferred", "owner")); !slices.Equal(e, want) {
		t.Errorf("deferred records edges %q, want %q", e, want)
	}
}

// edgesIn renders the lock-order edges the lock exploration records
// inside the declared function k.
func edgesIn(prog *Program, k FuncKey) []string {
	decl := prog.Funcs[k].Decl
	var out []string
	for _, e := range prog.lifecycle(lockSpec).edges {
		if decl.Pos() <= e.pos && e.pos < decl.End() {
			out = append(out, fmt.Sprintf("%s → %s via %s", e.from, e.to, e.via))
		}
	}
	return out
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

// refCloseTaint is the reference taint closure: the same rounds in the
// same order as closeTaint, over the FuncKey-keyed summaries.
func refCloseTaint(p *Program) map[FuncKey]string {
	tainted := make(map[FuncKey]string)
	for _, k := range p.Order {
		if s := p.Funcs[k]; len(s.Taints) > 0 {
			tainted[k] = s.Taints[0].what
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			if tainted[k] != "" {
				continue
			}
			for _, c := range p.Funcs[k].Calls {
				if wtn := tainted[c.callee]; wtn != "" {
					via := wtn
					if !strings.Contains(wtn, " via ") {
						via = wtn + " via " + c.callee.String()
					}
					tainted[k] = via
					changed = true
					break
				}
			}
		}
	}
	return tainted
}

// refCloseShutdown is the reference shutdown-reachability closure.
func refCloseShutdown(p *Program) map[FuncKey]bool {
	shutdown := make(map[FuncKey]bool)
	for _, k := range p.Order {
		shutdown[k] = p.Funcs[k].DirectShutdown
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			if shutdown[k] {
				continue
			}
			for _, c := range p.Funcs[k].Calls {
				if shutdown[c.callee] {
					shutdown[k] = true
					changed = true
					break
				}
			}
		}
	}
	return shutdown
}

// refCloseAcquires is the reference transitive-acquisition closure,
// over sets of classes.
func refCloseAcquires(p *Program) map[FuncKey][]Class {
	sets := make(map[FuncKey]map[Class]bool)
	for _, k := range p.Order {
		set := make(map[Class]bool)
		for _, a := range p.Funcs[k].Acquires {
			set[a.class] = true
		}
		sets[k] = set
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			set := sets[k]
			for _, c := range p.Funcs[k].Calls {
				for cls := range sets[c.callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}
	trans := make(map[FuncKey][]Class)
	for k, set := range sets {
		for c := range set {
			trans[k] = append(trans[k], c)
		}
		slices.SortFunc(trans[k], Class.compare)
	}
	return trans
}

// orderSrc is a program whose taint witness depends on the order the
// closure visits functions in: visiting a before b, a's first tainted
// callee is c; visiting b first, it is b, through d.
const orderSrc = `package order

import "time"

func a() { b(); c() }

func b() { d() }

func c() { time.Now() }

func d() { time.Now() }
`

// TestFixpointsMatchReference: the index-based closures agree with the
// reference ones on every function of the inline programs, of every
// fixture program (the two-package taint project included) and of the
// live tree — witness strings and sorted class lists byte for byte.
func TestFixpointsMatchReference(t *testing.T) {
	check := func(name string, prog *Program) {
		t.Helper()
		taint, shutdown, acq := refCloseTaint(prog), refCloseShutdown(prog), refCloseAcquires(prog)
		for _, k := range prog.Order {
			if got, want := prog.TaintWitness(k), taint[k]; got != want {
				t.Errorf("%s: TaintWitness(%s) = %q, reference %q", name, k, got, want)
			}
			if got, want := prog.ReachesShutdown(k), shutdown[k]; got != want {
				t.Errorf("%s: ReachesShutdown(%s) = %v, reference %v", name, k, got, want)
			}
			if got, want := prog.TransAcquires(k), acq[k]; !slices.Equal(got, want) {
				t.Errorf("%s: TransAcquires(%s) = %v, reference %v", name, k, got, want)
			}
		}
	}
	check("engine", loadEngine(t))
	pkgs, err := LoadDirs(writeModule(t, map[string]string{"order/order.go": orderSrc}), "order")
	if err != nil {
		t.Fatalf("loading order package: %v", err)
	}
	order := BuildProgram(pkgs)
	if w := order.TaintWitness(FuncKey{Pkg: "order", Name: "a"}); w != "time.Now via order.c" {
		t.Errorf("a's witness = %q, want time.Now via order.c: the closure visits a before b", w)
	}
	check("order", order)
	forEachProgram(t, check)
}
