package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism guards the repo's central correctness property: given a
// seed, a schedule and a fault trace, training is bit-exact across
// runs and across goroutine interleavings (ROADMAP north star; the
// fault-recovery tests replay mid-iteration and diff weights exactly).
// Two constructs silently break that property and are therefore
// banned from the deterministic core — internal/sched, internal/exec,
// internal/nn, internal/fault, internal/sim, internal/collective,
// internal/graph, internal/schedcheck and internal/hw:
//
//   - wall-clock reads (time.Now, time.Since, time.Until): any value
//     derived from them differs across runs. Timing belongs behind
//     trace.Clock, injected at the edges, so the deterministic path
//     never observes it.
//   - map iteration: Go randomizes range order per run. Iterating a
//     map to pick a victim, order work or accumulate floats makes the
//     result interleaving-dependent (the waitableInFlight eviction
//     scan regressed exactly this way before moving to the LRU list).
//
// Global math/rand state is not a rule: no package of the module
// imports math/rand, and a fault rule drawing from the global source
// fails fault's TestProbDeterministicAcrossInterleavings on every run
// (DESIGN.md §10, the mutant × gate table).
//
// Uses with no scheduling consequence (pure logging, trace recording)
// are documented case by case with //lint:allow determinism <reason>.
//
// The pass is lexical over each core package, with summary-based taint
// flow on top: a function outside the core that reaches time.Now at ANY
// call depth must not be called from inside the core. Interface calls (trace.Clock) do not propagate taint — that
// interface exists exactly so timing can be injected at the edges.
//
// The core includes all of internal/exec, so Trainer.Retune needs no
// rule of its own: a retuned run replays from its seed and the retune
// step alone (DESIGN.md §13) because nothing in the package may read
// the clock or map order.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads and map iteration " +
		"in the deterministic core (internal/{sched,exec,nn,fault,sim,collective,graph,schedcheck,hw}), " +
		"and taint flow of wall-clock values into the core through any call chain",
	Run: runDeterminism,
}

// deterministicCore lists the package path suffixes in scope. Matching
// by suffix (or exact base name, for fixtures) rather than full path
// keeps the analyzer independent of the module name.
var deterministicCore = []string{
	"internal/sched", "internal/exec", "internal/nn", "internal/fault",
	// The discrete-event engine, collective algorithms and task-graph
	// builder feed every simulated result; the static verifier's
	// counterexamples must reproduce bit-exactly to be debuggable.
	"internal/sim", "internal/collective", "internal/graph", "internal/schedcheck",
	// The golden figures do not pin the order the hardware model builds
	// its links in. They do pin every byte the simulator's memory
	// manager and executor order, so those two are outside the core
	// (DESIGN.md §10).
	"internal/hw",
}

func inDeterministicCore(path string) bool {
	for _, s := range deterministicCore {
		if strings.HasSuffix(path, s) {
			return true
		}
		if base := s[strings.LastIndex(s, "/")+1:]; path == base {
			return true
		}
	}
	return false
}

// wallClockRead reports whether call reads the real clock — time.Now,
// time.Since or time.Until — and which of them. time.Sleep is
// lockhold's concern; types like time.Duration and constructors like
// time.Date are deterministic and allowed.
func wallClockRead(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Now", "Since", "Until":
		return sel.Sel.Name, pkgFunc(info, call, "time", sel.Sel.Name)
	}
	return "", false
}

func runDeterminism(pass *Pass) error {
	reportFindings(pass, pass.Prog.lexical.determinism)
	return runDeterminismTaint(pass)
}

// lintDeterminism reports one node of a core package's wall-clock
// reads and map iterations, over whole files: package-level
// declarations and function literals included. The one syntax walk
// (interproc.go) calls it.
func lintDeterminism(info *types.Info, n ast.Node, fs *[]finding) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if name, ok := wallClockRead(info, n); ok {
			addf(fs, n.Pos(),
				"time.%s in the deterministic core; wall-clock reads must go through an injected trace.Clock", name)
		}
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				addf(fs, n.Pos(),
					"map iteration in the deterministic core; range order is randomized per run — iterate a sorted key slice or an ordered structure instead")
			}
		}
	}
}

// runDeterminismTaint is the summary-based upgrade: instead of
// spotting time.Now lexically, it follows wall-clock values
// through the call graph. The sink is a function in the deterministic
// core calling an out-of-core function that reaches a taint source at
// any depth (the callee's own body is outside the lexical rule's
// scope, so PR-4's pass never saw it).
//
// Only statically resolvable calls propagate: routing time through the
// trace.Clock interface remains the sanctioned boundary.
func runDeterminismTaint(pass *Pass) error {
	prog := pass.Prog
	for _, s := range prog.sums {
		if !inDeterministicCore(s.Key.Pkg) {
			continue
		}
		for _, c := range s.Calls {
			// No summary: external. A tainted callee inside the core
			// is already flagged in its own body by the lexical pass;
			// a second report at every caller would be noise.
			if c.to < 0 || inDeterministicCore(c.callee.Pkg) {
				continue
			}
			if wtn := prog.tainted[c.to]; wtn != "" {
				pass.Reportf(c.pos,
					"call to %s reaches %s at some call depth; wall-clock values must not flow into the deterministic core — inject a trace.Clock",
					c.callee, wtn)
			}
		}
	}
	return nil
}
