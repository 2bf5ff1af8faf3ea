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
// Three constructs silently break that property and are therefore
// banned from the deterministic core — internal/sched, internal/exec,
// internal/nn, internal/fault, internal/sim, internal/collective,
// internal/graph, internal/schedcheck, internal/memory,
// internal/runtime and internal/hw:
//
//   - wall-clock reads (time.Now, time.Since, time.Until): any value
//     derived from them differs across runs. Timing belongs behind
//     trace.Clock, injected at the edges, so the deterministic path
//     never observes it.
//   - math/rand package-level state (rand.Intn, rand.Float64,
//     rand.Seed, ...): the global source is shared, lock-ordered by
//     interleaving, and unseedable per-component. Use an explicit
//     *rand.Rand threaded from the config seed.
//   - map iteration: Go randomizes range order per run. Iterating a
//     map to pick a victim, order work or accumulate floats makes the
//     result interleaving-dependent (the waitableInFlight eviction
//     scan regressed exactly this way before moving to the LRU list).
//
// Uses with no scheduling consequence (pure logging, trace recording)
// are documented case by case with //lint:allow determinism <reason>.
//
// The per-package pass is lexical; the whole-program pass adds
// summary-based taint flow on top: a function outside the core that
// reaches time.Now or global rand at ANY call depth must not be called
// from inside the core. Interface calls (trace.Clock) do not propagate
// taint — that interface exists exactly so timing can be injected at
// the edges.
//
// The core includes all of internal/exec, so the adaptive-prefetch
// controller and Trainer.Retune need no rule of their own: every
// adaptation decision replays from logged inputs alone (DESIGN.md §13)
// because nothing in the package may read the clock, global rand or
// map order.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, math/rand global state and map iteration " +
		"in the deterministic core (internal/{sched,exec,nn,fault,sim,collective,graph,schedcheck,memory,runtime,hw}), " +
		"and taint flow of wall-clock/rand values into the core through any call chain",
	Run:        runDeterminism,
	RunProject: runDeterminismTaint,
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
	// The simulator's memory manager, executor and hardware model order
	// every event behind the golden simulation (bench/golden).
	"internal/memory", "internal/runtime", "internal/hw",
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

// wallClockFuncs are the time package functions that read the real
// clock. time.Sleep is lockhold's concern; types like time.Duration
// and constructors like time.Date are deterministic and allowed.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(pass *Pass) error {
	if !inDeterministicCore(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for name := range wallClockFuncs {
					if pkgFunc(pass.Info, n, "time", name) {
						pass.Reportf(n.Pos(),
							"time.%s in the deterministic core; wall-clock reads must go through an injected trace.Clock", name)
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "math/rand" {
						if isRandGlobal(pass.Info, n) {
							pass.Reportf(n.Pos(),
								"math/rand global state (rand.%s) in the deterministic core; thread an explicit *rand.Rand from the config seed", n.Sel.Name)
						}
					}
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"map iteration in the deterministic core; range order is randomized per run — iterate a sorted key slice or an ordered structure instead")
					}
				}
			}
			return true
		})
	}
	return nil
}

// runDeterminismTaint is the summary-based upgrade: instead of
// spotting time.Now lexically, it follows wall-clock/rand values
// through the call graph. The sink is a function in the deterministic
// core calling an out-of-core function that reaches a taint source at
// any depth (the callee's own body is outside the lexical rule's
// scope, so PR-4's pass never saw it).
//
// Only statically resolvable calls propagate: routing time through the
// trace.Clock interface remains the sanctioned boundary.
func runDeterminismTaint(pass *ProjectPass) error {
	prog := pass.Prog
	for _, k := range prog.Order {
		s := prog.Funcs[k]
		if !inDeterministicCore(s.Key.Pkg) {
			continue
		}
		for _, c := range s.Calls {
			// No summary: external. A tainted callee inside the core
			// is already flagged in its own body by the lexical pass;
			// a second report at every caller would be noise.
			if prog.Funcs[c.callee] == nil || inDeterministicCore(c.callee.Pkg) {
				continue
			}
			if wtn := prog.TaintWitness(c.callee); wtn != "" {
				pass.Reportf(c.pos,
					"call to %s reaches %s at some call depth; wall-clock/rand values must not flow into the deterministic core — inject a trace.Clock or thread a seeded *rand.Rand",
					c.callee, wtn)
			}
		}
	}
	return nil
}

// isRandGlobal reports whether sel references math/rand package-level
// mutable state: the global-source convenience functions and Seed.
// Constructors (New, NewSource, NewZipf, ...) and type names return or
// name explicit sources and are fine.
func isRandGlobal(info *types.Info, sel *ast.SelectorExpr) bool {
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return false // type names, consts
	}
	return !strings.HasPrefix(sel.Sel.Name, "New")
}
