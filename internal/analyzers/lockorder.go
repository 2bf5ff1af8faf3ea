package analyzers

// Lockorder turns the comment-only lock-ordering discipline into a
// gated invariant. exec.VM documents the order — vmShard locks one at a
// time, never two nested — but nothing enforced it past the single
// function lockhold could see. This pass builds the global
// lock-acquisition graph from the lock lifecycle (lockSpec), path by
// path: an edge A → B wherever some path acquires class B while it
// holds class A — directly, or by calling a function that may take B at
// any call depth. It then rejects
//
//   - cycles between distinct classes: two call chains acquiring the
//     same pair of locks in opposite orders can deadlock, no matter
//     how many function boundaries separate the Lock calls;
//   - any nesting of two locks of one class anywhere on the call chain:
//     the same mutex self-deadlocks (sync.Mutex is not recursive), and
//     two instances of one class (two vmShard.mu) deadlock when two
//     paths take them in opposite orders. No doc comment licenses it.
//
// Doc contracts participate from both sides. A function documented
// "Requires sh.mu held" is explored with that lock open, so the locks
// it takes underneath contribute edges from the contract lock even
// though no Lock call is visible — unless it lets go of the lock
// first. Its callers therefore draw no edge from the contract lock at
// the call: what happens under it is the callee's exploration's to say.

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
)

var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "build the global lock-acquisition graph from the path-by-path lock lifecycle and reject " +
		"cycles and any nesting of two locks of one class",
	Run: runLockorder,
}

// lockEdge is one witnessed "B acquired while A held" fact.
type lockEdge struct {
	from, to Class
	pos      token.Pos
	via      string // callee for call-depth edges, "" for direct
}

// observeOrder is lockSpec's order observer: it records an edge from
// every lock the path holds to each lock node n takes, directly or
// through a resolvable callee's transitive acquisitions. A Lock is a
// statement of its own, so the state before n is the state at each of
// its calls. Deferred and spawned calls run later, under some other
// lock state, and so do function literals.
func observeOrder(e *lifeEngine, n ast.Node, st *lifeState) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	var held []Class
	for _, o := range st.open {
		if o.n > 0 && o.class != (Class{}) {
			held = append(held, o.class)
		}
	}
	if len(held) == 0 {
		return
	}
	inspectNode(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if m, lock, ok := mutexCall(e.pkg.Info, x); ok {
				if c, ok := classOf(e.pkg, e.sum.Key, m); ok && lock {
					for _, h := range held {
						e.edge(lockEdge{from: h, to: c, pos: x.Pos()})
					}
				}
				return true
			}
			k, ok := keyOf(calleeFunc(e.pkg.Info, x))
			callee := e.prog.Funcs[k]
			if !ok || callee == nil {
				return true
			}
			for _, h := range held {
				if slices.Contains(callee.EntryHeld, h) {
					continue // the callee's contract: its exploration follows h
				}
				for _, acq := range e.prog.transAcq[callee.idx] {
					e.edge(lockEdge{from: h, to: acq, pos: x.Pos(), via: k.String()})
				}
			}
		}
		return true
	})
}

func runLockorder(pass *Pass) error {
	adj := make(map[Class]map[Class]lockEdge)
	for _, e := range pass.Prog.lifecycle(lockSpec).edges {
		if e.from == e.to {
			pass.Reportf(e.pos,
				"nested acquisition of %s%s while a lock of the same class is held; no two locks of one class may nest",
				e.to, viaClause(e.via))
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = make(map[Class]lockEdge)
		}
		if _, dup := adj[e.from][e.to]; !dup {
			adj[e.from][e.to] = e // first witness wins (deterministic: exploration order)
		}
	}

	reportLockCycles(pass, adj)
	return nil
}

func viaClause(via string) string {
	if via == "" {
		return ""
	}
	return fmt.Sprintf(" (inside %s)", via)
}

// reportLockCycles finds every cycle among distinct lock classes and
// reports each once, at the witness position of its lexically first
// edge, rendering the full chain of hops.
func reportLockCycles(pass *Pass, adj map[Class]map[Class]lockEdge) {
	nodes := make([]Class, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	succ := func(n Class) []Class {
		outs := make([]Class, 0, len(adj[n]))
		for m := range adj[n] {
			outs = append(outs, m)
		}
		sort.Slice(outs, func(i, j int) bool { return outs[i].String() < outs[j].String() })
		return outs
	}

	// Lock graphs are tiny (a dozen classes), so a plain DFS from every
	// node with canonical-key dedupe is plenty; cycles are reported once
	// regardless of which node the walk entered them from.
	reported := make(map[string]bool)
	var stack []Class
	onStack := make(map[Class]int)
	var dfs func(n Class)
	dfs = func(n Class) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, m := range succ(n) {
			if at, ok := onStack[m]; ok {
				cycle := append([]Class(nil), stack[at:]...)
				reportCycle(pass, adj, cycle, reported)
				continue
			}
			dfs(m)
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	for _, n := range nodes {
		dfs(n)
	}
}

func reportCycle(pass *Pass, adj map[Class]map[Class]lockEdge, cycle []Class, reported map[string]bool) {
	// Canonicalize: rotate so the smallest class leads.
	min := 0
	for i := range cycle {
		if cycle[i].String() < cycle[min].String() {
			min = i
		}
	}
	rot := append(append([]Class(nil), cycle[min:]...), cycle[:min]...)
	key := ""
	for _, c := range rot {
		key += c.String() + "→"
	}
	if reported[key] {
		return
	}
	reported[key] = true

	desc := ""
	var firstEdge *lockEdge
	for i, c := range rot {
		next := rot[(i+1)%len(rot)]
		e := adj[c][next]
		if firstEdge == nil {
			firstEdge = &e
		}
		pos := pass.Prog.Fset.Position(e.pos)
		desc += fmt.Sprintf("%s → %s (%s:%d%s)", c, next, shortFile(pos.Filename), pos.Line, viaClause(e.via))
		if i != len(rot)-1 {
			desc += ", "
		}
	}
	pass.Reportf(firstEdge.pos,
		"lock-order cycle: %s; pick one global order and document it", desc)
}
