package analyzers

// Lockorder turns the comment-only lock-ordering discipline into a
// gated invariant. exec.VM documents the order — vmShard locks one at a
// time, never two nested — but nothing enforced it past the single
// function lockhold could see. This pass builds the global
// lock-acquisition graph from the interprocedural summaries: an edge
// A → B for every place the program acquires class B (directly, or
// anywhere inside a callee) while holding class A. It then rejects
//
//   - cycles between distinct classes: two call chains acquiring the
//     same pair of locks in opposite orders can deadlock, no matter
//     how many function boundaries separate the Lock calls;
//   - any nesting of two locks of one class anywhere on the call chain:
//     the same mutex self-deadlocks (sync.Mutex is not recursive), and
//     two instances of one class (two vmShard.mu) deadlock when two
//     paths take them in opposite orders. No doc comment licenses it.
//
// Doc contracts participate: a function documented "Requires sh.mu
// held" is summarized as entering with that class held, so the locks
// it takes underneath contribute edges from the contract lock even
// though no Lock call is visible.

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
)

var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "build the global lock-acquisition graph from interprocedural summaries and reject " +
		"cycles and any nesting of two locks of one class",
	RunProject: runLockorder,
}

// lockEdge is one witnessed "B acquired while A held" fact.
type lockEdge struct {
	from, to LockClass
	pos      token.Pos
	via      string // callee chain hop for call-depth edges, "" for direct
}

func runLockorder(pass *ProjectPass) error {
	prog := pass.Prog
	var edges []lockEdge
	for _, k := range prog.Order {
		s := prog.Funcs[k]
		for _, a := range s.Acquires {
			for _, h := range a.held {
				edges = append(edges, lockEdge{from: h, to: a.class, pos: a.pos})
			}
		}
		for _, c := range s.Calls {
			if len(c.held) == 0 {
				continue
			}
			callee := prog.Funcs[c.callee]
			if callee == nil {
				continue
			}
			for _, acq := range prog.TransAcquires(c.callee) {
				for _, h := range c.held {
					if h == acq && slices.Contains(callee.EntryHeld, acq) {
						// The callee's contract says the caller holds
						// this lock for it; its summary re-lists the
						// class only through that contract, not a
						// second acquisition.
						continue
					}
					edges = append(edges, lockEdge{from: h, to: acq, pos: c.pos, via: c.callee.String()})
				}
			}
		}
	}

	adj := make(map[LockClass]map[LockClass]lockEdge)
	for _, e := range edges {
		if e.from == e.to {
			pass.Reportf(e.pos,
				"nested acquisition of %s%s while a lock of the same class is held; no two locks of one class may nest",
				e.to, viaClause(e.via))
			continue
		}
		if adj[e.from] == nil {
			adj[e.from] = make(map[LockClass]lockEdge)
		}
		if _, dup := adj[e.from][e.to]; !dup {
			adj[e.from][e.to] = e // first witness wins (deterministic: Order)
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
func reportLockCycles(pass *ProjectPass, adj map[LockClass]map[LockClass]lockEdge) {
	nodes := make([]LockClass, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })

	succ := func(n LockClass) []LockClass {
		outs := make([]LockClass, 0, len(adj[n]))
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
	var stack []LockClass
	onStack := make(map[LockClass]int)
	var dfs func(n LockClass)
	dfs = func(n LockClass) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, m := range succ(n) {
			if at, ok := onStack[m]; ok {
				cycle := append([]LockClass(nil), stack[at:]...)
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

func reportCycle(pass *ProjectPass, adj map[LockClass]map[LockClass]lockEdge, cycle []LockClass, reported map[string]bool) {
	// Canonicalize: rotate so the smallest class leads.
	min := 0
	for i := range cycle {
		if cycle[i].String() < cycle[min].String() {
			min = i
		}
	}
	rot := append(append([]LockClass(nil), cycle[min:]...), cycle[:min]...)
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
