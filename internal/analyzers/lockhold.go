package analyzers

import (
	"go/ast"
	"go/token"
	"strings"
)

// Lockhold enforces the executor's locking discipline (DESIGN.md §7,
// vm.go "Locking discipline" contract): mutexes like vmShard.mu and
// VM.bufMu guard metadata only, so no goroutine may block while
// holding one — copy execution, channel waits and sleeps always run
// with the lock released. It reports blocking operations at a point some path
// reaches with a mutex held: channel send or receive, range over a
// channel, select without a default, time.Sleep and a Sleep method (the
// trace.Clock seam the modeled links sleep through), sync.WaitGroup.Wait,
// VM.WaitIdle and claimword.Cell.WaitSettle. sync.Cond.Wait is exempt —
// it releases the mutex while parked.
//
// The pass is the blocking observer of the lock-lifecycle exploration
// errpath reports leaks from (lockSpec in errpath.go): the held locks at
// each node, per path, are that exploration's state, including locks
// the doc contract declares held on entry ("Requires sh.mu held").
// Leaked locks are errpath's report and nested locks lockorder's (the
// same exploration's order observer); this pass owns only blocking
// while a lock is held.
var Lockhold = &Analyzer{
	Name: "lockhold",
	Doc: "report blocking operations (channel operations, select without " +
		"default, time.Sleep, Clock.Sleep, WaitGroup.Wait, WaitIdle, WaitSettle) at any " +
		"point some path reaches with a mutex held; the doc contract " +
		"\"Requires sh.mu held\" sets the entry state",
	Run: func(pass *Pass) error {
		return reportFindings(pass, pass.Prog.lifecycle(lockSpec).observed)
	},
}

// blockingFunc reports whether an in-module function of this name
// parks the caller, and the label shown in the report.
func blockingFunc(name string) (string, bool) {
	switch name {
	case "WaitIdle":
		return "drains async DMA", true
	case "WaitSettle":
		return "blocks on claim settle", true
	case "Sleep":
		return "parks on the clock", true
	}
	return "", false
}

// observeBlocking is lockSpec's observer: it reports every blocking
// operation in node n when st holds a lock. Deferred and spawned calls
// run later, under some other lock state, and so do function literals.
func observeBlocking(e *lifeEngine, n ast.Node, st *lifeState) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	held := ""
	for _, o := range st.open {
		if o.n > 0 {
			// st.open is sorted, so with several locks held the report
			// names the lexically first — the same one every run. The
			// root variable is dropped: "mu" for v.mu and sh.mu alike.
			held = o.res[strings.IndexByte(o.res, '.')+1:]
			break
		}
	}
	if held == "" {
		return
	}
	report := func(pos token.Pos, what string) {
		e.observef(pos, "%s while %s is held; blocking operations must run with the lock released", what, held)
	}
	info := e.pkg.Info
	inspectNode(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			// A select arm's own communication is what the select
			// waited for; only its operands can block separately.
			if x != e.blk.Comm {
				report(x.Arrow, "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !isCommRecv(e.blk.Comm, x) {
				report(x.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if isChan(info, x.X) {
				report(x.Pos(), "range over channel")
			}
		case *ast.SelectStmt:
			if !hasDefaultComm(x.Body) {
				report(x.Pos(), "select without default")
			}
		case *ast.CallExpr:
			if _, ok := methodOn(info, x, "sync", "Cond", "Wait"); ok {
				return false // Cond.Wait releases the mutex while parked
			}
			if _, ok := methodOn(info, x, "sync", "WaitGroup", "Wait"); ok {
				report(x.Pos(), "sync.WaitGroup.Wait")
			}
			if pkgFunc(info, x, "time", "Sleep") {
				report(x.Pos(), "time.Sleep")
			} else if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if desc, blocks := blockingFunc(sel.Sel.Name); blocks {
					report(x.Pos(), sel.Sel.Name+" ("+desc+")")
				}
			}
		}
		return true
	})
}

// isCommRecv reports whether recv is the receive a select arm's
// communication performs: `<-ch`, `v := <-ch` or `v, ok = <-ch`.
func isCommRecv(comm ast.Stmt, recv *ast.UnaryExpr) bool {
	switch c := comm.(type) {
	case *ast.ExprStmt:
		return ast.Unparen(c.X) == recv
	case *ast.AssignStmt:
		return len(c.Rhs) == 1 && ast.Unparen(c.Rhs[0]) == recv
	}
	return false
}

// hasDefaultComm reports whether a select body has a default clause.
func hasDefaultComm(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
