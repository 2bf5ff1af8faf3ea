package analyzers

// claimlife proves the DMA claim lifecycle on every path: a buffer
// claimed through its claim cell (`if !b.Claim(...)`, a method of
// claimword.Cell, returning bool) must reach Commit or Settle before
// the path leaves the function. A dropped claim wedges the buffer:
// every later claim CAS fails, WaitSettle never fires, and the tensor
// is stuck neither resident nor evictable. The same exploration's
// observer holds the publication rule (observePublish): no buffer
// reaches a shard's LRU list under an uncommitted claim.
//
// This is the path-sensitive complement to the claim machine's other
// gates: the compiler keeps every write of the claim word inside
// claimword, whose one CAS loop applies the transitions;
// TestProtoTableMatchesClaimword proves the transition *table* matches
// its spec; and claimlife proves every *use* of the table runs to
// completion. Settling a request someone else claimed (dmaWorker's
// service loop) is fine: closing a claim that was never opened on the
// path is a no-op.

import (
	"go/ast"
	"go/types"
	"strings"
)

var Claimlife = &Analyzer{
	Name: "claimlife",
	Doc: "report DMA claims (claimword.Cell.Claim) that some CFG path " +
		"drops without reaching Commit or Settle — a dropped claim " +
		"permanently wedges the buffer's claim word — and buffers " +
		"published to the LRU under an uncommitted claim",
	Run: func(pass *Pass) error {
		life := pass.Prog.lifecycle(claimSpec)
		reportFindings(pass, life.leaks)
		return reportFindings(pass, life.observed)
	},
}

// claimSpec is the claim lifecycle: claimlife reports its leaks and
// its observer's findings.
var claimSpec = &lifeSpec{
	kind:      "claim",
	leakVerb:  "is neither committed nor settled",
	classify:  classifyClaim,
	observers: []func(*lifeEngine, ast.Node, *lifeState){observePublish},
}

// classifyClaim maps a call of a claim cell's Claim, Commit or Settle
// — on the cell itself or promoted through a struct embedding it — to
// its event on the expression the method is called on.
func classifyClaim(pkg *Package, _ FuncKey, call *ast.CallExpr) (lifeEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isCellMethod(pkg.Info, sel) {
		return lifeEvent{}, false
	}
	res := exprString(sel.X)
	switch sel.Sel.Name {
	case "Claim":
		return lifeEvent{op: lifeOpen, res: res, what: exprString(call), guarded: true}, true
	case "Commit", "Settle":
		return lifeEvent{op: lifeClose, res: res}, true
	}
	return lifeEvent{}, false
}

// isCellMethod reports whether sel selects a method declared on the
// type Cell of a package named by the import path claimword or
// .../claimword.
func isCellMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Obj().Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Cell" || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "claimword" || strings.HasSuffix(path, "/claimword")
}

// observePublish is claimSpec's observer: a buffer handed to lruPush
// while the path's open claim on it is an uncommitted one
// (b.Claim(false, need)) is published too early. The eviction scan
// discovers buffers through that list, and one carrying an uncommitted
// claim is exactly the state reserve must not wait on — the deadlock
// class moveP2P's reserve-before-claim ordering exists to prevent.
// Committed-at-claim ones are waitable from their first visible word,
// so they do not count; every other claim must commit first — the
// prefetch's included, which the landing commits under the shard lock
// before it links the page. The observer is intraprocedural, so the
// claim, the commit and the lruPush stay on one path of one function
// (the VM's landing).
func observePublish(e *lifeEngine, n ast.Node, st *lifeState) {
	inspectNode(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "lruPush" {
			return true
		}
		o := st.held(exprString(call.Args[1]))
		if o == nil || len(o.call.Args) == 0 {
			return true
		}
		if id, ok := o.call.Args[0].(*ast.Ident); ok && id.Name == "false" {
			e.observef(call.Pos(),
				"buffer published to the LRU under an uncommitted claim; commit or settle before lruPush (every resident claim must complete on its own)")
		}
		return true
	})
}
