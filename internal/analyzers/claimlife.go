package analyzers

// claimlife proves the DMA claim lifecycle on every path: a buffer
// claimed through the VM's CAS helper (`if !vm.claim(b, ...)`,
// returning bool) must reach commit or settle before the path leaves
// the function. A dropped claim wedges the buffer: every later claim
// CAS fails, waitSettle never fires, and the tensor is stuck neither
// resident nor evictable.
//
// This is the path-sensitive complement to the existing checks:
// claimdiscipline rejects state writes outside the transition helpers,
// claimword's TestProtoTableMatchesClaimword proves the transition
// *table* matches its spec, and claimlife proves every *use* of the
// table runs to completion. Settling a request someone else claimed
// (dmaWorker's service loop) is fine: closing a claim that was never
// opened on the path is a no-op.

import (
	"go/ast"
	"go/types"
)

var Claimlife = &Analyzer{
	Name: "claimlife",
	Doc: "report DMA claims (vm.claim) that some CFG path drops without " +
		"reaching commit or settle; a " +
		"dropped claim permanently wedges the buffer's claim word",
	Run: func(pass *Pass) error {
		return reportFindings(pass, pass.Prog.lifecycle(claimSpec).leaks)
	},
}

// claimSpec is the claim lifecycle: claimlife reports its leaks,
// claimdiscipline its observer's findings.
var claimSpec = &lifeSpec{
	kind:      "claim",
	leakVerb:  "is neither committed nor settled",
	classify:  classifyClaim,
	observers: []func(*lifeEngine, ast.Node, *lifeState){observePublish},
}

func classifyClaim(pkg *Package, _ FuncKey, call *ast.CallExpr) (lifeEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return lifeEvent{}, false
	}
	op := lifeClose
	switch sel.Sel.Name {
	case "claim", "Claim":
		op = lifeOpen
	case "commit", "Commit", "settle", "Settle":
	default:
		return lifeEvent{}, false
	}
	info := pkg.Info
	// The claimed buffer is always the first argument and always a
	// pointer; claimword's pure Word transitions take values and are
	// excluded by that shape.
	if !isPointerExpr(info, call.Args[0]) {
		return lifeEvent{}, false
	}
	res := exprString(call.Args[0])
	if op == lifeClose {
		return lifeEvent{op: lifeClose, res: res}, true
	}
	if t := info.TypeOf(call); t == nil || !types.Identical(t, types.Typ[types.Bool]) {
		return lifeEvent{}, false
	}
	return lifeEvent{op: lifeOpen, res: res, what: exprString(call), guarded: true}, true
}

func isPointerExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
