package analyzers

// claimlife proves the DMA claim lifecycle on every path: a buffer
// claimed through the VM's CAS helper (`vm.claim(b, ...)` returning
// bool) must reach commit or settle — directly, through a callee at
// any call depth, or by handoff to an owner that will finish it (the
// prefetch queue's dmaReq{b: b} enqueue) — before the path leaves the
// function. A dropped claim wedges the buffer: every later claim CAS
// fails, waitSettle never fires, and the tensor is stuck neither
// resident nor evictable.
//
// This is the path-sensitive complement to the existing checks:
// claimdiscipline rejects state writes outside the transition helpers,
// schedcheck's TestProtoTableMatchesClaimword proves the transition
// *table* matches its spec, and claimlife proves every *use* of the
// table runs to completion. Settling a request someone else claimed
// (dmaWorker's service loop) is fine: closing a claim that was never
// opened on the path is a no-op.

import (
	"go/ast"
)

var Claimlife = &Analyzer{
	Name: "claimlife",
	Doc: "report DMA claims (vm.claim) that some CFG path drops without " +
		"reaching commit, settle or a handoff to the worker queue; a " +
		"dropped claim permanently wedges the buffer's claim word",
	RunProject: func(pass *ProjectPass) error {
		return reportFindings(pass, pass.Prog.lifecycle(claimSpec).leaks)
	},
}

// claimSpec is the claim lifecycle: claimlife reports its leaks,
// claimdiscipline its observer's findings.
var claimSpec = &lifeSpec{
	name:     "claim",
	kind:     "claim",
	leakVerb: "is neither committed, settled nor handed off",
	classify: classifyClaim,
	closers: map[string]bool{
		"commit": true, "Commit": true,
		"settle": true, "Settle": true,
	},
	observe: observePublish,
}

func classifyClaim(e *lifeEngine, call *ast.CallExpr) []lifeEvent {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	info := e.pkg.Info
	// The claimed buffer is always the first argument and always a
	// pointer; claimword's pure Word transitions take values and are
	// excluded by that shape.
	if !isPointerExpr(info, call.Args[0]) {
		return nil
	}
	res := exprString(call.Args[0])
	switch sel.Sel.Name {
	case "claim", "Claim":
		if callCondKind(info, call) != condBoolTrue {
			return nil
		}
		return []lifeEvent{{op: lifeOpen, res: res, cond: condBoolTrue, what: exprString(call)}}
	case "commit", "Commit", "settle", "Settle":
		return []lifeEvent{{op: lifeClose, res: res}}
	}
	return nil
}
