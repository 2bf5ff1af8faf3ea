package analyzers

// pinbalance proves the paper's pin-budget invariant at source level:
// every pin a function takes is, on every path through its CFG —
// including the early error returns — either released (Unpin, directly
// or by a callee at any call depth), handed off to an owner that will
// release it, or covered by a documented ownership contract ("pins
// it", "pins ... owned by"). One unbalanced Pin on a rollback path
// permanently shrinks the device budget the planner reasoned about,
// and the failure is silent until a long run OOMs;
// internal/memory/manager.go's rollback-on-error paths in Release and
// advance are the motivating code.
//
// Pin-like operations recognized:
//
//   - st.Pin() / st.Unpin() — tensor.State-style pin accounting
//     methods on a pointer receiver, success signaled by error.
//   - vm.pin(b, w) / vm.unpin(b) — the VM's CAS pin helpers, success
//     signaled by bool, the buffer as first argument.
//   - vm.settle(b, resident, +1) — a settle with a literal +1 pin
//     delta materializes a pin on b (the swap-in/alloc completion
//     idiom).
//
// internal/claimword's own pure transitions are out of scope (they
// compute words, they do not own pins); that package's
// TestProtoTableMatchesClaimword guards the table.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

var Pinbalance = &Analyzer{
	Name: "pinbalance",
	Doc: "report pins (State.Pin, vm.pin, settle with +1 delta) that some " +
		"CFG path — typically an early error return — neither releases, " +
		"hands off, nor covers with a documented \"pins it\" ownership " +
		"contract; the leaked pin permanently shrinks the device budget",
	RunProject: func(pass *ProjectPass) error {
		return reportFindings(pass, pass.Prog.lifecycle(pinSpec).leaks)
	},
}

// pinContractRe licenses exiting with pins open: the doc states the
// function pins on behalf of its caller or a recorded owner.
var pinContractRe = regexp.MustCompile(`(?i)\bpins\s+(it|them)\b|\bpins?\b[^.]*\bowned by\b|\bpinned on return\b`)

var pinSpec = &lifeSpec{
	name:     "pin",
	kind:     "pin",
	leakVerb: "is not released",
	classify: classifyPin,
	closers:  map[string]bool{"Unpin": true, "unpin": true},
	exitAllowed: func(e *lifeEngine, res string) bool {
		doc := e.sum.Decl.Doc
		return doc != nil && pinContractRe.MatchString(doc.Text())
	},
}

func classifyPin(e *lifeEngine, call *ast.CallExpr) []lifeEvent {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	info := e.pkg.Info
	switch sel.Sel.Name {
	case "Pin":
		// Accounting method on a pointer receiver (tensor.State.Pin);
		// package-level Pin is claimword's pure word transition.
		if len(call.Args) != 0 || !isPtrReceiver(info, sel) {
			return nil
		}
		return []lifeEvent{{op: lifeOpen, res: exprString(sel.X),
			cond: callCondKind(info, call), what: exprString(call)}}
	case "pin":
		if len(call.Args) == 0 || !isPointerExpr(info, call.Args[0]) {
			return nil
		}
		return []lifeEvent{{op: lifeOpen, res: exprString(call.Args[0]),
			cond: callCondKind(info, call), what: exprString(call)}}
	case "Unpin":
		if len(call.Args) != 0 || !isPtrReceiver(info, sel) {
			return nil
		}
		return []lifeEvent{{op: lifeClose, res: exprString(sel.X)}}
	case "unpin":
		if len(call.Args) == 0 || !isPointerExpr(info, call.Args[0]) {
			return nil
		}
		return []lifeEvent{{op: lifeClose, res: exprString(call.Args[0])}}
	case "settle":
		// settle(b, resident, +1): the completion that leaves b pinned.
		if len(call.Args) != 3 || !isPointerExpr(info, call.Args[0]) || !isPlusOne(call.Args[2]) {
			return nil
		}
		return []lifeEvent{{op: lifeOpen, res: exprString(call.Args[0]),
			cond: condAlways, what: exprString(call) + " [+1 pin]"}}
	}
	return nil
}

// isPtrReceiver reports a method call whose receiver expression is a
// pointer to a named type — the pin-owning object, as opposed to
// claimword's by-value word transitions.
func isPtrReceiver(info *types.Info, sel *ast.SelectorExpr) bool {
	return isPointerExpr(info, sel.X)
}

func isPointerExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// callCondKind inspects the call's result type to decide how success
// is signaled: error → condErrNil, bool → condBoolTrue, anything else
// (including no results) → unconditional.
func callCondKind(info *types.Info, call *ast.CallExpr) condKind {
	t := info.TypeOf(call)
	if t == nil {
		return condAlways
	}
	switch {
	case isErrorType(t):
		return condErrNil
	case types.Identical(t, types.Typ[types.Bool]):
		return condBoolTrue
	}
	return condAlways
}

// isPlusOne matches the literal pin delta +1 (with or without the
// explicit unary plus).
func isPlusOne(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ADD {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Value == "1"
}
