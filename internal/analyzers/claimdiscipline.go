package analyzers

import (
	"go/ast"
	"go/types"
)

// ClaimDiscipline enforces the DMA buffer state machine of DESIGN.md
// §9/§12. A buffer's claim state lives in a single packed atomic word
// (internal/claimword) plus the done-channel pointer; waiters, the
// eviction scan and the prefetch engine all reason about them
// lock-free, so ad-hoc mutation desynchronizes the machine. Three
// rules:
//
//  1. Only the state-machine helpers — methods named claim, commit,
//     settle, pin, unpin and consumePrefetch — may mutate a buffer's
//     word or done fields. Everything else calls the helpers, which
//     validate the transition against the pure claimword functions and
//     wake waiters consistently.
//
//  2. Inside the helpers, the packed word advances only by
//     CompareAndSwap against an observed value — a raw Store (or Swap
//     or Add) would clobber pins taken concurrently by another
//     device's Ensure. The done pointer may be Stored only by the
//     claim winner (it just won the word CAS, so it owns the slot) and
//     otherwise cleared by CompareAndSwap in settle.
//
//  3. "Every resident claim is waitable": on no path may lruPush
//     publish a buffer to a shard's LRU list while an uncommitted
//     claim (claim(b, false, need)) on it is still open — commit or
//     settle comes first. This rule is the observer of the
//     claim-lifecycle exploration claimlife reports leaks from
//     (claimSpec). The eviction scan discovers buffers through that
//     list; one carrying an uncommitted claim is exactly the state
//     reserve must not wait on — the deadlock class moveP2P's
//     reserve-before-claim ordering exists to prevent. The observer is
//     intraprocedural, so the claim, the commit and the lruPush stay on
//     one path of one function (the VM's landing).
var ClaimDiscipline = &Analyzer{
	Name: "claimdiscipline",
	Doc: "report mutations of a DMA buffer's packed claim word or done " +
		"pointer outside the state-machine helpers, non-CAS word transitions " +
		"inside them, and buffers published to the LRU under an uncommitted " +
		"claim",
	Run: runClaimDiscipline,
}

// isTransitionHelper reports whether a method of this name may mutate
// the claim atomics (rule 1).
func isTransitionHelper(name string) bool {
	switch name {
	case "claim", "commit", "settle", "pin", "unpin", "consumePrefetch":
		return true
	}
	return false
}

// isWordMutator reports whether the atomic method changes state;
// calling one on word/done outside a helper breaks rule 1, and calling
// one helperMay refuses inside a helper breaks rule 2. Load is a read
// and allowed everywhere.
func isWordMutator(method string) bool {
	switch method {
	case "Store", "Swap", "Add", "And", "Or", "CompareAndSwap":
		return true
	}
	return false
}

// helperMay reports whether a transition helper may apply the atomic
// method to the claim field (rule 2): the word only by CompareAndSwap,
// the done pointer also by the claim winner's Store.
func helperMay(field, method string) bool {
	return method == "CompareAndSwap" || field == "done" && method == "Store"
}

func runClaimDiscipline(pass *Pass) error {
	reportFindings(pass, pass.Prog.lexical.claimdiscipline)
	return reportFindings(pass, pass.Prog.lifecycle(claimSpec).observed)
}

// isBufferType reports whether t (after pointers) is a named struct
// type called "buffer" — the VM's DMA buffer. Matching by name keeps
// the analyzer testable against fixtures while being unambiguous in
// this module.
func isBufferType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "buffer" {
		return false
	}
	_, isStruct := n.Underlying().(*types.Struct)
	return isStruct
}

// claimAtomicField matches an expression of the form b.word or b.done
// where b is a buffer.
func claimAtomicField(info *types.Info, e ast.Expr) (field string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	switch sel.Sel.Name {
	case "word", "done":
	default:
		return "", false
	}
	if !isBufferType(info.TypeOf(sel.X)) {
		return "", false
	}
	return sel.Sel.Name, true
}

// lintClaimWrites implements rules 1 and 2 on one node of a function
// declaration's body, function literals included; helper: the
// declaration is a transition helper. The one syntax walk
// (interproc.go) calls it.
func lintClaimWrites(info *types.Info, n ast.Node, helper bool, fs *[]finding) {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok || !isWordMutator(sel.Sel.Name) {
			return
		}
		f, ok := claimAtomicField(info, sel.X)
		if !ok {
			return
		}
		if !helper {
			addf(fs, n.Pos(),
				"mutation of buffer.%s outside the claim state-machine helpers (claim/commit/settle/pin/unpin/consumePrefetch)", f)
		} else if !helperMay(f, sel.Sel.Name) {
			addf(fs, n.Pos(),
				"non-CAS mutation of buffer.%s (%s) inside a transition helper; packed-word transitions must CompareAndSwap an observed value", f, sel.Sel.Name)
		}
	case *ast.AssignStmt:
		// Reassigning the atomic value itself (b.word = ...) bypasses
		// the atomic API entirely; never legal, helpers included.
		for _, l := range n.Lhs {
			if f, ok := claimAtomicField(info, l); ok {
				addf(fs, l.Pos(),
					"direct assignment to buffer.%s bypasses its atomic API; use the claim state-machine helpers", f)
			}
		}
	}
}

// observePublish is claimSpec's observer and implements rule 3: a
// buffer handed to lruPush while the path's open claim on it is an
// uncommitted one (claim(b, false, need)) is published too early.
// Committed-at-claim ones are waitable from their first visible word,
// so they do not count; every other claim must commit first — the
// prefetch's included, which the landing commits under the shard lock
// before it links the page.
func observePublish(e *lifeEngine, n ast.Node, st *lifeState) {
	isFalse := func(x ast.Expr) bool {
		id, ok := x.(*ast.Ident)
		return ok && id.Name == "false"
	}
	inspectNode(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || !isBufferType(e.pkg.Info.TypeOf(call.Args[1])) {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "lruPush" {
			return true
		}
		o := st.held(exprString(call.Args[1]))
		if o != nil && len(o.call.Args) == 3 && isFalse(o.call.Args[1]) {
			e.observef(call.Pos(),
				"buffer published to the LRU under an uncommitted claim; commit or settle before lruPush (every resident claim must complete on its own)")
		}
		return true
	})
}
