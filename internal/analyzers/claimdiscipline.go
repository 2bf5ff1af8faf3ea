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
//     publish a buffer to a shard's LRU list while a synchronous
//     uncommitted claim (claim(b, st, false, false, need)) on it is
//     still open — commit or settle comes first. This rule is the
//     observer of the claim-lifecycle exploration claimlife reports
//     leaks from (claimSpec). The eviction scan discovers buffers through
//     that list; one carrying a sync uncommitted claim is exactly the
//     state reserve must not wait on — the deadlock class moveP2P's
//     reserve-before-claim ordering exists to prevent.
var ClaimDiscipline = &Analyzer{
	Name: "claimdiscipline",
	Doc: "report mutations of a DMA buffer's packed claim word or done " +
		"pointer outside the state-machine helpers, non-CAS word transitions " +
		"inside them, and buffers published to the LRU under an uncommitted " +
		"synchronous claim",
	Run: runClaimDiscipline,
	RunProject: func(pass *ProjectPass) error {
		return reportFindings(pass, pass.Prog.lifecycle(claimSpec).observed)
	},
}

// claimAtomics are the buffer fields owned by the state machine,
// mapped to the atomic mutator methods the helpers may use on them.
// Load is a read and allowed everywhere.
var claimAtomics = map[string]map[string]bool{
	"word": {"CompareAndSwap": true},
	"done": {"CompareAndSwap": true, "Store": true},
}

// wordMutators are the atomic methods that change state; calling any
// of them on word/done outside a helper breaks rule 1, and calling one
// not in claimAtomics inside a helper breaks rule 2.
var wordMutators = map[string]bool{
	"Store": true, "Swap": true, "Add": true, "And": true, "Or": true,
	"CompareAndSwap": true,
}

// transitionHelpers may mutate the claim atomics (rule 1).
var transitionHelpers = map[string]bool{
	"claim": true, "commit": true, "settle": true,
	"pin": true, "unpin": true, "consumePrefetch": true,
}

func runClaimDiscipline(pass *Pass) error {
	forEachFunc(pass.Files, func(fd *ast.FuncDecl) {
		checkClaimWordWrites(pass, fd)
	})
	return nil
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
func claimAtomicField(pass *Pass, e ast.Expr) (field string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	if _, tracked := claimAtomics[sel.Sel.Name]; !tracked {
		return "", false
	}
	if !isBufferType(pass.Info.TypeOf(sel.X)) {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkClaimWordWrites implements rules 1 and 2.
func checkClaimWordWrites(pass *Pass, fd *ast.FuncDecl) {
	inHelper := transitionHelpers[fd.Name.Name] && fd.Recv != nil
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !wordMutators[sel.Sel.Name] {
				return true
			}
			f, ok := claimAtomicField(pass, sel.X)
			if !ok {
				return true
			}
			if !inHelper {
				pass.Reportf(n.Pos(),
					"mutation of buffer.%s outside the claim state-machine helpers (claim/commit/settle/pin/unpin/consumePrefetch)", f)
			} else if !claimAtomics[f][sel.Sel.Name] {
				pass.Reportf(n.Pos(),
					"non-CAS mutation of buffer.%s (%s) inside a transition helper; packed-word transitions must CompareAndSwap an observed value", f, sel.Sel.Name)
			}
		case *ast.AssignStmt:
			// Reassigning the atomic value itself (b.word = ...) bypasses
			// the atomic API entirely; never legal, helpers included.
			for _, l := range n.Lhs {
				if f, ok := claimAtomicField(pass, l); ok {
					pass.Reportf(l.Pos(),
						"direct assignment to buffer.%s bypasses its atomic API; use the claim state-machine helpers", f)
				}
			}
		}
		return true
	})
}

// observePublish is claimSpec's observer and implements rule 3: a
// buffer handed to lruPush while the path's open claim on it is a
// synchronous uncommitted one (claim(b, st, false, false, need)) is
// published too early. Async claims are committed by the DMA worker and
// committed-at-claim ones are waitable from their first visible word,
// so neither counts.
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
		if o != nil && len(o.call.Args) == 5 && isFalse(o.call.Args[2]) && isFalse(o.call.Args[3]) {
			e.observef(call.Pos(),
				"buffer published to the LRU under an uncommitted synchronous claim; commit or settle before lruPush (every resident claim must complete autonomously)")
		}
		return true
	})
}
