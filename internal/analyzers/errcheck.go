package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errcheck flags dropped error returns from the virtual-memory layer
// inside internal/exec. The VM's errors are not advisory: Ensure and
// Alloc fail when a pin set cannot fit (the capacity invariant
// schedcheck verifies statically), Unpin/MarkDirty/Free fail on
// lifecycle misuse, and WaitIdle surfaces async DMA faults. Dropping
// one leaves the executor running on a buffer it does not actually
// hold — the class of bug that surfaces hundreds of steps later as a
// wrong weight rather than at the faulty call site. Two forms are
// flagged:
//
//   - a call used as a bare statement: vm.Unpin(t)
//   - an error result assigned to blank: _ = vm.Unpin(t),
//     buf, _ := vm.Ensure(dev, t)
//
// Intentional drops (e.g. best-effort cleanup on an already-failing
// path) must carry //lint:allow errcheck <reason> so every exception
// is visible and justified.
var Errcheck = &Analyzer{
	Name: "errcheck",
	Doc: "report dropped error returns from VM methods inside internal/exec " +
		"(bare-statement calls, blank-assigned errors, go/defer drops)",
	Run: runErrcheck,
}

// errcheckScope lists the package path suffixes in scope; the bare
// base name form admits fixtures.
var errcheckScope = []string{"internal/exec"}

func inErrcheckScope(path string) bool {
	for _, s := range errcheckScope {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return path == "errcheck"
}

// errSourceType is the receiver type name whose methods are checked:
// the executor's VM (vm.go/dma.go). Matching by name keeps the pass
// fixture-testable.
const errSourceType = "VM"

// errReturningVMCall reports whether call invokes a VM method whose
// final result is an error, returning a label for the diagnostic.
func errReturningVMCall(info *types.Info, call *ast.CallExpr) (string, int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	recv := info.TypeOf(sel.X)
	if recv == nil {
		return "", 0, false
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != errSourceType {
		return "", 0, false
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", 0, false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Implements(last, errorIface) && last.String() != "error" {
		return "", 0, false
	}
	return named.Obj().Name() + "." + sel.Sel.Name, sig.Results().Len(), true
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func runErrcheck(pass *Pass) error {
	return reportFindings(pass, pass.Prog.lexical.errcheck)
}

// lintErrcheck reports one node of a package in scope that drops a VM
// error, over whole files: package-level declarations and function
// literals included. The one syntax walk (interproc.go) calls it.
func lintErrcheck(info *types.Info, n ast.Node, fs *[]finding) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if name, _, ok := errReturningVMCall(info, call); ok {
				addf(fs, n.Pos(),
					"%s returns an error that is dropped; handle it or document the drop with //lint:allow errcheck", name)
			}
		}
	case *ast.AssignStmt:
		// One call on the right, its error position blanked:
		// _ = vm.M(...) or v, _ := vm.M(...).
		if len(n.Rhs) != 1 {
			return
		}
		call, ok := n.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		name, results, ok := errReturningVMCall(info, call)
		if !ok || len(n.Lhs) != results {
			return
		}
		if id, ok := n.Lhs[results-1].(*ast.Ident); ok && id.Name == "_" {
			addf(fs, n.Lhs[results-1].Pos(),
				"%s error assigned to blank; handle it or document the drop with //lint:allow errcheck", name)
		}
	case *ast.GoStmt:
		if name, _, ok := errReturningVMCall(info, n.Call); ok {
			addf(fs, n.Pos(),
				"%s launched as a goroutine drops its error; collect it through a channel or errgroup-style join", name)
		}
	case *ast.DeferStmt:
		if name, _, ok := errReturningVMCall(info, n.Call); ok {
			addf(fs, n.Pos(),
				"deferred %s drops its error; wrap it in a closure that records the error", name)
		}
	}
}
