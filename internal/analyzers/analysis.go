// Package analyzers is harmonylint: a suite of static analysis passes
// that mechanically enforce the executor's concurrency and determinism
// invariants — the vm.mu locking discipline, the "every resident claim
// is committed" DMA rule, the pin budget, bit-exact determinism across
// interleavings — which the race detector can only catch
// probabilistically. Each analyzer rejects a whole class of regression
// before any test runs:
//
//   - lockhold: blocking operations (channel send/recv, select without
//     default, time.Sleep, WaitGroup.Wait, WaitIdle, waitSettle) at any
//     point some path reaches with a mutex held.
//   - claimdiscipline: writes to a buffer's DMA-state fields outside
//     the claim/commit/settle transition helpers, non-CAS transitions
//     inside them, and a buffer published to the LRU on a path where
//     its synchronous claim is still uncommitted (DESIGN.md §9's
//     "every resident claim is committed").
//   - determinism: wall-clock reads (time.Now/Since/Until), math/rand
//     global state, and map iteration inside the deterministic core,
//     plus taint flow of such values into the core through any call
//     chain.
//   - errcheck: error returns from the VM / memory-manager / DMA
//     surface dropped inside internal/exec (bare-statement calls,
//     blank assignments, go/defer drops).
//   - lockorder: the global lock-acquisition graph — cycles, recursive
//     acquisitions, and same-class shard nesting outside the documented
//     ascending-device order are rejected at any call depth.
//   - chanlife: every spawned goroutine must reach a shutdown
//     construct (channel receive/range, select, WaitGroup.Done,
//     Cond.Wait) at some call depth, and done-named channels must
//     deliver their completion signal exactly once (closed or
//     single-sender, never both).
//   - pinbalance: every pin (State.Pin, vm.pin, settle with a +1
//     delta) is released, handed off, or covered by a documented
//     "pins it" ownership contract on every path, including early
//     error returns — the paper's pin-budget invariant at source level.
//   - claimlife: every DMA claim (vm.claim) reaches commit or settle —
//     directly, through a callee, or by handoff to the worker queue —
//     on every path; a dropped claim wedges the buffer's claim word.
//   - errpath: locks, shard locks and snapshot handles still held at a
//     function exit, early error returns included, with the concrete
//     leaking path printed in the diagnostic.
//
// Two neighbouring invariants have their one gate elsewhere, so this
// package imports nothing of the module it lints: copied locks are
// go vet's copylocks (`make lint` runs vet first), and the claim
// machine's transition table is checked against its spec by
// schedcheck's TestProtoTableMatchesClaimword.
//
// Three layers sit under the passes. cfg.go builds per-function
// control-flow graphs and is the only code that knows Go's statement
// semantics. dataflow.go holds the one worklist (explore) and, on it,
// the lifecycle engine: the lock, claim and pin lifecycles are each
// explored once per Program, keeping every branch outcome distinct, and
// yield both leak findings (errpath, claimlife, pinbalance) and
// observer findings about what happens while a resource is open
// (lockhold, claimdiscipline rule 3). interproc.go builds, over the
// same graphs and the same worklist, one Summary per function — locks
// acquired and with what held, channels sent/closed, goroutines
// spawned, taint sources reached, the doc-comment lock contract — and
// closes them over the call graph for lockorder, chanlife and the
// determinism taint upgrade. DESIGN.md §10 has the invariant → pass →
// mechanism table.
//
// The framework below is a self-contained, offline re-implementation
// of the golang.org/x/tools/go/analysis surface this module needs
// (Analyzer / Pass / Diagnostic plus an analysistest-style fixture
// runner); the container has no module proxy access, so the suite
// builds on the standard library's go/ast and go/types only. load.go
// type-checks every package of the module once, in dependency order
// and in one types universe, with the standard library read from the
// compiler's export data.
//
// False positives are silenced with an explained allowlist directive
// on the flagged line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// A directive without a reason, naming an unknown analyzer, or
// suppressing nothing is itself reported, so the allowlist stays
// minimal and auditable.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects one type-checked
// package through the Pass; RunProject inspects the whole loaded
// program — every package plus the interprocedural summaries — through
// the ProjectPass. An analyzer may define either or both.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer
	// enforces and why.
	Doc string
	// Run performs the per-package analysis (may be nil).
	Run func(*Pass) error
	// RunProject performs the whole-program analysis over the
	// interprocedural summaries (may be nil).
	RunProject func(*ProjectPass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full harmonylint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Lockhold, ClaimDiscipline, Determinism, Errcheck,
		Lockorder, Chanlife,
		Pinbalance, Claimlife, Errpath,
	}
}

// A ProjectPass presents the whole loaded program — every package and
// the interprocedural summaries — to an Analyzer's RunProject.
type ProjectPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ProjectPass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ---------------------------------------------------------- directives

// directive is one parsed //lint:allow comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

var directiveRe = regexp.MustCompile(`^//lint:allow\s+(\S+)(?:\s+(.*))?$`)

// parseDirectives extracts every //lint:allow directive from the
// package's comments.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var ds []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				ds = append(ds, &directive{
					pos:      fset.Position(c.Pos()),
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return ds
}

// covers reports whether the directive suppresses a diagnostic from
// the given analyzer at the given position: same file, same line or
// the line immediately below the directive.
func (d *directive) covers(a string, pos token.Position) bool {
	return d.analyzer == a && d.pos.Filename == pos.Filename &&
		(d.pos.Line == pos.Line || d.pos.Line == pos.Line-1)
}

// RunProject runs the given analyzers over the whole loaded program:
// per-package passes over each package, whole-program passes over the
// interprocedural summaries built from all of them together. It then
// applies the //lint:allow directives collected across every package
// and appends directive-hygiene findings (missing reason, unknown
// analyzer, suppressing nothing).
//
// Directive hygiene is judged against the full roster and the full
// run: a directive naming any analyzer in All() is "known" even when
// this invocation runs a subset (the fixture runner runs one analyzer
// at a time; a fixture's directive for a sibling analyzer is not a
// typo), and staleness is only provable for directives whose analyzer
// actually ran here — and then only after every package and the
// whole-program passes have reported, since an interprocedural
// diagnostic can be suppressed by a directive in a different package
// than the one that triggered the walk.
//
// Returned diagnostics are sorted by (file, line, column, analyzer)
// and exact repeats are deduplicated, so output is stable run-to-run
// regardless of package enumeration or summary iteration order.
func RunProject(pkgs []*Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var ds []*directive
	for _, pkg := range pkgs {
		ds = append(ds, parseDirectives(pkg.Fset, pkg.Files)...)
	}
	known := map[string]bool{"lint": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := make(map[string]bool)
	var prog *Program
	var all []Diagnostic
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
		if a.Run != nil {
			for _, pkg := range pkgs {
				pass := &Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
				}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
				all = append(all, pass.diags...)
			}
		}
		if a.RunProject != nil {
			if prog == nil {
				prog = BuildProgram(pkgs)
			}
			pass := &ProjectPass{Analyzer: a, Prog: prog}
			if err := a.RunProject(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			all = append(all, pass.diags...)
		}
	}
	var out []Diagnostic
diags:
	for _, diag := range all {
		for _, d := range ds {
			if d.covers(diag.Analyzer, diag.Pos) {
				d.used = true
				continue diags
			}
		}
		out = append(out, diag)
	}
	for _, d := range ds {
		switch {
		case !known[d.analyzer]:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "lint",
				Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", d.analyzer)})
		case d.reason == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "lint",
				Message: fmt.Sprintf("//lint:allow %s has no reason; every exception must be explained", d.analyzer)})
		case !d.used && ran[d.analyzer]:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "lint",
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing; remove the stale directive", d.analyzer)})
		}
	}
	return dedupeSorted(out), nil
}

// dedupeSorted orders diagnostics by (file, line, column, analyzer,
// message) and drops exact repeats — e.g. the same interprocedural
// edge witnessed from two walks.
func dedupeSorted(out []Diagnostic) []Diagnostic {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	dst := out[:0]
	for i, d := range out {
		if i > 0 && d == out[i-1] {
			continue
		}
		dst = append(dst, d)
	}
	return dst
}

// ------------------------------------------------------- type helpers

// namedIn reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func namedIn(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutex(t types.Type) bool {
	return namedIn(t, "sync", "Mutex") || namedIn(t, "sync", "RWMutex")
}

// isChan reports whether e has channel type.
func isChan(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// mutexCall matches x.Lock/RLock/Unlock/RUnlock on a sync mutex,
// returning x and whether the call acquires.
func mutexCall(info *types.Info, call *ast.CallExpr) (x ast.Expr, lock, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	if t := info.TypeOf(sel.X); t == nil || !isMutex(t) {
		return nil, false, false
	}
	return sel.X, lock, true
}

// pkgFunc matches a call to a package-level function, e.g.
// pkgFunc(info, call, "time", "Sleep").
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// methodOn reports whether call invokes a method with the given name
// whose receiver type (after pointers) is pkgPath.typeName. Returns
// the receiver expression.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, method string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	t := info.TypeOf(sel.X)
	if t == nil || !namedIn(t, pkgPath, typeName) {
		return nil, false
	}
	return sel.X, true
}

// enclosingFuncName tracks the FuncDecl a node belongs to while
// inspecting a file. Used by analyzers that exempt specific functions.
func forEachFunc(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// exprString renders a (selector chain) expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "expr"
	}
}
