package analyzers

// interproc.go is harmonylint's interprocedural layer: a call graph over
// every loaded package plus one Summary per function body — which locks
// it acquires, which functions it calls, which channels it sends on or
// closes, which goroutines it spawns, which doc-comment lock contract it
// declares, whether it can learn about shutdown, and whether it observes
// the wall clock. A summary is one syntax walk of the body (ast.Inspect):
// it records what the body can do, never under which locks. What is held
// where is the lock lifecycle's question (dataflow.go), answered path by
// path; lockorder reads the lock-order edges that exploration records
// and takes from here only the transitive acquisitions of a callee.
// chanlife and the determinism taint upgrade read the summaries and
// their closures directly, which is what lets them follow a contract
// through any call depth rather than stopping at the first function
// boundary.
//
// Only statically resolvable calls propagate: a call through an
// interface or a function value contributes no edge. That is the
// sanctioned escape hatch (trace.Clock exists exactly so the
// deterministic core can time things through an interface).
//
// Functions are keyed by FuncKey — import path, receiver type name,
// function name — and locks and channels by Class: printable,
// order-stable names that diagnostics are sorted by and tests can spell.

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// FuncKey names one function or method across the whole program.
type FuncKey struct {
	Pkg  string // import path
	Recv string // receiver's named type, "" for plain functions
	Name string
}

func (k FuncKey) String() string {
	base := k.Pkg[strings.LastIndex(k.Pkg, "/")+1:]
	if k.Recv != "" {
		return base + "." + k.Recv + "." + k.Name
	}
	return base + "." + k.Name
}

// keyOf derives the FuncKey for a resolved function object. ok=false
// for interface methods (no body to summarize) and builtins.
func keyOf(fn *types.Func) (FuncKey, bool) {
	if fn == nil || fn.Pkg() == nil {
		return FuncKey{}, false
	}
	k := FuncKey{Pkg: fn.Pkg().Path(), Name: fn.Name()}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return FuncKey{}, false
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok {
			return FuncKey{}, false
		}
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			return FuncKey{}, false // dynamic dispatch: not resolvable
		}
		k.Recv = n.Obj().Name()
	}
	return k, true
}

// Class names one mutex or channel: a struct field (every instance of
// vmShard.mu is one class), a package-level var, or a function-local
// variable. Lock-order edges and done-channel rules relate classes, not
// instances.
type Class struct {
	Pkg   string // import path of the owning package
	Owner string // named type for fields, "func <name>" for locals, "" for package vars
	Name  string // field or variable name
}

func (c Class) compare(d Class) int {
	return cmp.Or(strings.Compare(c.Pkg, d.Pkg), strings.Compare(c.Owner, d.Owner), strings.Compare(c.Name, d.Name))
}

func (c Class) String() string {
	base := c.Pkg[strings.LastIndex(c.Pkg, "/")+1:]
	if c.Owner != "" {
		return base + "." + c.Owner + "." + c.Name
	}
	return base + "." + c.Name
}

// lockEvent is one direct Lock/RLock.
type lockEvent struct {
	pos   token.Pos
	class Class
}

// callSite is one statically resolved call.
type callSite struct {
	pos    token.Pos
	callee FuncKey
}

// spawnSite is one `go` statement. callee is zero when the target is
// dynamic (function value, interface method) — not checkable, same as
// the PR-4 heuristic.
type spawnSite struct {
	pos    token.Pos
	callee FuncKey
	label  string
}

// chanOp is one send or close on an identifiable channel.
type chanOp struct {
	pos   token.Pos
	class Class
	send  bool // else close
}

// taintUse is one direct wall-clock observation.
type taintUse struct {
	pos  token.Pos
	what string // e.g. "time.Now"
}

// Summary is the per-function dataflow digest every interprocedural
// pass consumes.
type Summary struct {
	Key  FuncKey
	Decl *ast.FuncDecl // nil for synthesized go-literal bodies
	Pkg  *Package
	// bodies are the function bodies summarized here: the declaration's
	// first, then every function literal in it, nested ones included —
	// or, for a synthesized summary, the spawned literal and its own.
	// The lifecycle explorations visit each literal with nothing open.
	bodies []funcBody

	Calls    []callSite
	Spawns   []spawnSite
	Acquires []lockEvent
	ChanOps  []chanOp
	Taints   []taintUse

	// EntryHeld are lock classes the doc contract declares held on
	// entry ("Requires sh.mu held"); heldOnEntry are the same locks as
	// the body spells them ("sh.mu").
	EntryHeld   []Class
	heldOnEntry []string
	// DirectShutdown: the body itself contains a construct by which a
	// goroutine can learn it should exit or signal that it has
	// (select, channel receive, channel range, WaitGroup.Done,
	// Cond.Wait).
	DirectShutdown bool
}

// funcBody is one body of a Summary, as the lifecycle explorations see
// it: the calls of function literals nested in it belong to theirs.
type funcBody struct {
	fn    ast.Node // *ast.FuncDecl or *ast.FuncLit
	body  *ast.BlockStmt
	opens []*lifeSpec // the specs whose classify finds an open in the body
}

// Program is the whole-program view: all summaries plus the fixpoint
// closures over the call graph.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[FuncKey]*Summary
	Order []FuncKey // deterministic iteration order

	tainted  map[FuncKey]string // key → witness source ("" = clean)
	shutdown map[FuncKey]bool
	transAcq map[FuncKey][]Class
	cfgs     map[*ast.BlockStmt]*CFG   // per-body CFGs, built once, shared by all passes
	life     map[*lifeSpec]*lifeResult // lifecycle explorations, run once each
	// truncated lists every exploration a bound cut short; empty means
	// each "no finding" below is a proof, not a cap.
	truncated []truncation
}

// cfgOf returns the control-flow graph of a function body, declared or
// literal, building it on first request and caching it for every
// exploration in the same RunProject call.
func (p *Program) cfgOf(body *ast.BlockStmt) *CFG {
	c, ok := p.cfgs[body]
	if !ok {
		c = NewCFG(body)
		p.cfgs[body] = c
	}
	return c
}

// BuildProgram summarizes every function in the loaded packages and
// closes the taint, shutdown-reachability and transitive-acquisition
// relations over the call graph.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[FuncKey]*Summary),
		cfgs:  make(map[*ast.BlockStmt]*CFG),
		life:  make(map[*lifeSpec]*lifeResult),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		forEachFunc(pkg.Files, func(fd *ast.FuncDecl) {
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			key, ok := keyOf(fn)
			if !ok {
				return
			}
			sum := &Summary{Key: key, Decl: fd, Pkg: pkg}
			parseContracts(pkg, fd, sum)
			if prog.add(sum) {
				sum.bodies = []funcBody{{fn: fd, body: fd.Body}}
				(&sumBuilder{pkg: pkg, prog: prog, sum: sum}).walk(fd.Body)
			}
		})
	}
	prog.closeTaint()
	prog.closeShutdown()
	prog.closeAcquires()
	return prog
}

// add registers s under its key; false when the key is taken (several
// init functions, say — the first wins).
func (p *Program) add(s *Summary) bool {
	if _, dup := p.Funcs[s.Key]; dup {
		return false
	}
	p.Funcs[s.Key] = s
	p.Order = append(p.Order, s.Key)
	return true
}

// paramHeldRe is the one doc-comment lock contract, read once per
// function into its Summary by parseContracts; every pass takes it
// from there.
var paramHeldRe = regexp.MustCompile(`(?i)\brequires\s+(\w+)\.mu\s+held`)

// parseContracts reads the function's lock contract: "Requires sh.mu
// held" puts the mu of the parameter of that name in the held state on
// entry (the sharded helpers take their vmShard explicitly), and
// returning with it held is then expected.
func parseContracts(pkg *Package, fd *ast.FuncDecl, sum *Summary) {
	if fd.Doc == nil || !slices.ContainsFunc(fd.Doc.List, mentionsRequire) {
		return
	}
	for _, m := range paramHeldRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if name.Name != m[1] {
					continue
				}
				if c, ok := fieldLockClass(pkg, f.Type, "mu"); ok {
					sum.EntryHeld = append(sum.EntryHeld, c)
					sum.heldOnEntry = append(sum.heldOnEntry, name.Name+".mu")
				}
			}
		}
	}
}

// mentionsRequire reports whether the comment line holds "require" in
// any case: a doc comment where none does cannot match paramHeldRe,
// whose only case-folds of those letters are ASCII.
func mentionsRequire(c *ast.Comment) bool {
	const word = "require"
	for i := 0; i+len(word) <= len(c.Text); i++ {
		if c.Text[i]|0x20 == 'r' && strings.EqualFold(c.Text[i:i+len(word)], word) {
			return true
		}
	}
	return false
}

// fieldLockClass resolves "the mu field of the named type behind expr"
// to a lock class.
func fieldLockClass(pkg *Package, typeExpr ast.Expr, field string) (Class, bool) {
	t := pkg.Info.TypeOf(typeExpr)
	if t == nil {
		return Class{}, false
	}
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return Class{}, false
	}
	return Class{Pkg: n.Obj().Pkg().Path(), Owner: n.Obj().Name(), Name: field}, true
}

// ----------------------------------------------------- the summary builder

// sumBuilder fills one Summary.
type sumBuilder struct {
	pkg  *Package
	prog *Program
	sum  *Summary
	body int // the index in sum.bodies of the body being walked
}

// walk records the calls, taints, acquisitions, channel operations,
// spawns and shutdown constructs under n, in source order, and which
// lifecycle specs open a resource in each body. A function literal that
// is not spawned is summarized into the same Summary as a body of its
// own; a spawned one gets a summary of its own.
func (w *sumBuilder) walk(n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			w.goStmt(x)
			return false
		case *ast.FuncLit:
			outer := w.body
			w.body = len(w.sum.bodies)
			w.sum.bodies = append(w.sum.bodies, funcBody{fn: x, body: x.Body})
			w.walk(x.Body)
			w.body = outer
			return false
		case *ast.SendStmt:
			if c, ok := classOf(w.pkg, w.sum.Key, x.Chan); ok {
				w.sum.ChanOps = append(w.sum.ChanOps, chanOp{pos: x.Pos(), class: c, send: true})
			}
		case *ast.RangeStmt:
			if isChan(w.pkg.Info, x.X) {
				w.sum.DirectShutdown = true
			}
		case *ast.SelectStmt:
			w.sum.DirectShutdown = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.sum.DirectShutdown = true
			}
		case *ast.CallExpr:
			w.opens(x)
			w.call(x)
		}
		return true
	})
}

// opens records in the current body each lifecycle spec that classifies
// call as an open, asking the spec's own classify.
func (w *sumBuilder) opens(call *ast.CallExpr) {
	b := &w.sum.bodies[w.body]
	for _, spec := range lifeSpecs {
		if slices.Contains(b.opens, spec) {
			continue
		}
		if ev, ok := spec.classify(w.pkg, w.sum.Key, call); ok && ev.op == lifeOpen {
			b.opens = append(b.opens, spec)
		}
	}
}

// call classifies one call expression: lock acquisition, taint source,
// channel close, shutdown signal, or a plain (possibly resolvable)
// call.
func (w *sumBuilder) call(call *ast.CallExpr) {
	info := w.pkg.Info

	if x, lock, ok := mutexCall(info, call); ok {
		if c, ok := classOf(w.pkg, w.sum.Key, x); ok && lock {
			w.sum.Acquires = append(w.sum.Acquires, lockEvent{pos: call.Pos(), class: c})
		}
		return
	}

	// Wall-clock taint sources.
	for name := range wallClockFuncs {
		if pkgFunc(info, call, "time", name) {
			w.sum.Taints = append(w.sum.Taints, taintUse{pos: call.Pos(), what: "time." + name})
			return
		}
	}

	// close(ch) builtin.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) == 1 {
			if c, ok := classOf(w.pkg, w.sum.Key, call.Args[0]); ok {
				w.sum.ChanOps = append(w.sum.ChanOps, chanOp{pos: call.Pos(), class: c})
			}
			return
		}
	}

	// Shutdown signals a goroutine body can contain.
	if _, ok := methodOn(info, call, "sync", "WaitGroup", "Done"); ok {
		w.sum.DirectShutdown = true
		return
	}
	if _, ok := methodOn(info, call, "sync", "Cond", "Wait"); ok {
		// A Cond.Wait loop re-checks a condition the owner can flip at
		// shutdown (dmaWorker's quit flag).
		w.sum.DirectShutdown = true
		return
	}

	// Statically resolvable call → call-graph edge.
	if key, ok := keyOf(calleeFunc(info, call)); ok {
		w.sum.Calls = append(w.sum.Calls, callSite{pos: call.Pos(), callee: key})
	}
}

// calleeFunc resolves the *types.Func a call statically targets, or
// nil for function values, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// goStmt records a spawn site and, for literals, synthesizes a summary
// for the spawned body so the lifecycle fixpoint can see through it.
func (w *sumBuilder) goStmt(g *ast.GoStmt) {
	// The go statement is a node of the spawning body: the lifecycle
	// engine classifies every call in it there, literals aside.
	ast.Inspect(g.Call, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			w.opens(call)
		}
		_, lit := x.(*ast.FuncLit)
		return !lit
	})
	for _, a := range g.Call.Args {
		w.walk(a)
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		pos := w.pkg.Fset.Position(g.Pos())
		syn := &Summary{
			Key: FuncKey{Pkg: w.pkg.Path, Name: fmt.Sprintf("go$%s:%d", shortFile(pos.Filename), pos.Line)},
			Pkg: w.pkg,
		}
		w.prog.add(syn)
		(&sumBuilder{pkg: w.pkg, prog: w.prog, sum: syn}).walk(lit)
		w.sum.Spawns = append(w.sum.Spawns, spawnSite{pos: g.Pos(), callee: syn.Key, label: "func literal"})
		return
	}
	sp := spawnSite{pos: g.Pos(), label: exprString(g.Call.Fun)}
	if fn := calleeFunc(w.pkg.Info, g.Call); fn != nil {
		if key, ok := keyOf(fn); ok {
			sp.callee = key
		}
	}
	w.sum.Spawns = append(w.sum.Spawns, sp)
}

// classOf resolves a mutex or channel expression, as function fn
// spells it, to its class: the field it selects (owned by the type that
// declares it, through embedding), a package-level variable, or a
// variable local to fn. An indexed element (ready[i]) takes the class of
// its slice.
func classOf(pkg *Package, fn FuncKey, e ast.Expr) (Class, bool) {
	info := pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		v, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || v.Pkg() == nil {
			return Class{}, false
		}
		if !v.IsField() {
			return Class{Pkg: v.Pkg().Path(), Name: v.Name()}, true // pkg.mu
		}
		s, ok := info.Selections[e]
		if !ok {
			return Class{}, false
		}
		t := deref(s.Recv())
		for _, idx := range s.Index()[:len(s.Index())-1] {
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			t = deref(st.Field(idx).Type())
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
			return Class{Pkg: n.Obj().Pkg().Path(), Owner: n.Obj().Name(), Name: v.Name()}, true
		}
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return Class{}, false
		}
		if v.Parent() == v.Pkg().Scope() {
			return Class{Pkg: v.Pkg().Path(), Name: v.Name()}, true
		}
		return Class{Pkg: v.Pkg().Path(), Owner: "func " + fn.Name, Name: v.Name()}, true
	case *ast.IndexExpr:
		return classOf(pkg, fn, e.X)
	}
	return Class{}, false
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ----------------------------------------------------- fixpoint closures

// closeTaint: a function is tainted when it directly observes the wall
// clock, or calls (statically) a tainted function. The
// witness records the original source plus the first hop, for
// diagnostics.
func (p *Program) closeTaint() {
	p.tainted = make(map[FuncKey]string)
	for _, k := range p.Order {
		if s := p.Funcs[k]; len(s.Taints) > 0 {
			p.tainted[k] = s.Taints[0].what
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			if p.tainted[k] != "" {
				continue
			}
			for _, c := range p.Funcs[k].Calls {
				if wtn := p.tainted[c.callee]; wtn != "" {
					via := wtn
					if !strings.Contains(wtn, " via ") {
						via = wtn + " via " + c.callee.String()
					}
					p.tainted[k] = via
					changed = true
					break
				}
			}
		}
	}
}

// TaintWitness returns "" for a clean function, or the wall-clock
// source (and first call hop) it transitively reaches.
func (p *Program) TaintWitness(k FuncKey) string { return p.tainted[k] }

// closeShutdown: a goroutine body can shut down when it directly
// contains a shutdown construct or calls a function that transitively
// can.
func (p *Program) closeShutdown() {
	p.shutdown = make(map[FuncKey]bool)
	for _, k := range p.Order {
		p.shutdown[k] = p.Funcs[k].DirectShutdown
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			if p.shutdown[k] {
				continue
			}
			for _, c := range p.Funcs[k].Calls {
				if p.shutdown[c.callee] {
					p.shutdown[k] = true
					changed = true
					break
				}
			}
		}
	}
}

// ReachesShutdown reports whether the function (hence a goroutine
// running it) can learn about shutdown at any call depth.
func (p *Program) ReachesShutdown(k FuncKey) bool { return p.shutdown[k] }

// closeAcquires: transitive may-acquire sets — every lock class a call
// into the function may take at any depth, kept sorted.
func (p *Program) closeAcquires() {
	sets := make(map[FuncKey]map[Class]bool)
	for _, k := range p.Order {
		set := make(map[Class]bool)
		for _, a := range p.Funcs[k].Acquires {
			set[a.class] = true
		}
		sets[k] = set
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			set := sets[k]
			for _, c := range p.Funcs[k].Calls {
				for cls := range sets[c.callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}
	p.transAcq = make(map[FuncKey][]Class)
	for k, set := range sets {
		for c := range set {
			p.transAcq[k] = append(p.transAcq[k], c)
		}
		slices.SortFunc(p.transAcq[k], Class.compare)
	}
}

// TransAcquires returns the sorted lock classes the function may
// acquire at any call depth.
func (p *Program) TransAcquires(k FuncKey) []Class { return p.transAcq[k] }
