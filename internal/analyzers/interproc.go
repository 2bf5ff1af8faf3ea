package analyzers

// interproc.go is harmonylint's interprocedural layer and its one
// syntax walk: a call graph over every loaded package plus one Summary
// per function body — which locks it acquires, which functions it
// calls, which channels it sends on or closes, which goroutines it
// spawns, which doc-comment lock contract it declares, whether it can
// learn about shutdown, and whether it observes the wall clock. The
// walk visits every file of every package once (ast.Inspect); on the
// way it also records the lexical findings of determinism's wall-clock
// and map-range rules and errcheck, each onto its own list on the
// Program. A summary records what the body can do, never under which
// locks. What is held where is the lock
// lifecycle's question (dataflow.go), answered path by path; lockorder
// reads the lock-order edges that exploration records and takes from
// here only the transitive acquisitions of a callee. chanlife and the
// determinism taint upgrade read the summaries and their closures
// directly, which is what lets them follow a contract through any call
// depth rather than stopping at the first function boundary.
//
// Only statically resolvable calls propagate: a call through an
// interface or a function value contributes no edge. That is the
// sanctioned escape hatch (trace.Clock exists exactly so the
// deterministic core can time things through an interface).
//
// Functions are keyed by FuncKey — import path, receiver type name,
// function name — and locks and channels by Class: printable,
// order-stable names that diagnostics are sorted by and tests can spell.
// The fixpoints run over indices instead: each summary is numbered by
// its place in Order, every call site resolves to its callee's number
// once, and lock classes are interned to bit positions.

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math/bits"
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

// callSite is one statically resolved call. to is the index of the
// callee's summary, -1 when it has none (another module, the standard
// library).
type callSite struct {
	pos    token.Pos
	callee FuncKey
	to     int32
}

// spawnSite is one `go` statement. callee is zero when the target is
// dynamic (function value, interface method) — not checkable; to is
// the callee's summary index, -1 when it is dynamic or has none.
type spawnSite struct {
	pos    token.Pos
	callee FuncKey
	to     int32
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
	idx  int32 // the summary's index in Program.Order
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

// Program is the whole-program view: all summaries, the fixpoint
// closures over the call graph and the walk's lexical findings.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[FuncKey]*Summary
	Order []FuncKey // deterministic iteration order

	sums  []*Summary // sums[i] is Funcs[Order[i]]
	calls [][]int32  // calls[i]: the summary indices sums[i] calls, in call order
	// The closures, indexed like sums.
	tainted  []string // witness source ("" = clean)
	shutdown []bool
	transAcq [][]Class
	// lexical holds what the walk found for the lexical rules, one list
	// per analyzer, reported by that analyzer's Run.
	lexical struct{ determinism, errcheck []finding }

	cfgs map[*ast.BlockStmt]*CFG   // per-body CFGs, built once, shared by all passes
	life map[*lifeSpec]*lifeResult // lifecycle explorations, run once each
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

// BuildProgram walks every file of the loaded packages once — one
// summary per function, the lexical findings on the way — and closes
// the taint, shutdown-reachability and transitive-acquisition relations
// over the call graph.
func BuildProgram(pkgs []*Package) *Program {
	n := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			n += len(f.Decls)
		}
	}
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[FuncKey]*Summary, n),
		Order: make([]FuncKey, 0, n),
		sums:  make([]*Summary, 0, n),
		cfgs:  make(map[*ast.BlockStmt]*CFG),
		life:  make(map[*lifeSpec]*lifeResult),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		w := &walker{pkg: pkg, prog: prog, core: inDeterministicCore(pkg.Path), errcheck: inErrcheckScope(pkg.Path)}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						w.funcDecl(d)
					}
				case *ast.GenDecl:
					// Package-level declarations hold no function to
					// summarize, only what the core and errcheck rules
					// look for.
					if w.core || w.errcheck {
						w.sum = nil
						w.walk(d)
					}
				}
			}
		}
	}
	prog.link()
	prog.closeTaint()
	prog.closeShutdown()
	prog.closeAcquires()
	return prog
}

// add registers s under its key; false when the key is taken (two
// spawned literals on one line — the first wins).
func (p *Program) add(s *Summary) bool {
	if _, dup := p.Funcs[s.Key]; dup {
		return false
	}
	s.idx = int32(len(p.sums))
	p.Funcs[s.Key] = s
	p.Order = append(p.Order, s.Key)
	p.sums = append(p.sums, s)
	return true
}

// siteKey names a body by where it is written, for one no declaration
// names uniquely: "go$file:line" for a spawned literal,
// "init$file:line" for a package's second init.
func siteKey(pkg *Package, recv, name string, pos token.Pos) FuncKey {
	p := pkg.Fset.Position(pos)
	return FuncKey{Pkg: pkg.Path, Recv: recv, Name: fmt.Sprintf("%s$%s:%d", name, shortFile(p.Filename), p.Line)}
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
	if fd.Doc == nil || !slices.ContainsFunc(fd.Doc.List, mentionsMu) {
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

// mentionsMu reports whether the comment line holds ".mu" in any case:
// a doc comment where none does cannot match paramHeldRe, whose `\.mu`
// spans no line break and whose only case-folds of those letters are
// ASCII. Periods are rare, so this passes over almost every doc comment
// at IndexByte speed.
func mentionsMu(c *ast.Comment) bool {
	s := c.Text
	for {
		i := strings.IndexByte(s, '.')
		if i < 0 || i+2 >= len(s) {
			return false
		}
		if s[i+1]|0x20 == 'm' && s[i+2]|0x20 == 'u' {
			return true
		}
		s = s[i+1:]
	}
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

// ----------------------------------------------------------- the walk

// walker is the one syntax walk. It summarizes function bodies into
// sum and hands every node, summarized or not, to the lexical rules in
// force.
type walker struct {
	pkg  *Package
	prog *Program
	// The lexical rules in force: determinism's in the core, errcheck's
	// in its scope.
	core, errcheck bool

	sum  *Summary // nil outside a function declaration: nothing to summarize
	body int      // the index in sum.bodies of the body being walked
}

// funcDecl summarizes one declared function. A declaration whose key
// is taken — a package's second init, a second func _ — gets a key of
// its own, so no body goes unsummarized.
func (w *walker) funcDecl(fd *ast.FuncDecl) {
	fn, _ := w.pkg.Info.Defs[fd.Name].(*types.Func)
	key, ok := keyOf(fn)
	if _, taken := w.prog.Funcs[key]; !ok || taken {
		key = siteKey(w.pkg, key.Recv, fd.Name.Name, fd.Pos())
	}
	sum := &Summary{Key: key, Decl: fd, Pkg: w.pkg, bodies: []funcBody{{fn: fd, body: fd.Body}}}
	parseContracts(w.pkg, fd, sum)
	w.prog.add(sum)
	w.sum, w.body = sum, 0
	w.walk(fd.Body)
}

// walk visits every node under n once. Each goes to the lexical rules;
// inside a function it is also summarized: the calls, taints,
// acquisitions, channel operations, spawns and shutdown constructs, in
// source order, and which lifecycle specs open a resource in each body.
// A function literal that is not spawned is summarized into the same
// Summary as a body of its own; a spawned one gets a summary of its
// own.
func (w *walker) walk(n ast.Node) {
	ast.Inspect(n, w.visit)
}

func (w *walker) visit(x ast.Node) bool {
	w.lint(x)
	if w.sum == nil {
		return true
	}
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
}

// lint applies the lexical rules in force to one node.
func (w *walker) lint(x ast.Node) {
	lex := &w.prog.lexical
	if w.core {
		lintDeterminism(w.pkg.Info, x, &lex.determinism)
	}
	if w.errcheck {
		lintErrcheck(w.pkg.Info, x, &lex.errcheck)
	}
}

// opens records in the current body each lifecycle spec that classifies
// call as an open, asking the spec's own classify.
func (w *walker) opens(call *ast.CallExpr) {
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
func (w *walker) call(call *ast.CallExpr) {
	info := w.pkg.Info

	if x, lock, ok := mutexCall(info, call); ok {
		if c, ok := classOf(w.pkg, w.sum.Key, x); ok && lock {
			w.sum.Acquires = append(w.sum.Acquires, lockEvent{pos: call.Pos(), class: c})
		}
		return
	}

	// Wall-clock taint sources.
	if name, ok := wallClockRead(info, call); ok {
		w.sum.Taints = append(w.sum.Taints, taintUse{pos: call.Pos(), what: "time." + name})
		return
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
// Every node of g still reaches the lexical rules once.
func (w *walker) goStmt(g *ast.GoStmt) {
	// The go statement is a node of the spawning body: the lifecycle
	// engine classifies every call in it there, literals aside.
	ast.Inspect(g.Call, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			w.opens(call)
		}
		_, lit := x.(*ast.FuncLit)
		return !lit
	})
	w.lint(g.Call)
	for _, a := range g.Call.Args {
		w.walk(a)
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		syn := &Summary{Key: siteKey(w.pkg, "", "go", g.Pos()), Pkg: w.pkg}
		w.prog.add(syn)
		sw := *w
		sw.sum, sw.body = syn, 0
		sw.walk(lit)
		w.sum.Spawns = append(w.sum.Spawns, spawnSite{pos: g.Pos(), callee: syn.Key, label: "func literal"})
		return
	}
	// The spawned function's operand is no call of the spawner's.
	fw := *w
	fw.sum = nil
	fw.walk(g.Call.Fun)
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

// link resolves every call and spawn site to its callee's summary
// index and draws the call graph over those indices: calls[i] lists
// the resolved callees of sums[i] in call order, repeats included.
func (p *Program) link() {
	p.calls = make([][]int32, len(p.sums))
	for i, s := range p.sums {
		for j := range s.Calls {
			c := &s.Calls[j]
			if c.to = p.index(c.callee); c.to >= 0 {
				p.calls[i] = append(p.calls[i], c.to)
			}
		}
		for j := range s.Spawns {
			s.Spawns[j].to = p.index(s.Spawns[j].callee)
		}
	}
}

// index returns the index of k's summary, -1 when it has none.
func (p *Program) index(k FuncKey) int32 {
	if s := p.Funcs[k]; s != nil {
		return s.idx
	}
	return -1
}

// closeTaint: a function is tainted when it directly observes the wall
// clock, or calls (statically) a tainted function. The
// witness records the original source plus the first hop, for
// diagnostics.
func (p *Program) closeTaint() {
	p.tainted = make([]string, len(p.sums))
	for i, s := range p.sums {
		if len(s.Taints) > 0 {
			p.tainted[i] = s.Taints[0].what
		}
	}
	for changed := true; changed; {
		changed = false
		for i, callees := range p.calls {
			if p.tainted[i] != "" {
				continue
			}
			for _, c := range callees {
				if wtn := p.tainted[c]; wtn != "" {
					via := wtn
					if !strings.Contains(wtn, " via ") {
						via = wtn + " via " + p.Order[c].String()
					}
					p.tainted[i] = via
					changed = true
					break
				}
			}
		}
	}
}

// TaintWitness returns "" for a clean function, or the wall-clock
// source (and first call hop) it transitively reaches.
func (p *Program) TaintWitness(k FuncKey) string {
	if i := p.index(k); i >= 0 {
		return p.tainted[i]
	}
	return ""
}

// closeShutdown: a goroutine body can shut down when it directly
// contains a shutdown construct or calls a function that transitively
// can.
func (p *Program) closeShutdown() {
	p.shutdown = make([]bool, len(p.sums))
	for i, s := range p.sums {
		p.shutdown[i] = s.DirectShutdown
	}
	for changed := true; changed; {
		changed = false
		for i, callees := range p.calls {
			if p.shutdown[i] {
				continue
			}
			for _, c := range callees {
				if p.shutdown[c] {
					p.shutdown[i] = true
					changed = true
					break
				}
			}
		}
	}
}

// ReachesShutdown reports whether the function (hence a goroutine
// running it) can learn about shutdown at any call depth.
func (p *Program) ReachesShutdown(k FuncKey) bool {
	i := p.index(k)
	return i >= 0 && p.shutdown[i]
}

// closeAcquires: transitive may-acquire sets — every lock class a call
// into the function may take at any depth, kept sorted. Each set is a
// row of bits; the classes are numbered in sorted order, so a row read
// from its low bit up is its sorted list.
func (p *Program) closeAcquires() {
	ids := make(map[Class]int)
	var classes []Class
	for _, s := range p.sums {
		for _, a := range s.Acquires {
			if _, ok := ids[a.class]; !ok {
				ids[a.class] = len(classes)
				classes = append(classes, a.class)
			}
		}
	}
	slices.SortFunc(classes, Class.compare)
	for id, c := range classes {
		ids[c] = id
	}
	words := (len(classes) + 63) / 64
	set := make([]uint64, len(p.sums)*words)
	row := func(i int) []uint64 { return set[i*words : (i+1)*words] }
	for i, s := range p.sums {
		r := row(i)
		for _, a := range s.Acquires {
			id := ids[a.class]
			r[id/64] |= 1 << (id % 64)
		}
	}
	for changed := true; changed; {
		changed = false
		for i, callees := range p.calls {
			r := row(i)
			for _, c := range callees {
				for j, x := range row(int(c)) {
					if x&^r[j] != 0 {
						r[j] |= x
						changed = true
					}
				}
			}
		}
	}
	p.transAcq = make([][]Class, len(p.sums))
	for i := range p.sums {
		for j, x := range row(i) {
			for ; x != 0; x &= x - 1 {
				p.transAcq[i] = append(p.transAcq[i], classes[j*64+bits.TrailingZeros64(x)])
			}
		}
	}
}

// TransAcquires returns the sorted lock classes the function may
// acquire at any call depth.
func (p *Program) TransAcquires(k FuncKey) []Class {
	if i := p.index(k); i >= 0 {
		return p.transAcq[i]
	}
	return nil
}
