package analyzers

// interproc.go is harmonylint's interprocedural dataflow layer: a call
// graph over every loaded package plus one Summary per function body —
// which locks it acquires and with what already held, which channels
// it sends on or closes, which goroutines it spawns, which
// paired-resource operations it performs, which doc-comment lock
// contract it declares, whether it can learn about shutdown, and
// whether it observes wall-clock or global-rand state. The lockorder
// and chanlife passes, the determinism taint upgrade and the lifecycle
// explorations consume these summaries instead of re-walking syntax,
// which is what lets them follow a contract through any call depth
// rather than stopping at the first function boundary.
//
// Two deliberate approximations keep the layer sound for its clients
// without a full abstract interpreter:
//
//   - A call site's or acquisition's held-lock set is the must-held set:
//     the summary builder runs the package's worklist (explore, in
//     dataflow.go) over the function's CFG with the set of held lock
//     classes as the state, and a lock counts as held at a node only
//     when every state reaching the node holds it. A deferred Unlock
//     leaves the lock held until return. Disagreement therefore drops
//     locks, which can only suppress lock-order edges, never invent
//     them. Per-path questions — "is this resource released on every
//     path, including the early error returns?" — belong to the
//     lifecycle explorations in dataflow.go, over the same graphs
//     (FuncCFG).
//   - Only statically resolvable calls propagate: a call through an
//     interface or a function value contributes no edge. That is the
//     sanctioned escape hatch (trace.Clock exists exactly so the
//     deterministic core can time things through an interface).
//
// Functions are keyed by FuncKey — import path, receiver type name,
// function name — and locks by LockClass: printable, order-stable names
// that diagnostics are sorted by and tests can spell.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
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

// LockClass is one mutex "class": a struct field (every instance of
// vmShard.mu is one class), a package-level var, or a function-local
// variable. Lock-order edges relate classes, not instances.
type LockClass struct {
	Pkg   string // import path of the owning package
	Owner string // named type for fields, "func <name>" for locals, "" for package vars
	Name  string // field or variable name
}

func (c LockClass) String() string {
	base := c.Pkg[strings.LastIndex(c.Pkg, "/")+1:]
	if c.Owner != "" {
		return base + "." + c.Owner + "." + c.Name
	}
	return base + "." + c.Name
}

// IsShard reports a per-device shard lock (vmShard.mu, devShard.mu):
// same-class nesting of these is governed by the ascending-order
// contract rather than banned outright.
func (c LockClass) IsShard() bool { return strings.HasSuffix(c.Owner, "Shard") }

// chanClass identifies a channel the same way LockClass identifies a
// mutex: by field, package var or local name.
type chanClass struct {
	Pkg, Owner, Name string
}

func (c chanClass) String() string {
	base := c.Pkg[strings.LastIndex(c.Pkg, "/")+1:]
	if c.Owner != "" {
		return base + "." + c.Owner + "." + c.Name
	}
	return base + "." + c.Name
}

// lockEvent is one direct Lock/RLock with the classes already held.
type lockEvent struct {
	pos   token.Pos
	class LockClass
	held  []LockClass
}

// callSite is one statically resolved call with the held-lock snapshot.
type callSite struct {
	pos    token.Pos
	callee FuncKey
	held   []LockClass
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
	class chanClass
	send  bool // else close
}

// taintUse is one direct wall-clock or global-rand observation.
type taintUse struct {
	pos  token.Pos
	what string // e.g. "time.Now", "rand.Intn"
}

// Summary is the per-function dataflow digest every interprocedural
// pass consumes.
type Summary struct {
	Key  FuncKey
	Decl *ast.FuncDecl // nil for synthesized go-literal bodies
	Pkg  *Package

	Calls    []callSite
	Spawns   []spawnSite
	Acquires []lockEvent
	ChanOps  []chanOp
	Taints   []taintUse
	// ResOps lists the paired-resource operation names this function
	// calls directly (Pin/Unpin, claim/commit/settle, Release and
	// their case variants). The lifecycle passes use the transitive
	// closure (TransResOps) to recognize a release performed by a
	// callee at any call depth.
	ResOps []string

	// EntryHeld are lock classes the doc contract declares held on
	// entry ("Requires mu held", "Requires sh.mu held"); heldOnEntry
	// are the same locks as the body spells them ("v.mu", "sh.mu"), and
	// recvHeld says the receiver's mu is among them.
	EntryHeld   []LockClass
	heldOnEntry []string
	recvHeld    bool
	// releasedOnReturn: the doc demands the entry-held locks released
	// on every return ("mu held on entry, released on return"), so a
	// call to this method takes the receiver's lock off its caller.
	releasedOnReturn bool
	// ShardOrderOK: the doc declares the ascending device/shard
	// acquisition contract, licensing same-class shard nesting.
	ShardOrderOK bool
	// DirectShutdown: the body itself contains a construct by which a
	// goroutine can learn it should exit or signal that it has
	// (select, channel receive, channel range, WaitGroup.Done,
	// Cond.Wait).
	DirectShutdown bool
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
	transAcq map[FuncKey]map[LockClass]bool
	transRes map[FuncKey]map[string]bool
	cfgs     map[FuncKey]*CFG          // per-function CFGs, built once, shared by all passes
	life     map[*lifeSpec]*lifeResult // lifecycle explorations, run once each
	// truncated lists every exploration a bound cut short; empty means
	// each "no finding" below is a proof, not a cap.
	truncated []truncation
}

// FuncCFG returns the function's control-flow graph, building it on
// first request and caching it for the summary builder and every pass
// in the same RunProject call.
func (p *Program) FuncCFG(k FuncKey) *CFG {
	if c, ok := p.cfgs[k]; ok {
		return c
	}
	var c *CFG
	if s := p.Funcs[k]; s != nil {
		c = NewCFG(s.Decl)
	}
	p.cfgs[k] = c
	return c
}

// resOpNames is the paired-resource operation vocabulary recorded into
// Summary.ResOps: the pin, claim-word and handle lifecycles.
var resOpNames = map[string]bool{
	"Pin": true, "pin": true, "Unpin": true, "unpin": true,
	"Claim": true, "claim": true, "Commit": true, "commit": true,
	"Settle": true, "settle": true, "Release": true,
}

// BuildProgram summarizes every function in the loaded packages and
// closes the taint, shutdown-reachability and transitive-acquisition
// relations over the call graph.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[FuncKey]*Summary),
		cfgs:  make(map[FuncKey]*CFG),
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
			if !prog.add(sum) {
				return
			}
			var held heldSet
			for _, c := range sum.EntryHeld {
				held = held.with(c)
			}
			w := &sumBuilder{pkg: pkg, prog: prog, sum: sum}
			w.body(prog.FuncCFG(key), held)
		})
	}
	for _, k := range prog.Order {
		prog.Funcs[k].sortEvents()
	}
	prog.closeTaint()
	prog.closeShutdown()
	prog.closeAcquires()
	prog.closeResOps()
	return prog
}

// sortEvents puts each event list in source order; the builder records
// in block order.
func (s *Summary) sortEvents() {
	sortByPos(s.Calls, func(c callSite) token.Pos { return c.pos })
	sortByPos(s.Spawns, func(c spawnSite) token.Pos { return c.pos })
	sortByPos(s.Acquires, func(a lockEvent) token.Pos { return a.pos })
	sortByPos(s.ChanOps, func(c chanOp) token.Pos { return c.pos })
	sortByPos(s.Taints, func(u taintUse) token.Pos { return u.pos })
}

func sortByPos[T any](s []T, pos func(T) token.Pos) {
	if len(s) < 2 {
		return
	}
	sort.SliceStable(s, func(i, j int) bool { return pos(s[i]) < pos(s[j]) })
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

// The doc-comment lock contracts, read once per function into its
// Summary by parseContracts; every pass takes them from there.
var (
	entryHeldRe = regexp.MustCompile(`(?i)\brequires\s+mu\s+held|\bmu\s+held\s+on\s+entry`)
	paramHeldRe = regexp.MustCompile(`(?i)\brequires\s+(\w+)\.mu\s+held`)
	releasedRe  = regexp.MustCompile(`(?i)\breleased\s+on\s+return`)
	// shardOrderRe is the declaration that licenses holding two shard
	// locks at once, in ascending device-index order.
	shardOrderRe = regexp.MustCompile(`(?i)ascending\s+(device|shard)`)
)

// parseContracts reads the function's lock contract: "Requires mu
// held" / "mu held on entry" puts the receiver's mu in the held state
// on entry, "Requires sh.mu held" the mu of the parameter of that name
// (the sharded helpers take their vmShard/devShard explicitly).
// Returning with such a lock held is then expected unless the doc also
// says "released on return".
func parseContracts(pkg *Package, fd *ast.FuncDecl, sum *Summary) {
	if fd.Doc == nil {
		return
	}
	doc := fd.Doc.Text()
	sum.ShardOrderOK = shardOrderRe.MatchString(doc)
	sum.releasedOnReturn = releasedRe.MatchString(doc)
	held := func(f *ast.Field, name string) bool {
		c, ok := fieldLockClass(pkg, f.Type, "mu")
		if ok {
			sum.EntryHeld = append(sum.EntryHeld, c)
			if name != "" {
				sum.heldOnEntry = append(sum.heldOnEntry, name+".mu")
			}
		}
		return ok
	}
	if entryHeldRe.MatchString(doc) && fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv, name := fd.Recv.List[0], ""
		if len(recv.Names) == 1 {
			name = recv.Names[0].Name
		}
		sum.recvHeld = held(recv, name)
	}
	for _, m := range paramHeldRe.FindAllStringSubmatch(doc, -1) {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if name.Name == m[1] {
					held(f, name.Name)
				}
			}
		}
	}
}

// fieldLockClass resolves "the mu field of the named type behind expr"
// to a lock class.
func fieldLockClass(pkg *Package, typeExpr ast.Expr, field string) (LockClass, bool) {
	t := pkg.Info.TypeOf(typeExpr)
	if t == nil {
		return LockClass{}, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return LockClass{}, false
	}
	return LockClass{Pkg: n.Obj().Pkg().Path(), Owner: n.Obj().Name(), Name: field}, true
}

// ----------------------------------------------------- the summary builder

// heldSet is a set of lock classes, sorted and never modified in place,
// so a snapshot can be kept by just keeping the slice.
type heldSet []LockClass

func lessClass(a, b LockClass) bool {
	if a.Pkg != b.Pkg {
		return a.Pkg < b.Pkg
	}
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	return a.Name < b.Name
}

func (h heldSet) find(c LockClass) (int, bool) {
	i := sort.Search(len(h), func(i int) bool { return !lessClass(h[i], c) })
	return i, i < len(h) && h[i] == c
}

func (h heldSet) with(c LockClass) heldSet {
	i, ok := h.find(c)
	if ok {
		return h
	}
	out := make(heldSet, 0, len(h)+1)
	return append(append(append(out, h[:i]...), c), h[i:]...)
}

func (h heldSet) without(c LockClass) heldSet {
	i, ok := h.find(c)
	if !ok {
		return h
	}
	out := make(heldSet, 0, len(h)-1)
	return append(append(out, h[:i]...), h[i+1:]...)
}

func (h heldSet) intersect(o heldSet) heldSet {
	var out heldSet
	for _, c := range h {
		if _, ok := o.find(c); ok {
			out = append(out, c)
		}
	}
	return out
}

func (h heldSet) key() string {
	var b strings.Builder
	for _, c := range h {
		b.WriteString(c.Pkg)
		b.WriteByte('.')
		b.WriteString(c.Owner)
		b.WriteByte('.')
		b.WriteString(c.Name)
		b.WriteByte(';')
	}
	return b.String()
}

// sumBuilder fills one Summary. held is the must-held lock set at the
// node being recorded.
type sumBuilder struct {
	pkg  *Package
	prog *Program
	sum  *Summary
	held heldSet
}

// body summarizes one function body entered with the given locks held.
// The worklist first finds, per block, the locks every state reaching
// it holds; one pass over the blocks then records each node's events
// against that set.
func (w *sumBuilder) body(cfg *CFG, entry heldSet) {
	in := make([]heldSet, len(cfg.Blocks))
	reached := make([]bool, len(cfg.Blocks))
	complete := explore(cfg, entry, heldSet.key,
		func(blk *Block, h heldSet) heldSet {
			if reached[blk.ID] {
				in[blk.ID] = in[blk.ID].intersect(h)
			} else {
				reached[blk.ID], in[blk.ID] = true, h
			}
			for _, n := range blk.Nodes {
				h = w.lockEffects(n, h)
			}
			return h
		},
		func(h heldSet, _ *Edge) heldSet { return h })
	if !complete {
		w.prog.truncated = append(w.prog.truncated, truncation{"summary", w.sum.Key})
	}
	outer := w.held
	for _, blk := range cfg.Blocks {
		if !reached[blk.ID] {
			continue
		}
		w.held = in[blk.ID]
		for _, n := range blk.Nodes {
			w.node(n)
		}
	}
	w.held = outer
}

// mutexOp matches a mutex Lock or Unlock and resolves the mutex to its
// class.
func (w *sumBuilder) mutexOp(call *ast.CallExpr) (c LockClass, lock, ok bool) {
	x, lock, ok := mutexCall(w.pkg.Info, call)
	if ok {
		c, ok = w.lockClassOf(x)
	}
	return c, lock, ok
}

// lockEffects applies the node's Lock and Unlock calls to held. Deferred
// calls run at return and spawned ones elsewhere, so neither changes
// what is held here; a deferred Unlock thereby keeps its lock held
// until return.
func (w *sumBuilder) lockEffects(n ast.Node, held heldSet) heldSet {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return held
	}
	inspectNode(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if c, lock, ok := w.mutexOp(x); ok {
				if lock {
					held = held.with(c)
				} else {
					held = held.without(c)
				}
			}
		}
		return true
	})
	return held
}

// node records the calls, taints, lock transitions, channel operations
// and shutdown constructs of one CFG node, in lexical order. A function
// literal that is not spawned is summarized into the same Summary with
// nothing held (it runs later, locks notwithstanding).
func (w *sumBuilder) node(n ast.Node) {
	inspectNode(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			w.goStmt(x)
			return false
		case *ast.DeferStmt:
			w.deferStmt(x)
			return false
		case *ast.FuncLit:
			w.body(newBodyCFG(x.Body), nil)
			return false
		case *ast.SendStmt:
			if c, ok := w.chanClassOf(x.Chan); ok {
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
			w.call(x)
		}
		return true
	})
}

// call classifies one call expression: lock transition, taint source,
// channel close, shutdown signal, or a plain (possibly resolvable)
// call.
func (w *sumBuilder) call(call *ast.CallExpr) {
	info := w.pkg.Info

	if c, lock, ok := w.mutexOp(call); ok {
		if lock {
			w.sum.Acquires = append(w.sum.Acquires, lockEvent{pos: call.Pos(), class: c, held: w.held})
			w.held = w.held.with(c)
		} else {
			w.held = w.held.without(c)
		}
		return
	}

	// Wall-clock and global-rand taint sources.
	for name := range wallClockFuncs {
		if pkgFunc(info, call, "time", name) {
			w.sum.Taints = append(w.sum.Taints, taintUse{pos: call.Pos(), what: "time." + name})
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "math/rand" {
				if isRandGlobal(info, sel) {
					w.sum.Taints = append(w.sum.Taints, taintUse{pos: call.Pos(), what: "rand." + sel.Sel.Name})
				}
				return
			}
		}
	}

	// close(ch) builtin.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) == 1 {
			if c, ok := w.chanClassOf(call.Args[0]); ok {
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
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if resOpNames[fn.Name()] {
		w.sum.ResOps = append(w.sum.ResOps, fn.Name())
	}
	if key, ok := keyOf(fn); ok {
		w.sum.Calls = append(w.sum.Calls, callSite{pos: call.Pos(), callee: key, held: w.held})
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
	for _, a := range g.Call.Args {
		w.node(a)
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		pos := w.pkg.Fset.Position(g.Pos())
		syn := &Summary{
			Key: FuncKey{Pkg: w.pkg.Path, Name: fmt.Sprintf("go$%s:%d", shortFile(pos.Filename), pos.Line)},
			Pkg: w.pkg,
		}
		w.prog.add(syn)
		lw := &sumBuilder{pkg: w.pkg, prog: w.prog, sum: syn}
		lw.body(newBodyCFG(lit.Body), nil)
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

// deferStmt: a deferred Unlock changes nothing here (the lock stays
// held until return, the standard Lock/defer-Unlock idiom); any other
// deferred call is recorded with nothing held, since it runs at an
// unknown exit state.
func (w *sumBuilder) deferStmt(d *ast.DeferStmt) {
	if _, lock, ok := w.mutexOp(d.Call); ok && !lock {
		return
	}
	outer := w.held
	w.held = nil
	w.node(d.Call)
	w.held = outer
}

// lockClassOf resolves the mutex expression x of x.Lock() to a class.
func (w *sumBuilder) lockClassOf(e ast.Expr) (LockClass, bool) {
	info := w.pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		v, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || !v.IsField() {
			// Selector onto a package-level var (pkg.mu) or a
			// non-field; fall back to the object itself.
			if ok && v.Pkg() != nil {
				return LockClass{Pkg: v.Pkg().Path(), Name: v.Name()}, true
			}
			return LockClass{}, false
		}
		// Owner type: the named type the selection steps through.
		if s, ok := info.Selections[e]; ok {
			t := s.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			// Embedded fields: use the type that directly declares mu.
			for _, idx := range s.Index()[:len(s.Index())-1] {
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				t = st.Field(idx).Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				return LockClass{Pkg: n.Obj().Pkg().Path(), Owner: n.Obj().Name(), Name: v.Name()}, true
			}
		}
		return LockClass{}, false
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return LockClass{}, false
		}
		if v.IsField() {
			// mu inside a method with an embedded receiver.
			return LockClass{Pkg: v.Pkg().Path(), Owner: w.sum.Key.Recv, Name: v.Name()}, true
		}
		if v.Parent() == v.Pkg().Scope() {
			return LockClass{Pkg: v.Pkg().Path(), Name: v.Name()}, true
		}
		// Function-local mutex: class scoped to this function.
		return LockClass{Pkg: v.Pkg().Path(), Owner: "func " + w.sum.Key.Name, Name: v.Name()}, true
	}
	return LockClass{}, false
}

// chanClassOf resolves a send/close target to a channel class, when it
// is a plain field or variable reference.
func (w *sumBuilder) chanClassOf(e ast.Expr) (chanClass, bool) {
	info := w.pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		v, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || !v.IsField() {
			if ok && v.Pkg() != nil {
				return chanClass{Pkg: v.Pkg().Path(), Name: v.Name()}, true
			}
			return chanClass{}, false
		}
		if s, ok := info.Selections[e]; ok {
			t := s.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				return chanClass{Pkg: n.Obj().Pkg().Path(), Owner: n.Obj().Name(), Name: v.Name()}, true
			}
		}
		return chanClass{}, false
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return chanClass{}, false
		}
		if v.Parent() == v.Pkg().Scope() {
			return chanClass{Pkg: v.Pkg().Path(), Name: v.Name()}, true
		}
		return chanClass{Pkg: v.Pkg().Path(), Owner: "func " + w.sum.Key.Name, Name: v.Name()}, true
	case *ast.IndexExpr:
		// ready[i]-style per-element channels: class by the slice.
		return w.chanClassOf(e.X)
	}
	return chanClass{}, false
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ----------------------------------------------------- fixpoint closures

// closeTaint: a function is tainted when it directly observes the wall
// clock or global rand, or calls (statically) a tainted function. The
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

// TaintWitness returns "" for a clean function, or the wall-clock/rand
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
// into the function may take at any depth.
func (p *Program) closeAcquires() {
	p.transAcq = make(map[FuncKey]map[LockClass]bool)
	for _, k := range p.Order {
		set := make(map[LockClass]bool)
		for _, a := range p.Funcs[k].Acquires {
			set[a.class] = true
		}
		p.transAcq[k] = set
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			set := p.transAcq[k]
			for _, c := range p.Funcs[k].Calls {
				for cls := range p.transAcq[c.callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}
}

// TransAcquires returns the sorted lock classes the function may
// acquire at any call depth.
func (p *Program) TransAcquires(k FuncKey) []LockClass {
	var out heldSet
	for c := range p.transAcq[k] {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return lessClass(out[i], out[j]) })
	return out
}

// closeResOps: transitive paired-resource operation sets — every
// Pin/Unpin/claim/commit/settle/Release a call into the function may
// perform at any depth. The lifecycle passes consult this to credit a
// release done by a callee.
func (p *Program) closeResOps() {
	p.transRes = make(map[FuncKey]map[string]bool)
	for _, k := range p.Order {
		set := make(map[string]bool)
		for _, op := range p.Funcs[k].ResOps {
			set[op] = true
		}
		p.transRes[k] = set
	}
	for changed := true; changed; {
		changed = false
		for _, k := range p.Order {
			set := p.transRes[k]
			for _, c := range p.Funcs[k].Calls {
				for op := range p.transRes[c.callee] {
					if !set[op] {
						set[op] = true
						changed = true
					}
				}
			}
		}
	}
}

// TransResOps returns the paired-resource operations the function may
// perform at any call depth.
func (p *Program) TransResOps(k FuncKey) map[string]bool { return p.transRes[k] }
