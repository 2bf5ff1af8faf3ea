package analyzers

// dataflow.go holds the package's one worklist (explore) and the
// lifecycle engine, its one client. explore enumerates the distinct
// abstract states of a function over its CFG (cfg.go); the lifecycle
// engine runs it over paired resources: each state is the multiset of
// currently-open resources, the stack of deferred close effects, and
// whether the path has crossed an `err != nil` guard. Every branch
// outcome stays separate and carries a human-readable trace, so a
// diagnostic can print the concrete leaking path.
//
// Two lifecycle specs exist — locks (errpath.go) and DMA claims
// (claimlife.go). Each is explored once per Program and cached on it
// (Program.lifecycle), over the declared bodies and function literals
// that can hold one of its resources: those where the spec's classify
// finds an open (the summary walk, interproc.go, records which) and the
// declarations whose doc contract holds one on entry. Every other body
// has the empty state alone, where no exit can leak and no observer
// looks, so skipping it changes no finding. A literal starts with
// nothing open, since it runs when it is called, not where it is
// written. A spec yields leak findings at
// function exits and, through its observers, findings about what
// happens while a resource is open: lockhold reads the lock spec's
// blocking observer, lockorder its lock-order edges (a lock taken, or a
// callee that may take one, while another is open), claimlife
// the claim spec's observer (published while a claim is uncommitted).
//
// The lattice per spec is the same shape: open-resource counts
// (saturating at a small bound so loops converge) ordered by multiset
// inclusion, with the error flag and defer stack as extra state
// components. Joins never happen — states with distinct keys are
// explored separately, deduplicated per block, and capped (per block
// and per function). A function that hits a cap is recorded on the
// Program (truncated), so tests can prove that silence means "no
// finding" and not "gave up".
//
// Ownership semantics, each one used by the live tree:
//
//   - Guarded acquisition: an open that reports success by its bool
//     result and is itself the branch condition (`if !vm.claim(...)`)
//     commits only on the success edge; the failure edge drops it. Any
//     other open commits unconditionally.
//   - No hand-off: nothing moves a resource to another owner — not an
//     assignment, a composite literal, a send, a return, a closure or a
//     callee. A claim queued for the DMA worker is already committed,
//     and a lock never moves: a mutex is not a value.
//   - Contracts: a spec that reads them opens the locks a declared
//     function's doc contract says its caller holds ("Requires sh.mu
//     held") on entry, follows them like any other open, and licenses
//     leaving with them open.
//   - defer: deferred close effects accumulate per path and apply at
//     every exit before the leak check, modeling Go's defer-at-return.
//   - Panic exits are exempt: a panicking path is already lost.

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// lifeOp is the effect of one classified call.
type lifeOp int

const (
	lifeOpen lifeOp = iota
	lifeClose
)

// lifeEvent is one classified resource operation.
type lifeEvent struct {
	op    lifeOp
	res   string
	class Class  // the lock's class; zero for claims and unresolved locks
	what  string // rendered call, for the path trace
	// guarded: the open reports success by its bool result, so a branch
	// on the call decides whether it was taken.
	guarded bool
}

// lifeSpecs are the lifecycle explorations the passes read; the
// summary walk records, per body, which of them open a resource there.
var lifeSpecs = []*lifeSpec{lockSpec, claimSpec}

// lifeSpec configures one lifecycle pass over the shared engine.
type lifeSpec struct {
	// kind names the spec and is the resource noun in its diagnostics
	// ("claim", "lock").
	kind string
	// leakVerb completes "<kind> on <res> taken at <pos> <leakVerb>".
	leakVerb string
	// classify maps one call, in the body of function fn, to its
	// resource event, if it has one.
	classify func(pkg *Package, fn FuncKey, call *ast.CallExpr) (lifeEvent, bool)
	// contracts: a declared function's doc-contract locks ("Requires
	// sh.mu held") are open on entry and licensed at exit.
	contracts bool
	// observers see every node with the state in force before the
	// node's own effects; they report through e.observef and e.edge.
	observers []func(e *lifeEngine, n ast.Node, st *lifeState)
}

// lifeResult is what one spec found over the whole program: resources
// still open at an exit, and what its observers saw on the way.
type lifeResult struct {
	leaks, observed []finding
	edges           []lockEdge // the lock spec's lock-order edges, in exploration order
	// explored of bodies were explored; the rest could hold nothing.
	explored, bodies int
}

// truncation names one exploration that a bound cut short.
type truncation struct {
	spec string
	fn   FuncKey
}

// lifecycle explores spec, once per Program, over every declared
// function body and every function literal that can hold one of its
// resources.
func (p *Program) lifecycle(spec *lifeSpec) *lifeResult {
	if r, ok := p.life[spec]; ok {
		return r
	}
	r := &lifeResult{}
	p.life[spec] = r
	for _, sum := range p.sums {
		for i := range sum.bodies {
			b := &sum.bodies[i]
			r.bodies++
			if spec.explores(sum, b) {
				r.explored++
				p.exploreBody(spec, r, sum, b)
			}
		}
	}
	return r
}

// explores reports whether spec must explore b, a body of sum: whether
// spec opens a resource in it or its contract holds one on entry.
func (spec *lifeSpec) explores(sum *Summary, b *funcBody) bool {
	return slices.Contains(b.opens, spec) || len(spec.contract(sum, b.fn)) > 0
}

// contract returns the locks the doc contract of fn, a body of sum,
// declares held by its caller; a literal has none.
func (spec *lifeSpec) contract(sum *Summary, fn ast.Node) []string {
	if _, decl := fn.(*ast.FuncDecl); !decl || !spec.contracts {
		return nil
	}
	return sum.heldOnEntry
}

// exploreBody explores b, one body of sum, into r.
func (p *Program) exploreBody(spec *lifeSpec, r *lifeResult, sum *Summary, b *funcBody) {
	e := &lifeEngine{
		res:      r,
		spec:     spec,
		prog:     p,
		pkg:      sum.Pkg,
		sum:      sum,
		fn:       b.fn,
		cfg:      p.cfgOf(b.body),
		reported: make(map[token.Pos]bool),
	}
	if !e.run() {
		p.truncated = append(p.truncated, truncation{spec.kind, sum.Key})
	}
}

// Exploration bounds. Dropping paths can only lose reports, never
// invent them, and every function that hits one is recorded.
const (
	maxOpenCount   = 3
	maxBlockStates = 64
	maxPathVisits  = 4096
	maxTraceSteps  = 12
)

// explore is the package's one worklist. Breadth-first from the entry
// block it enumerates every distinct (block, state) pair: visit gets
// the state at a block's start and returns the state at its end
// without mutating its argument, cross carries that over one out-edge,
// and key tells states apart. It returns false when a bound cut the
// enumeration short.
func explore[S any](cfg *CFG, entry S, key func(S) string, visit func(*Block, S) S, cross func(S, *Edge) S) bool {
	type work struct {
		blk *Block
		st  S
	}
	type blockState struct {
		blk int
		key string
	}
	complete := true
	seen := make(map[blockState]bool)
	perBlock := make([]int, len(cfg.Blocks))
	mark := func(blk *Block, st S) bool {
		k := blockState{blk.ID, key(st)}
		if seen[k] {
			return false
		}
		if perBlock[blk.ID] >= maxBlockStates {
			complete = false
			return false
		}
		seen[k] = true
		perBlock[blk.ID]++
		return true
	}
	queue := []work{{cfg.Entry, entry}}
	mark(cfg.Entry, entry)
	for visits := 0; len(queue) > 0; visits++ {
		if visits >= maxPathVisits {
			return false
		}
		w := queue[0]
		queue = queue[1:]
		out := visit(w.blk, w.st)
		for _, edge := range w.blk.Succs {
			if ns := cross(out, edge); mark(edge.To, ns) {
				queue = append(queue, work{edge.To, ns})
			}
		}
	}
	return complete
}

// openRes is one tracked resource on a path. call is the opening call
// (nil for a resource held on entry).
type openRes struct {
	res   string
	class Class
	n     int
	pos   token.Pos
	call  *ast.CallExpr
}

// pending is a guarded open awaiting its branch edge.
type pending struct {
	ev   lifeEvent
	call *ast.CallExpr
}

// lifeState is the abstract state of one path at one block boundary.
type lifeState struct {
	open   []openRes // sorted by res
	defers []string  // resources closed by deferred calls, in defer order
	pend   *pending
	err    bool
	steps  []string // human-readable trace; not part of the state key
}

func (st *lifeState) clone() *lifeState {
	ns := &lifeState{pend: st.pend, err: st.err}
	ns.open = append([]openRes(nil), st.open...)
	ns.defers = append([]string(nil), st.defers...)
	ns.steps = append([]string(nil), st.steps...)
	return ns
}

func (st *lifeState) key() string {
	var b strings.Builder
	for _, o := range st.open {
		fmt.Fprintf(&b, "%s=%d;", o.res, o.n)
	}
	b.WriteByte('|')
	for _, d := range st.defers {
		b.WriteString(d)
		b.WriteByte(';')
	}
	b.WriteByte('|')
	if st.pend != nil {
		fmt.Fprintf(&b, "p%d", st.pend.call.Pos())
	}
	if st.err {
		b.WriteByte('E')
	}
	return b.String()
}

func (st *lifeState) openAt(res string, class Class, pos token.Pos, call *ast.CallExpr) {
	i := sort.Search(len(st.open), func(i int) bool { return st.open[i].res >= res })
	if i < len(st.open) && st.open[i].res == res {
		if st.open[i].n < maxOpenCount {
			st.open[i].n++
		}
		return
	}
	st.open = append(st.open, openRes{})
	copy(st.open[i+1:], st.open[i:])
	st.open[i] = openRes{res: res, class: class, n: 1, pos: pos, call: call}
}

// closeRes decrements res if open; closing what was never opened is a
// no-op (dmaWorker settles requests its producer claimed).
func (st *lifeState) closeRes(res string) {
	for i := range st.open {
		if st.open[i].res == res {
			if st.open[i].n > 0 {
				st.open[i].n--
			}
			return
		}
	}
}

// held returns the open entry for res, or nil when res is not open.
func (st *lifeState) held(res string) *openRes {
	for i := range st.open {
		if st.open[i].res == res && st.open[i].n > 0 {
			return &st.open[i]
		}
	}
	return nil
}

func (st *lifeState) step(s string) {
	if len(st.steps) < maxTraceSteps {
		st.steps = append(st.steps, s)
	}
}

// lifeEngine explores one function body — declared, or a literal
// summarized into sum — for one spec.
type lifeEngine struct {
	res  *lifeResult
	spec *lifeSpec
	prog *Program
	pkg  *Package
	sum  *Summary
	fn   ast.Node // *ast.FuncDecl or *ast.FuncLit
	cfg  *CFG
	blk  *Block // the block being visited

	reported map[token.Pos]bool // one report per open site or observed position
	edgeSeen map[lockEdge]bool  // one record per lock-order edge
}

func (e *lifeEngine) posStr(pos token.Pos) string {
	p := e.pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
}

// run explores the function; false means a bound cut it short.
func (e *lifeEngine) run() bool {
	entry := &lifeState{}
	for i, res := range e.spec.contract(e.sum, e.fn) {
		entry.openAt(res, e.sum.EntryHeld[i], e.fn.Pos(), nil)
	}
	return explore(e.cfg, entry, (*lifeState).key,
		func(blk *Block, in *lifeState) *lifeState {
			st := in.clone()
			e.blk = blk
			for _, n := range blk.Nodes {
				e.transfer(n, st)
			}
			if len(blk.Succs) == 0 {
				e.finish(blk, st)
			}
			return st
		}, e.cross)
}

// observef records an observer finding, once per position.
func (e *lifeEngine) observef(pos token.Pos, format string, args ...any) {
	if !e.reported[pos] {
		e.reported[pos] = true
		addf(&e.res.observed, pos, format, args...)
	}
}

// edge records one lock-order edge, once.
func (e *lifeEngine) edge(l lockEdge) {
	if e.edgeSeen == nil {
		e.edgeSeen = make(map[lockEdge]bool)
	}
	if !e.edgeSeen[l] {
		e.edgeSeen[l] = true
		e.res.edges = append(e.res.edges, l)
	}
}

// transfer applies one node's effects to the state.
func (e *lifeEngine) transfer(n ast.Node, st *lifeState) {
	for _, observe := range e.spec.observers {
		observe(e, n, st)
	}
	if d, ok := n.(*ast.DeferStmt); ok {
		e.deferNode(d, st)
	} else {
		e.applyCalls(n, st)
	}
}

// applyCalls classifies every call inside the node (skipping function
// literals, which run later) and applies the events in lexical order.
func (e *lifeEngine) applyCalls(n ast.Node, st *lifeState) {
	inspectNode(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		ev, ok := e.spec.classify(e.pkg, e.sum.Key, call)
		if !ok {
			return true
		}
		e.commitPend(st)
		switch {
		case ev.op == lifeClose:
			st.closeRes(ev.res)
		case ev.guarded:
			st.pend = &pending{ev: ev, call: call}
		default:
			e.open(st, ev, call)
		}
		return true
	})
}

// open records a taken open on the path.
func (e *lifeEngine) open(st *lifeState, ev lifeEvent, call *ast.CallExpr) {
	st.openAt(ev.res, ev.class, call.Pos(), call)
	st.step(fmt.Sprintf("%s at %s", ev.what, e.posStr(call.Pos())))
}

// commitPend commits an unresolved guarded open as taken.
func (e *lifeEngine) commitPend(st *lifeState) {
	if p := st.pend; p != nil {
		st.pend = nil
		e.open(st, p.ev, p.call)
	}
}

// deferNode pushes the close effects of a deferred call (or deferred
// closure body) onto the path's defer stack.
func (e *lifeEngine) deferNode(d *ast.DeferStmt, st *lifeState) {
	record := func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if ev, ok := e.spec.classify(e.pkg, e.sum.Key, call); ok && ev.op == lifeClose {
				st.defers = append(st.defers, ev.res)
			}
		}
		return true
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, record)
		return
	}
	record(d.Call)
}

// cross clones the state across one edge, resolving any pending
// guarded open against the branch condition and marking error paths.
func (e *lifeEngine) cross(st *lifeState, edge *Edge) *lifeState {
	ns := st.clone()
	if p := ns.pend; p != nil {
		if guardFailed(edge, p.call) {
			ns.step(fmt.Sprintf("%s failed at %s", p.ev.what, e.posStr(p.call.Pos())))
			ns.pend = nil
		} else {
			// The success edge, or a branch on something else: the
			// open is taken.
			e.commitPend(ns)
		}
	}
	if edge.Cond != nil && !ns.err {
		if errCondSense(e.pkg.Info, edge.Cond, edge.TakenTrue) > 0 {
			ns.err = true
			if op := errCondOperand(e.pkg.Info, edge.Cond); op != nil {
				ns.step(fmt.Sprintf("%s != nil at %s", exprString(op), e.posStr(edge.Cond.Pos())))
			}
		}
	}
	return ns
}

// guardFailed reports whether edge is the failure edge of a branch
// whose condition is call itself: the false edge of `if vm.claim(...)`,
// the true edge of `if !vm.claim(...)`.
func guardFailed(edge *Edge, call *ast.CallExpr) bool {
	if edge.Cond == nil {
		return false
	}
	cond := ast.Unparen(edge.Cond)
	taken := edge.TakenTrue
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, taken = ast.Unparen(u.X), !taken
	}
	return cond == call && !taken
}

// finish runs the leak check at one exit block.
func (e *lifeEngine) finish(blk *Block, st *lifeState) {
	e.commitPend(st)
	for _, res := range st.defers {
		st.closeRes(res)
	}
	if blk.Panics {
		return
	}
	exitPos := e.fn.End()
	exitDesc := "function exit"
	if blk.Return != nil {
		exitPos = blk.Return.Pos()
		exitDesc = "return"
	}
	errExit := st.err || e.returnsError(blk.Return)
	for _, o := range st.open {
		if o.n <= 0 || e.reported[o.pos] {
			continue
		}
		if slices.Contains(e.spec.contract(e.sum, e.fn), o.res) {
			continue // the contract
		}
		e.reported[o.pos] = true
		pathKind := "a path"
		if errExit {
			pathKind = "an error path"
		}
		path := strings.Join(append(append([]string(nil), st.steps...),
			exitDesc+" at "+e.posStr(exitPos)), " -> ")
		addf(&e.res.leaks, o.pos,
			"%s on %s taken at %s %s on %s ending at the %s at %s; path: %s",
			e.spec.kind, o.res, e.posStr(o.pos), e.spec.leakVerb,
			pathKind, exitDesc, e.posStr(exitPos), path)
	}
}

// returnsError reports whether the return statement yields a non-nil
// error-typed result.
func (e *lifeEngine) returnsError(ret *ast.ReturnStmt) bool {
	if ret == nil {
		return false
	}
	for _, r := range ret.Results {
		if isNilIdent(r) {
			continue
		}
		if t := e.pkg.Info.TypeOf(r); t != nil && isErrorType(t) {
			return true
		}
	}
	return false
}
