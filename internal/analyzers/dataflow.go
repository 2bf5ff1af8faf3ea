package analyzers

// dataflow.go holds the package's one worklist (explore) and the
// lifecycle engine built on it. explore enumerates the distinct
// abstract states of a function over its CFG (cfg.go); the summary
// builder in interproc.go runs it over held-lock sets, and the
// lifecycle engine runs it over paired resources: each state is the
// multiset of currently-open resources, the stack of deferred close
// effects, and whether the path has crossed an `err != nil` guard.
// Every branch outcome stays separate and carries a human-readable
// trace, so a diagnostic can print the concrete leaking path.
//
// Three lifecycle specs exist — locks and snapshot handles (errpath.go),
// DMA claims (claimlife.go), pins (pinbalance.go). Each is explored
// once per Program and cached on it (Program.lifecycle); a spec yields
// leak findings at function exits and, through its observer, findings
// about what happens while a resource is open: lockhold reads the lock
// spec's observer (blocking while a lock is held), claimdiscipline the
// claim spec's (published while a claim is open).
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
// Ownership semantics shared by all passes:
//
//   - Conditional acquisition: an open whose call reports success by
//     error (`if err := st.Pin(); err != nil`) or bool (`if
//     !vm.claim(...)`) commits only on the success edge of the guard;
//     the failure edge drops it. An open whose result is never
//     branched on commits unconditionally.
//   - Handoff: a resource stored into a composite literal, assigned,
//     sent, returned, captured by a closure, or passed to a callee the
//     loader cannot see transfers ownership and stops being tracked.
//     Passing it bare to a *resolvable* callee is transparent — unless
//     the callee transitively performs one of the pass's closing
//     operations (Program.TransResOps), in which case it counts as the
//     release, at any call depth. Locks are exempt: a mutex is not a
//     value, so mentioning it (&x.mu, a capturing closure) moves nothing.
//   - defer: deferred close effects accumulate per path and apply at
//     every exit before the leak check, modeling Go's defer-at-return.
//   - Panic exits are exempt: a panicking path is already lost.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// condKind says how an open call signals success.
type condKind int

const (
	condAlways   condKind = iota // open is unconditional
	condErrNil                   // open succeeded iff the returned error is nil
	condBoolTrue                 // open succeeded iff the returned bool is true
)

// lifeOp is the effect of one classified call.
type lifeOp int

const (
	lifeOpen lifeOp = iota
	lifeClose
)

// lifeEvent is one classified resource operation. An open with
// res == "" binds to the assignment target of its call (handle-style
// acquisitions like `snap := h.Snapshot()`). kind overrides the
// spec-level resource noun in diagnostics ("snapshot" vs "lock").
type lifeEvent struct {
	op   lifeOp
	res  string
	cond condKind
	what string // rendered call, for the path trace
	kind string
}

// lifeSpec configures one lifecycle pass over the shared engine.
type lifeSpec struct {
	name string
	// kind is the resource noun used in diagnostics ("pin", "claim",
	// "lock").
	kind string
	// leakVerb completes "<kind> on <res> taken at <pos> <leakVerb>".
	leakVerb string
	// classify maps one call to its resource events (nil for none).
	classify func(e *lifeEngine, call *ast.CallExpr) []lifeEvent
	// closers are callee names that count as the closing operation when
	// a tracked resource is passed to a callee reaching one transitively.
	closers map[string]bool
	// entryOpen lists resources the function's doc contract declares
	// open on entry (errpath's "Requires mu held").
	entryOpen func(e *lifeEngine) []string
	// exitAllowed licenses leaving the function with res still open
	// (entry-held locks without a release contract, "pins it" docs).
	exitAllowed func(e *lifeEngine, res string) bool
	// observe, when set, sees every node with the state in force before
	// the node's own effects; it reports through e.observef.
	observe func(e *lifeEngine, n ast.Node, st *lifeState)
}

// lifeFinding is one diagnostic of a lifecycle exploration, held until
// the analyzer that owns it reports it.
type lifeFinding struct {
	pos token.Pos
	msg string
}

// lifeResult is what one spec found over the whole program: resources
// still open at an exit, and what its observer saw on the way.
type lifeResult struct {
	leaks, observed []lifeFinding
}

// truncation names one exploration that a bound cut short.
type truncation struct {
	spec string
	fn   FuncKey
}

// lifecycle explores spec over every declared function body, once per
// Program.
func (p *Program) lifecycle(spec *lifeSpec) *lifeResult {
	if r, ok := p.life[spec]; ok {
		return r
	}
	r := &lifeResult{}
	p.life[spec] = r
	for _, k := range p.Order {
		sum := p.Funcs[k]
		if sum.Decl == nil {
			continue
		}
		e := &lifeEngine{
			res:      r,
			spec:     spec,
			prog:     p,
			pkg:      sum.Pkg,
			sum:      sum,
			cfg:      p.FuncCFG(k),
			reported: make(map[token.Pos]bool),
		}
		if !e.run() {
			p.truncated = append(p.truncated, truncation{spec.name, k})
		}
	}
	return r
}

// reportFindings hands a lifecycle exploration's findings to the
// analyzer that owns them.
func reportFindings(pass *ProjectPass, fs []lifeFinding) error {
	for _, f := range fs {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
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
	res  string
	n    int
	pos  token.Pos
	call *ast.CallExpr
	what string
	kind string
}

// pending is a conditional open awaiting its guard edge.
type pending struct {
	ev   lifeEvent
	call *ast.CallExpr
	obj  types.Object // err/ok variable the call's result was bound to
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

func (st *lifeState) openAt(res, what, kind string, pos token.Pos, call *ast.CallExpr) {
	i := sort.Search(len(st.open), func(i int) bool { return st.open[i].res >= res })
	if i < len(st.open) && st.open[i].res == res {
		if st.open[i].n < maxOpenCount {
			st.open[i].n++
		}
		return
	}
	st.open = append(st.open, openRes{})
	copy(st.open[i+1:], st.open[i:])
	st.open[i] = openRes{res: res, n: 1, pos: pos, call: call, what: what, kind: kind}
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

// movable reports whether res is open and a value whose ownership a
// hand-off can transfer. A lock is not: storing &x.mu or capturing x.mu
// in a closure leaves it held by this path.
func (st *lifeState) movable(res string) bool {
	o := st.held(res)
	return o != nil && o.kind != lockKind
}

func (st *lifeState) step(s string) {
	if len(st.steps) < maxTraceSteps {
		st.steps = append(st.steps, s)
	}
}

// lifeEngine explores one function for one spec.
type lifeEngine struct {
	res  *lifeResult
	spec *lifeSpec
	prog *Program
	pkg  *Package
	sum  *Summary
	cfg  *CFG
	blk  *Block // the block being visited

	reported map[token.Pos]bool // one report per open site or observed position
}

func (e *lifeEngine) posStr(pos token.Pos) string {
	p := e.pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
}

// run explores the function; false means a bound cut it short.
func (e *lifeEngine) run() bool {
	entry := &lifeState{}
	if e.spec.entryOpen != nil {
		for _, res := range e.spec.entryOpen(e) {
			entry.openAt(res, "held on entry", e.spec.kind, e.cfg.Decl.Pos(), nil)
		}
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
		e.res.observed = append(e.res.observed, lifeFinding{pos, fmt.Sprintf(format, args...)})
	}
}

// transfer applies one node's effects to the state.
func (e *lifeEngine) transfer(n ast.Node, st *lifeState) {
	if e.spec.observe != nil {
		e.spec.observe(e, n, st)
	}
	if d, ok := n.(*ast.DeferStmt); ok {
		e.deferNode(d, st)
		return
	}
	classified := e.applyCalls(n, st)
	e.scanEscapes(n, st, classified)
}

// applyCalls classifies every call inside the node (skipping function
// literals, which run later) and applies the events in lexical order.
// It returns, per call, the resources it was classified against, so
// the escape scan does not double-count their argument mentions.
func (e *lifeEngine) applyCalls(n ast.Node, st *lifeState) map[*ast.CallExpr]map[string]bool {
	classified := make(map[*ast.CallExpr]map[string]bool)
	inspectNode(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, ev := range e.spec.classify(e, call) {
			if ev.res == "" {
				// Handle-style open: bind to the assignment target.
				ev.res = exprString(call)
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 &&
					ast.Unparen(as.Rhs[0]) == call && len(as.Lhs) >= 1 {
					ev.res = exprString(as.Lhs[0])
				}
			}
			m := classified[call]
			if m == nil {
				m = make(map[string]bool)
				classified[call] = m
			}
			m[ev.res] = true
			if ev.kind == "" {
				ev.kind = e.spec.kind
			}
			switch ev.op {
			case lifeOpen:
				e.commitPend(st)
				if ev.cond == condAlways {
					st.openAt(ev.res, ev.what, ev.kind, call.Pos(), call)
					st.step(fmt.Sprintf("%s at %s", ev.what, e.posStr(call.Pos())))
					continue
				}
				p := &pending{ev: ev, call: call}
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 &&
					ast.Unparen(as.Rhs[0]) == call && len(as.Lhs) >= 1 {
					if id, ok := as.Lhs[0].(*ast.Ident); ok {
						if o := e.pkg.Info.Defs[id]; o != nil {
							p.obj = o
						} else {
							p.obj = e.pkg.Info.Uses[id]
						}
					}
				}
				st.pend = p
			case lifeClose:
				e.commitPend(st)
				st.closeRes(ev.res)
			}
		}
		return true
	})
	return classified
}

// commitPend commits an unresolved conditional open as taken.
func (e *lifeEngine) commitPend(st *lifeState) {
	if st.pend == nil {
		return
	}
	p := st.pend
	st.pend = nil
	st.openAt(p.ev.res, p.ev.what, p.ev.kind, p.call.Pos(), p.call)
	st.step(fmt.Sprintf("%s at %s", p.ev.what, e.posStr(p.call.Pos())))
}

// deferNode pushes the close effects of a deferred call (or deferred
// closure body) onto the path's defer stack.
func (e *lifeEngine) deferNode(d *ast.DeferStmt, st *lifeState) {
	record := func(call *ast.CallExpr) {
		for _, ev := range e.spec.classify(e, call) {
			if ev.op == lifeClose && ev.res != "" {
				st.defers = append(st.defers, ev.res)
			}
		}
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
		return
	}
	record(d.Call)
	// The deferred call's arguments evaluate now; a tracked resource
	// handed to it escapes like any other call argument.
	for _, a := range d.Call.Args {
		e.escapeArg(a, d.Call, st, nil)
	}
}

// scanEscapes releases tracked resources the node hands off: stored,
// sent, returned, captured, or passed to calls (see escapeArg).
func (e *lifeEngine) scanEscapes(n ast.Node, st *lifeState, classified map[*ast.CallExpr]map[string]bool) {
	inspectNode(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			e.escapeCaptures(x, st)
			return false
		case *ast.CallExpr:
			for _, a := range x.Args {
				e.escapeArg(a, x, st, classified[x])
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				e.escapeValue(r, st, "stored")
			}
		case *ast.SendStmt:
			e.escapeValue(x.Value, st, "sent")
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				e.escapeValue(r, st, "returned")
			}
		}
		return true
	})
}

// escapeArg handles one call argument. A tracked resource nested in a
// composite literal is being stored and escapes outright; passed bare,
// it escapes only when the callee is opaque — a resolvable callee is
// transparent unless it transitively reaches a closing operation, in
// which case the call is the release ("balanced at any call depth").
func (e *lifeEngine) escapeArg(a ast.Expr, call *ast.CallExpr, st *lifeState, skip map[string]bool) {
	bare := exprString(ast.Unparen(a))
	if st.movable(bare) && !skip[bare] {
		if key, ok := e.calleeKey(call); ok {
			if e.calleeCloses(key) {
				st.closeRes(bare)
				st.step(fmt.Sprintf("%s released by %s at %s", bare, key.String(), e.posStr(call.Pos())))
			}
			// Transparent callee: still tracked.
			return
		}
		st.closeRes(bare)
		st.step(fmt.Sprintf("%s handed off at %s", bare, e.posStr(call.Pos())))
		return
	}
	// Nested mentions (composite literals, &x) are stores.
	e.escapeNested(a, st)
}

// escapeValue releases a resource appearing as a complete value in a
// store-like position (assignment RHS, send, return).
func (e *lifeEngine) escapeValue(v ast.Expr, st *lifeState, how string) {
	bare := exprString(ast.Unparen(v))
	if st.movable(bare) {
		st.closeRes(bare)
		st.step(fmt.Sprintf("%s %s at %s", bare, how, e.posStr(v.Pos())))
		return
	}
	e.escapeNested(v, st)
}

// escapeNested finds tracked resources used as values inside composite
// literals and address-of expressions.
func (e *lifeEngine) escapeNested(v ast.Expr, st *lifeState) {
	switch v := ast.Unparen(v).(type) {
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			e.escapeValue(el, st, "stored")
		}
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			e.escapeValue(v.X, st, "stored")
		}
	}
}

// escapeCaptures releases resources a closure captures: the closure
// may run at any time, so ownership leaves this path.
func (e *lifeEngine) escapeCaptures(lit *ast.FuncLit, st *lifeState) {
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		ex, ok := x.(ast.Expr)
		if !ok {
			return true
		}
		if s := exprString(ex); st.movable(s) {
			st.closeRes(s)
			st.step(fmt.Sprintf("%s captured by closure at %s", s, e.posStr(lit.Pos())))
		}
		return true
	})
}

// calleeKey resolves the call's static target to a summarized function.
func (e *lifeEngine) calleeKey(call *ast.CallExpr) (FuncKey, bool) {
	fn := calleeFunc(e.pkg.Info, call)
	if fn == nil {
		return FuncKey{}, false
	}
	key, ok := keyOf(fn)
	if !ok {
		return FuncKey{}, false
	}
	if e.prog.Funcs[key] == nil {
		return FuncKey{}, false
	}
	return key, true
}

// calleeCloses reports whether the callee transitively performs one of
// the spec's closing operations.
func (e *lifeEngine) calleeCloses(key FuncKey) bool {
	for op := range e.prog.TransResOps(key) {
		if e.spec.closers[op] {
			return true
		}
	}
	return false
}

// cross clones the state across one edge, resolving any pending
// conditional open against the branch condition and marking error
// paths.
func (e *lifeEngine) cross(st *lifeState, edge *Edge) *lifeState {
	ns := st.clone()
	if ns.pend != nil {
		switch e.pendOutcome(edge, ns.pend) {
		case 1:
			e.commitPend(ns)
		case -1:
			ns.step(fmt.Sprintf("%s failed at %s", ns.pend.ev.what, e.posStr(ns.pend.call.Pos())))
			ns.pend = nil
		default:
			// The guard is unrelated (or the edge unconditional): the
			// result was not branched on — treat the open as taken.
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

// pendOutcome decides whether taking edge means the pending open's
// call succeeded (+1), failed (-1), or is unrelated to the guard (0).
func (e *lifeEngine) pendOutcome(edge *Edge, p *pending) int {
	if edge.Cond == nil {
		return 0
	}
	cond := ast.Unparen(edge.Cond)
	taken := edge.TakenTrue
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond = ast.Unparen(u.X)
		taken = !taken
	}
	// `if vm.claim(...)` / `if !vm.claim(...)`: the call is the guard.
	if call, ok := cond.(*ast.CallExpr); ok && call == p.call && p.ev.cond == condBoolTrue {
		if taken {
			return 1
		}
		return -1
	}
	// `ok := vm.claim(...); if ok` — the bound bool is the guard.
	if id, ok := cond.(*ast.Ident); ok && p.obj != nil && p.ev.cond == condBoolTrue {
		if e.pkg.Info.Uses[id] == p.obj {
			if taken {
				return 1
			}
			return -1
		}
	}
	// `if err := st.Pin(); err != nil` — the bound error is the guard —
	// or `if st.Pin() != nil` with the call as the compared operand.
	if p.ev.cond == condErrNil {
		if op := errCondOperand(e.pkg.Info, edge.Cond); op != nil {
			matches := ast.Unparen(op) == p.call
			if id, ok := ast.Unparen(op).(*ast.Ident); ok && p.obj != nil {
				matches = e.pkg.Info.Uses[id] == p.obj
			}
			if matches {
				if errCondSense(e.pkg.Info, edge.Cond, edge.TakenTrue) > 0 {
					return -1 // error side: the open failed
				}
				return 1
			}
		}
	}
	return 0
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
	exitPos := e.cfg.Decl.End()
	exitDesc := "function exit"
	if blk.Return != nil {
		exitPos = blk.Return.Pos()
		exitDesc = "return"
	}
	errExit := st.err || e.returnsError(blk.Return)
	for _, o := range st.open {
		if o.n <= 0 {
			continue
		}
		if e.spec.exitAllowed != nil && e.spec.exitAllowed(e, o.res) {
			continue
		}
		if e.reported[o.pos] {
			continue
		}
		e.reported[o.pos] = true
		pathKind := "a path"
		if errExit {
			pathKind = "an error path"
		}
		path := strings.Join(append(append([]string(nil), st.steps...),
			exitDesc+" at "+e.posStr(exitPos)), " -> ")
		origin := "taken at " + e.posStr(o.pos)
		if o.call == nil {
			origin = o.what // held on entry
		}
		e.res.leaks = append(e.res.leaks, lifeFinding{o.pos, fmt.Sprintf(
			"%s on %s %s %s on %s ending at the %s at %s; path: %s",
			o.kind, o.res, origin, e.spec.leakVerb,
			pathKind, exitDesc, e.posStr(exitPos), path)})
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
