package analyzers

// cfg.go builds control-flow graphs from the AST and is the only code
// in the package that knows Go's statement semantics: every pass that
// needs to follow control flow reads the lifecycle explorations
// (dataflow.go), which walk these graphs — one per body they explore,
// declared or literal, cached on the Program — so a new Go
// construct is taught here once. The interprocedural summaries
// (interproc.go) follow no control flow and need none. A CFG keeps
// every path distinct, so "the error return at line N leaks the pin
// taken at line M" becomes a provable — and printable — fact.
//
// Shape:
//
//   - A Block is a maximal straight-line run of statements/expressions
//     (ast.Node slice, in execution order). DeferStmt nodes stay inside
//     their block; the dataflow engine stacks their effects and applies
//     them on function exit, which models Go's defer-runs-at-return
//     semantics without exploding the graph.
//   - Compound statements are dissolved into blocks and edges; their
//     parts (conditions, tags, case expressions, comm statements)
//     appear as nodes of their own. Two compound statements also
//     appear as marker nodes, because they act at a point of their own:
//     a *ast.RangeStmt in its loop header stands for one iteration step
//     (a receive, when ranging over a channel), and a *ast.SelectStmt
//     in the block that enters it stands for the wait itself. Walk
//     nodes with inspectNode, which treats the markers as leaves.
//   - An Edge carries the branch condition it was taken under (Cond +
//     TakenTrue), so a consumer can classify `if err != nil` guards and
//     resolve conditional acquisitions (`if err := st.Pin(); err != nil`
//     pins only on the false edge, `if !vm.claim(...)` claims only on
//     the false edge of the negation).
//   - Exits are blocks with no successors: an explicit return (Return
//     set), a panic (Panics set), or falling off the end of the body
//     (Falls set). Branch statements (break/continue/goto) terminate
//     their block with an edge to the target, so unreachable trailing
//     code lands in predecessor-less blocks the engine never visits.
//
// Construction is purely syntactic and deterministic: blocks are
// numbered in creation order and successor edges keep insertion order,
// which makes the engine's breadth-first path enumeration (and hence
// every printed leak path) stable run-to-run.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CFG is the control-flow graph of one function body, declared or
// literal.
type CFG struct {
	Blocks []*Block
	Entry  *Block
}

// Block is one straight-line region.
type Block struct {
	ID    int
	Nodes []ast.Node // statements and control expressions, in order
	Succs []*Edge

	// Comm is set on the first block of a select arm: Nodes[0] is the
	// arm's communication, which the select already waited for.
	Comm ast.Stmt

	Return *ast.ReturnStmt // set when the block ends in an explicit return
	Panics bool            // ends in a call to the panic builtin
	Falls  bool            // function body falls off the end here
}

// Edge is one control transfer. Cond is the governing branch condition
// (nil for unconditional transfers); TakenTrue tells which way the
// condition went on this edge.
type Edge struct {
	From, To  *Block
	Cond      ast.Expr
	TakenTrue bool
}

// NewCFG builds the graph for one function body, declared or literal.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, gotos: make(map[string]*Block)}
	b.cfg.Entry = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.cur.Falls = true
	}
	return b.cfg
}

// inspectNode walks one block node like ast.Inspect, except that the
// RangeStmt and SelectStmt markers are leaves: their operands, arms and
// bodies are nodes of other blocks.
func inspectNode(n ast.Node, f func(ast.Node) bool) {
	switch n.(type) {
	case *ast.RangeStmt, *ast.SelectStmt:
		f(n)
		return
	}
	ast.Inspect(n, f)
}

// Exits returns the blocks where execution leaves the function, in
// block order.
func (c *CFG) Exits() []*Block {
	var out []*Block
	for _, b := range c.Blocks {
		if len(b.Succs) == 0 && (b.Return != nil || b.Panics || b.Falls) {
			out = append(out, b)
		}
	}
	return out
}

// cfgFrame is one enclosing breakable construct (loop, switch, select).
// cont is nil for non-loops.
type cfgFrame struct {
	label     string
	brk, cont *Block
	isLoop    bool
}

type cfgBuilder struct {
	cfg   *CFG
	cur   *Block // nil when the current path has terminated
	stack []cfgFrame
	gotos map[string]*Block // label → target block (created on demand)

	// pendingLabel names the LabeledStmt wrapping the construct about
	// to be visited, so `break L` / `continue L` can find its frame.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{ID: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, takenTrue bool) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, &Edge{From: from, To: to, Cond: cond, TakenTrue: takenTrue})
}

// add appends a node to the current block (creating an unreachable
// block for dead code after a terminator, which the engine ignores).
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// gotoTarget returns (creating if needed) the block a label jumps to.
func (b *cfgBuilder) gotoTarget(name string) *Block {
	if t, ok := b.gotos[name]; ok {
		return t
	}
	t := b.newBlock()
	b.gotos[name] = t
	return t
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		// The label is both a goto target and (for loops/switches) the
		// name break/continue resolve against.
		t := b.gotoTarget(s.Label.Name)
		b.edge(b.cur, t, nil, false)
		b.cur = t
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.cur.Return = s
		}
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			if b.cur != nil {
				b.cur.Panics = true
			}
			b.cur = nil
		}
	default:
		// Assign, Send, IncDec, Decl, Go, Defer, ...: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.GOTO:
		if s.Label != nil {
			b.edge(b.cur, b.gotoTarget(s.Label.Name), nil, false)
		}
	case token.BREAK, token.CONTINUE:
		want := ""
		if s.Label != nil {
			want = s.Label.Name
		}
		for i := len(b.stack) - 1; i >= 0; i-- {
			f := b.stack[i]
			if want != "" && f.label != want {
				continue
			}
			if s.Tok == token.CONTINUE && !f.isLoop {
				continue
			}
			if s.Tok == token.BREAK {
				b.edge(b.cur, f.brk, nil, false)
			} else {
				b.edge(b.cur, f.cont, nil, false)
			}
			break
		}
	case token.FALLTHROUGH:
		// Handled by switchStmt, which links case bodies directly.
		return
	}
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.takeLabel()
	b.stmt(s.Init)
	b.add(s.Cond)
	cond := b.cur
	after := b.newBlock()

	then := b.newBlock()
	b.edge(cond, then, s.Cond, true)
	b.cur = then
	b.stmts(s.Body.List)
	b.edge(b.cur, after, nil, false)

	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els, s.Cond, false)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after, nil, false)
	} else {
		b.edge(cond, after, s.Cond, false)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	b.stmt(s.Init)
	header := b.newBlock()
	b.edge(b.cur, header, nil, false)
	if s.Cond != nil {
		header.Nodes = append(header.Nodes, s.Cond)
	}

	body := b.newBlock()
	after := b.newBlock()
	if s.Cond != nil {
		b.edge(header, body, s.Cond, true)
		b.edge(header, after, s.Cond, false)
	} else {
		b.edge(header, body, nil, false)
	}

	cont := header
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, header, nil, false)
		cont = post
	}

	b.stack = append(b.stack, cfgFrame{label: label, brk: after, cont: cont, isLoop: true})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, cont, nil, false)
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	b.add(s.X)
	header := b.newBlock()
	header.Nodes = append(header.Nodes, s)
	b.edge(b.cur, header, nil, false)

	body := b.newBlock()
	after := b.newBlock()
	b.edge(header, body, nil, false)
	b.edge(header, after, nil, false)

	b.stack = append(b.stack, cfgFrame{label: label, brk: after, cont: header, isLoop: true})
	b.cur = body
	b.stmts(s.Body.List)
	b.edge(b.cur, header, nil, false)
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	b.stmt(s.Init)
	if s.Tag != nil {
		b.add(s.Tag)
	}
	entry := b.cur
	if entry == nil {
		entry = b.newBlock()
		b.cur = entry
	}
	after := b.newBlock()
	b.stack = append(b.stack, cfgFrame{label: label, brk: after})

	// First pass: a block per case, so fallthrough can link forward.
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cb := b.newBlock()
		for _, e := range cc.List {
			cb.Nodes = append(cb.Nodes, e)
		}
		b.edge(entry, cb, nil, false)
		caseBlocks = append(caseBlocks, cb)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		b.edge(entry, after, nil, false)
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		b.stmts(cc.Body)
		if ft := endsInFallthrough(cc.Body); ft && i+1 < len(caseBlocks) {
			b.edge(b.cur, caseBlocks[i+1], nil, false)
			b.cur = nil
			continue
		}
		b.edge(b.cur, after, nil, false)
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	b.stmt(s.Init)
	b.add(s.Assign)
	entry := b.cur
	after := b.newBlock()
	b.stack = append(b.stack, cfgFrame{label: label, brk: after})
	hasDefault := false
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cb := b.newBlock()
		b.edge(entry, cb, nil, false)
		b.cur = cb
		b.stmts(cc.Body)
		b.edge(b.cur, after, nil, false)
	}
	if !hasDefault {
		b.edge(entry, after, nil, false)
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	b.add(s)
	entry := b.cur
	after := b.newBlock()
	b.stack = append(b.stack, cfgFrame{label: label, brk: after})
	// A select with cases always leaves through one of them (a default
	// case is just another arm), so no entry→after shortcut exists.
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock()
		if cc.Comm != nil {
			cb.Nodes = append(cb.Nodes, cc.Comm)
			cb.Comm = cc.Comm
		}
		b.edge(entry, cb, nil, false)
		b.cur = cb
		b.stmts(cc.Body)
		b.edge(b.cur, after, nil, false)
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// errCondSense classifies a branch condition as an error guard: +1 when
// taking the edge means "an error occurred" (`err != nil` true,
// `err == nil` false), -1 for the success side, 0 when the condition is
// not an error comparison. The engine uses it both to mark error paths
// for errpath and to resolve `if err := st.Pin(); err != nil`-style
// conditional acquisitions.
func errCondSense(info *types.Info, cond ast.Expr, takenTrue bool) int {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return 0
	}
	var operand ast.Expr
	switch {
	case isNilIdent(bin.Y):
		operand = bin.X
	case isNilIdent(bin.X):
		operand = bin.Y
	default:
		return 0
	}
	t := info.TypeOf(operand)
	if t == nil || !isErrorType(t) {
		return 0
	}
	// err != nil: true edge is the error side; err == nil: false edge.
	errSide := bin.Op == token.NEQ
	if takenTrue == errSide {
		return 1
	}
	return -1
}

// errCondOperand returns the error-typed operand of an error guard
// condition (`err` in `err != nil`), or nil.
func errCondOperand(info *types.Info, cond ast.Expr) ast.Expr {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil
	}
	var operand ast.Expr
	switch {
	case isNilIdent(bin.Y):
		operand = bin.X
	case isNilIdent(bin.X):
		operand = bin.Y
	default:
		return nil
	}
	if t := info.TypeOf(operand); t != nil && isErrorType(t) {
		return operand
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
