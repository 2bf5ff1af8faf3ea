package analyzers

// CFG construction tests: pure graph shape, independent of any
// analyzer. Structure-only cases parse a bare function; the error-guard
// classification cases type-check through the offline loader because
// errCondSense needs types.Info.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFuncCFG builds the CFG of `func f() { <body> }`.
func parseFuncCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc f(a, b bool, ch chan int, x int) {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	cfg := NewCFG(file.Decls[0].(*ast.FuncDecl))
	if cfg == nil {
		t.Fatal("NewCFG returned nil for a function with a body")
	}
	return cfg
}

// findBlock returns the unique block containing a node matching pred.
func findBlock(t *testing.T, c *CFG, what string, pred func(ast.Node) bool) *Block {
	t.Helper()
	var found *Block
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if pred(n) {
				if found != nil && found != blk {
					t.Fatalf("%s: found in blocks %d and %d", what, found.ID, blk.ID)
				}
				found = blk
			}
		}
	}
	if found == nil {
		t.Fatalf("%s: no block contains it", what)
	}
	return found
}

func isBranch(tok token.Token, label string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		br, ok := n.(*ast.BranchStmt)
		if !ok || br.Tok != tok {
			return false
		}
		got := ""
		if br.Label != nil {
			got = br.Label.Name
		}
		return got == label
	}
}

func isAssignTo(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == name
	}
}

func onlySucc(t *testing.T, blk *Block) *Block {
	t.Helper()
	if len(blk.Succs) != 1 {
		t.Fatalf("block %d: want 1 successor, got %d", blk.ID, len(blk.Succs))
	}
	return blk.Succs[0].To
}

func TestCFGLinearFalls(t *testing.T) {
	cfg := parseFuncCFG(t, "x = 1\nx = 2")
	if len(cfg.Entry.Succs) != 0 || !cfg.Entry.Falls {
		t.Fatalf("straight-line body: entry should fall off the end with no successors")
	}
	if exits := cfg.Exits(); len(exits) != 1 || exits[0] != cfg.Entry {
		t.Fatalf("want the entry as the only exit, got %d exits", len(exits))
	}
}

func TestCFGIfEdgesAndExits(t *testing.T) {
	cfg := parseFuncCFG(t, `if a {
	return
}
x = 1`)
	if len(cfg.Entry.Succs) != 2 {
		t.Fatalf("if: want 2 edges out of the condition block, got %d", len(cfg.Entry.Succs))
	}
	for _, e := range cfg.Entry.Succs {
		if e.Cond == nil {
			t.Fatalf("if edge to block %d lost its condition", e.To.ID)
		}
		if e.TakenTrue && e.To.Return == nil {
			t.Errorf("true edge should reach the return block, got block %d", e.To.ID)
		}
	}
	exits := cfg.Exits()
	if len(exits) != 2 {
		t.Fatalf("want 2 exits (return + fall-off), got %d", len(exits))
	}
}

func TestCFGPanicExit(t *testing.T) {
	cfg := parseFuncCFG(t, `if a {
	panic("boom")
}
x = 1`)
	var panics int
	for _, blk := range cfg.Exits() {
		if blk.Panics {
			panics++
			if blk.Return != nil || blk.Falls {
				t.Errorf("panic block %d also marked Return/Falls", blk.ID)
			}
		}
	}
	if panics != 1 {
		t.Fatalf("want exactly one panic exit, got %d", panics)
	}
}

// TestCFGDeferOrdering: defers stay inside their block as ordinary
// nodes, in source order — the engine stacks their effects, so the
// block must present them in execution (= push) order.
func TestCFGDeferOrdering(t *testing.T) {
	cfg := parseFuncCFG(t, "defer one()\nx = 1\ndefer two()")
	if len(cfg.Blocks) != 1 {
		t.Fatalf("defers must not split blocks: got %d blocks", len(cfg.Blocks))
	}
	var order []string
	for _, n := range cfg.Entry.Nodes {
		if d, ok := n.(*ast.DeferStmt); ok {
			order = append(order, d.Call.Fun.(*ast.Ident).Name)
		}
	}
	if len(order) != 2 || order[0] != "one" || order[1] != "two" {
		t.Fatalf("want defers [one two] in source order, got %v", order)
	}
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	cfg := parseFuncCFG(t, `outer:
for x = 0; a; x++ {
	for {
		if a {
			break outer
		}
		if b {
			continue outer
		}
		break
	}
}
x = 9`)
	// Two assignments to x exist (loop init and after); the after block
	// is the one holding `x = 9`.
	after := findBlock(t, cfg, "x = 9", func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		lit, ok := as.Rhs[0].(*ast.BasicLit)
		return ok && lit.Value == "9"
	})
	post := findBlock(t, cfg, "outer's post block", func(n ast.Node) bool {
		_, ok := n.(*ast.IncDecStmt)
		return ok
	})

	brkOuter := findBlock(t, cfg, "break outer", isBranch(token.BREAK, "outer"))
	if got := onlySucc(t, brkOuter); got != after {
		t.Errorf("break outer: want edge to the after block %d, got %d", after.ID, got.ID)
	}
	contOuter := findBlock(t, cfg, "continue outer", isBranch(token.CONTINUE, "outer"))
	if got := onlySucc(t, contOuter); got != post {
		t.Errorf("continue outer: want edge to the post block %d, got %d", post.ID, got.ID)
	}
	// The unlabeled break leaves the inner loop, not the outer one.
	brkInner := findBlock(t, cfg, "bare break", isBranch(token.BREAK, ""))
	if got := onlySucc(t, brkInner); got == after {
		t.Errorf("bare break must target the inner loop's after block, not outer's")
	}
}

// TestCFGSelectDefault: a select's default case is just another arm —
// there must be no entry→after shortcut edge, unlike a switch without
// a default.
func TestCFGSelectDefault(t *testing.T) {
	cfg := parseFuncCFG(t, `select {
case <-ch:
	x = 1
default:
	x = 2
}
x = 3`)
	after := findBlock(t, cfg, "select's after block", func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		lit, ok := as.Rhs[0].(*ast.BasicLit)
		return ok && lit.Value == "3"
	})
	if len(cfg.Entry.Succs) != 2 {
		t.Fatalf("select with 2 arms: want 2 edges out of the entry, got %d", len(cfg.Entry.Succs))
	}
	for _, e := range cfg.Entry.Succs {
		if e.To == after {
			t.Fatalf("select must not have an entry→after shortcut: every path runs an arm")
		}
	}
	// Switch without default DOES keep the shortcut.
	cfg2 := parseFuncCFG(t, `switch x {
case 1:
	x = 1
}
x = 3`)
	shortcut := false
	for _, e := range cfg2.Entry.Succs {
		if e.To.Nodes == nil && len(e.To.Succs) == 0 {
			continue
		}
		for _, n := range e.To.Nodes {
			if isAssignTo("x")(n) {
				if as := n.(*ast.AssignStmt); as.Rhs[0].(*ast.BasicLit).Value == "3" {
					shortcut = true
				}
			}
		}
	}
	if !shortcut {
		t.Errorf("switch without default: want an entry edge bypassing the cases")
	}
}

// TestCFGErrCondSense: nested error guards classify by edge direction,
// through the type-checked loader.
func TestCFGErrCondSense(t *testing.T) {
	src := `package guards

func f(a, b error, x int) int {
	if a != nil {
		if b == nil {
			return 1
		}
		return 2
	}
	if x > 0 {
		return 3
	}
	return 4
}
`
	pkgs, err := LoadDirs(writeModule(t, map[string]string{"guards/guards.go": src}), "guards")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	pkg := pkgs[0]
	var fd *ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if x, ok := d.(*ast.FuncDecl); ok && x.Name.Name == "f" {
				fd = x
			}
		}
	}
	cfg := NewCFG(fd)
	// sense[cond text][takenTrue] from every conditional edge.
	sense := map[string]map[bool]int{}
	operands := map[string]string{}
	for _, blk := range cfg.Blocks {
		for _, e := range blk.Succs {
			if e.Cond == nil {
				continue
			}
			s := types.ExprString(e.Cond)
			if sense[s] == nil {
				sense[s] = map[bool]int{}
			}
			sense[s][e.TakenTrue] = errCondSense(pkg.Info, e.Cond, e.TakenTrue)
			if op := errCondOperand(pkg.Info, e.Cond); op != nil {
				operands[s] = exprString(op)
			}
		}
	}
	check := func(cond string, onTrue, onFalse int) {
		t.Helper()
		m, ok := sense[cond]
		if !ok {
			t.Fatalf("no conditional edges recorded for %q (have %v)", cond, sense)
		}
		if m[true] != onTrue || m[false] != onFalse {
			t.Errorf("%q: want sense true=%+d false=%+d, got true=%+d false=%+d",
				cond, onTrue, onFalse, m[true], m[false])
		}
	}
	check("a != nil", +1, -1) // true edge is the error side
	check("b == nil", -1, +1) // inverted comparison inverts the sides
	check("x > 0", 0, 0)      // not an error guard at all
	if operands["a != nil"] != "a" || operands["b == nil"] != "b" {
		t.Errorf("errCondOperand: want a/b, got %q/%q", operands["a != nil"], operands["b == nil"])
	}
	if op := errCondOperand(pkg.Info, fd.Body.List[1].(*ast.IfStmt).Cond); op != nil {
		t.Errorf("x > 0 has no error operand, got %q", exprString(op))
	}
}
