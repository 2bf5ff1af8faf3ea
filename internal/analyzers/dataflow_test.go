package analyzers

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// TestExploreReportsTruncation: a state space that never converges must
// come back as cut short, not as a completed enumeration.
func TestExploreReportsTruncation(t *testing.T) {
	cfg := parseFuncCFG(t, "for {\n}")
	visits := 0
	complete := explore(cfg, 0, strconv.Itoa,
		func(_ *Block, n int) int { visits++; return n },
		func(n int, _ *Edge) int { return n + 1 })
	if complete {
		t.Fatalf("explore reported a complete enumeration of an unbounded state space after %d visits", visits)
	}
	if complete := explore(cfg, 0, strconv.Itoa,
		func(_ *Block, n int) int { return n },
		func(n int, _ *Edge) int { return n }); !complete {
		t.Fatal("explore reported truncation on a one-state loop")
	}
}

// allExplorations builds the program and runs every exploration that
// has bounds: the lifecycle specs.
func allExplorations(pkgs []*Package) *Program {
	prog := BuildProgram(pkgs)
	for _, spec := range lifeSpecs {
		prog.lifecycle(spec)
	}
	return prog
}

var liveExplored struct {
	once sync.Once
	prog *Program
}

// liveProgram runs every exploration over the live tree, once per test
// binary.
func liveProgram(t *testing.T) *Program {
	t.Helper()
	pkgs := liveTree(t)
	liveExplored.once.Do(func() { liveExplored.prog = allExplorations(pkgs) })
	return liveExplored.prog
}

// projectFixtures are the fixtures of several packages, each with its
// packages in import order.
var projectFixtures = map[string][]string{
	"claimlife": {"claimword", "exec"},
	"taint":     {"clockutil", "internal/exec"},
}

// forEachProgram runs every exploration over each fixture under
// testdata/src and over the live tree, and hands each Program to check.
func forEachProgram(t *testing.T, check func(name string, prog *Program)) {
	t.Helper()
	root := filepath.Join("testdata", "src")
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		dir, rels := root, []string{ent.Name()}
		if project := projectFixtures[ent.Name()]; project != nil {
			dir, rels = filepath.Join(root, ent.Name()), project
		}
		pkgs, err := LoadDirs(dir, rels...)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", ent.Name(), err)
		}
		check(ent.Name(), allExplorations(pkgs))
	}
	check("live tree", liveProgram(t))
}

// TestNoTruncation: no exploration of the live tree or of any fixture
// hits maxBlockStates or maxPathVisits, so a clean lint run is a proof
// over every path and not the silence of a cap. The blocking-under-lock
// check in particular depends on complete exploration. It covers the
// bodies a spec explores; the ones it skips are proven silent, cap
// included, by TestSkippedBodiesAreSilent.
func TestNoTruncation(t *testing.T) {
	forEachProgram(t, func(name string, prog *Program) {
		t.Helper()
		for _, tr := range prog.truncated {
			t.Errorf("%s: %s exploration of %s was cut short by a bound", name, tr.spec, tr.fn)
		}
	})
}

// TestSkippedBodiesAreSilent is the skip rule's oracle: every body a
// spec passes over — no open of its own, nothing held on entry — is
// explored here in full anyway, on the live tree and on every fixture,
// and must record no leak, no observation, no lock-order edge and no
// truncation. Skipping it then changes nothing any pass reports.
func TestSkippedBodiesAreSilent(t *testing.T) {
	forEachProgram(t, func(name string, prog *Program) {
		t.Helper()
		for _, spec := range lifeSpecs {
			skipped := 0
			for _, k := range prog.Order {
				sum := prog.Funcs[k]
				for i := range sum.bodies {
					b := &sum.bodies[i]
					if spec.explores(sum, b) {
						continue
					}
					skipped++
					r := &lifeResult{}
					e := &lifeEngine{res: r, spec: spec, prog: prog, pkg: sum.Pkg, sum: sum,
						fn: b.fn, cfg: NewCFG(b.body), reported: make(map[token.Pos]bool)}
					if !e.run() {
						t.Errorf("%s: %s: skipped body of %s at %s was cut short by a bound",
							name, spec.kind, k, e.posStr(b.fn.Pos()))
					}
					if len(r.leaks)+len(r.observed)+len(r.edges) > 0 {
						t.Errorf("%s: %s: skipped body of %s at %s reports leaks %v, observations %v, edges %v",
							name, spec.kind, k, e.posStr(b.fn.Pos()), r.leaks, r.observed, r.edges)
					}
				}
			}
			if r := prog.lifecycle(spec); skipped+r.explored != r.bodies {
				t.Errorf("%s: %s: %d skipped + %d explored bodies, want %d", name, spec.kind, skipped, r.explored, r.bodies)
			}
		}
	})
}

// liveLockOrder is the live tree's class-level lock-order graph: it
// takes no lock while it holds another, at any call depth.
var liveLockOrder []string

// TestLiveCensus keeps the lifecycle passes honest about the code that
// exists. A spec whose every open in the live tree is licensed at exit
// can report nothing there, and a doc contract no live function
// declares licenses nothing; either one is code that guards nothing.
// Both halves use the passes' own classify and contract. The census
// also pins the live lock-order graph lockorder reads from the lock
// exploration, so an edge that appears or goes is a reviewed change.
func TestLiveCensus(t *testing.T) {
	prog := liveProgram(t)
	for _, spec := range lifeSpecs {
		opens, unlicensed := 0, 0
		for _, k := range prog.Order {
			sum := prog.Funcs[k]
			if sum.Decl == nil {
				continue
			}
			contract := spec.contract(sum, sum.Decl)
			ast.Inspect(sum.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if ev, ok := spec.classify(sum.Pkg, sum.Key, call); ok && ev.op == lifeOpen {
					opens++
					if !slices.Contains(contract, ev.res) {
						unlicensed++
					}
				}
				return true
			})
		}
		r := prog.lifecycle(spec)
		t.Logf("%s: %d opens in the live tree, %d not licensed at exit; explored %d of %d bodies",
			spec.kind, opens, unlicensed, r.explored, r.bodies)
		if unlicensed == 0 {
			t.Errorf("%s: every one of the live tree's %d opens is licensed at exit, so the spec can report nothing; delete it", spec.kind, opens)
		}
	}
	contracts := []struct {
		form     string
		declares func(*Summary) bool
	}{
		{`"Requires sh.mu held"`, func(s *Summary) bool { return len(s.heldOnEntry) > 0 }},
	}
	for _, c := range contracts {
		n := 0
		for _, k := range prog.Order {
			if c.declares(prog.Funcs[k]) {
				n++
			}
		}
		t.Logf("contract %s: declared by %d live functions", c.form, n)
		if n == 0 {
			t.Errorf("contract %s is declared by no live function; delete it", c.form)
		}
	}
	seen := make(map[string]bool)
	var edges []string
	for _, e := range prog.lifecycle(lockSpec).edges {
		if s := e.from.String() + " → " + e.to.String(); !seen[s] {
			seen[s] = true
			edges = append(edges, s)
		}
	}
	sort.Strings(edges)
	t.Logf("lock-order edges in the live tree: %d %q", len(edges), edges)
	if !slices.Equal(edges, liveLockOrder) {
		t.Errorf("the live lock-order graph is %q, want %q", edges, liveLockOrder)
	}
}
