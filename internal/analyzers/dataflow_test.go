package analyzers

import (
	"os"
	"path/filepath"
	"strconv"
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
// has bounds: the summaries (BuildProgram) and the three lifecycle
// specs.
func allExplorations(pkgs []*Package) *Program {
	prog := BuildProgram(pkgs)
	for _, spec := range []*lifeSpec{lockSpec, claimSpec, pinSpec} {
		prog.lifecycle(spec)
	}
	return prog
}

// TestNoTruncation: no exploration of the live tree or of any fixture
// hits maxBlockStates or maxPathVisits, so a clean lint run is a proof
// over every path and not the silence of a cap. The blocking-under-lock
// check in particular depends on complete exploration.
func TestNoTruncation(t *testing.T) {
	check := func(name string, pkgs []*Package) {
		t.Helper()
		for _, tr := range allExplorations(pkgs).truncated {
			t.Errorf("%s: %s exploration of %s was cut short by a bound", name, tr.spec, tr.fn)
		}
	}
	root := filepath.Join("testdata", "src")
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.Name() == "taint" {
			continue // a two-package project, loaded below
		}
		pkgs, err := LoadDirs(root, ent.Name())
		if err != nil {
			t.Fatalf("loading fixture %s: %v", ent.Name(), err)
		}
		check(ent.Name(), pkgs)
	}
	pkgs, err := LoadDirs(filepath.Join(root, "taint"), "clockutil", "internal/exec")
	if err != nil {
		t.Fatalf("loading fixture taint: %v", err)
	}
	check("taint", pkgs)

	live, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("loading the live tree: %v", err)
	}
	check("live tree", live)
}
