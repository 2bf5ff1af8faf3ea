package analyzers

import (
	"path/filepath"
	"testing"
)

// TestDirectiveHygiene checks that the allowlist polices itself: a
// directive naming an unknown analyzer, lacking a reason, or
// suppressing nothing is reported under the "lint" analyzer.
func TestDirectiveHygiene(t *testing.T) {
	pkgs, err := LoadDirs(filepath.Join("testdata", "src"), "directives")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunProject(pkgs, All()...)
	if err != nil {
		t.Fatalf("RunProject: %v", err)
	}
	mustDiag(t, diags, "lint", `names unknown analyzer "speling"`)
	mustDiag(t, diags, "lint", `//lint:allow determinism has no reason`)
	mustDiag(t, diags, "lint", `suppresses nothing; remove the stale directive`)
	if len(diags) != 3 {
		t.Errorf("want exactly 3 lint diagnostics, got %d:\n%s", len(diags), diagDump(diags))
	}
}

// TestAllNames pins the analyzer names the //lint:allow directives and
// docs refer to.
func TestAllNames(t *testing.T) {
	want := map[string]bool{
		"lockhold": true, "claimdiscipline": true, "determinism": true, "errcheck": true,
		"lockorder": true, "chanlife": true,
		"pinbalance": true, "claimlife": true, "errpath": true,
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for _, a := range all {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" || (a.Run == nil && a.RunProject == nil) {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}

// TestLoadRealPackages smoke-tests the loader against this module's
// own sources: one go list, the package checked from source, its
// standard-library imports read from export data — no module cache,
// no network.
func TestLoadRealPackages(t *testing.T) {
	pkgs, err := Load("../..", "./internal/trace")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	if pkgs[0].Path != "harmony/internal/trace" {
		t.Errorf("unexpected import path %q", pkgs[0].Path)
	}
	if len(pkgs[0].Files) == 0 || pkgs[0].Types == nil {
		t.Error("package loaded without files or type information")
	}
}
