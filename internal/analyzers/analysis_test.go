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
		"lockhold": true, "determinism": true, "errcheck": true,
		"lockorder": true, "chanlife": true,
		"claimlife": true, "errpath": true,
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for _, a := range all {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}

// TestLoadRealPackages smoke-tests the loader against this module's
// own sources, through the one load the test binary shares: the
// package checked from source, its standard-library imports read from
// export data — no module cache, no network.
func TestLoadRealPackages(t *testing.T) {
	for _, pkg := range liveTree(t) {
		if pkg.Path == "harmony/internal/trace" {
			if len(pkg.Files) == 0 || pkg.Types == nil || !pkg.Types.Complete() {
				t.Error("package loaded without files or type information")
			}
			return
		}
	}
	t.Error("the live tree has no harmony/internal/trace")
}

// BenchmarkRunProject is one lint of the live tree without the load:
// the Program built and every pass run over it, as cmd/harmonylint
// does after Load. The module is loaded once, outside the timer.
// bodies-explored/op counts the bodies the lifecycle specs explore,
// summed over both specs.
func BenchmarkRunProject(b *testing.B) {
	pkgs := liveTree(b)
	explored := 0
	prog := BuildProgram(pkgs)
	for _, spec := range lifeSpecs {
		explored += prog.lifecycle(spec).explored
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		diags, err := RunProject(pkgs, All()...)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("the live tree has %d findings:\n%s", len(diags), diagDump(diags))
		}
	}
	b.ReportMetric(float64(explored), "bodies-explored/op")
}
