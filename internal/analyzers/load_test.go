package analyzers

// Tests for the loader: one types universe across module packages and
// the standard library, dependencies the patterns did not name, the
// order of what comes back, build-constraint filtering, error surfaces
// (missing package, empty match, syntax error, type error), a package
// whose function bodies are assembly, and the fixture loader's
// source-importer fallback.

import (
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a temp module from rel-path → source pairs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	tmp := t.TempDir()
	files["go.mod"] = "module loadtest\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(tmp, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return tmp
}

// TestLoadBuildTags: go list filters constrained files, so an
// excluded file's contents are invisible to analysis — even when they
// would not type-check.
func TestLoadBuildTags(t *testing.T) {
	tmp := writeModule(t, map[string]string{
		"pkg/a.go": "package pkg\n\nfunc Live() int { return 1 }\n",
		"pkg/b.go": "//go:build neverenabled\n\npackage pkg\n\nfunc Dead() int { return undefinedSymbol }\n",
	})
	pkgs, err := Load(tmp, "./pkg")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	if n := len(pkgs[0].Files); n != 1 {
		t.Errorf("constrained file leaked into the load: %d files, want 1", n)
	}
	if pkgs[0].Types.Scope().Lookup("Dead") != nil {
		t.Error("symbol from build-excluded file is visible")
	}
}

// TestLoadAssemblyPackage: a function declared without a body, its
// code in a .s file beside it, is what internal/nn's vector kernels look
// like to the linter. go list builds the package (the .s file is not
// among GoFiles), the declaration type-checks, and every pass walks a
// FuncDecl with a nil Body, under a lock and from a goroutine, without
// a finding or a panic.
func TestLoadAssemblyPackage(t *testing.T) {
	tmp := writeModule(t, map[string]string{
		"pkg/a.go": `package pkg

import "sync"

var mu sync.Mutex

func kernel()

func Locked() {
	mu.Lock()
	defer mu.Unlock()
	kernel()
}

func Spawned(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		kernel()
	}()
}
`,
		"pkg/a.s": "#include \"textflag.h\"\n\nTEXT ·kernel(SB), NOSPLIT, $0-0\n\tRET\n",
	})
	pkgs, err := Load(tmp, "./pkg")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("want one package of one Go file, got %v", paths(pkgs))
	}
	diags, err := RunProject(pkgs, All()...)
	if err != nil {
		t.Fatalf("RunProject: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on a clean assembly-backed package: %s", d)
	}
}

// TestLoadMissingPackage: patterns that name nothing to lint are an
// error, not a silent empty result for the passes to find clean. A
// missing directory is go list's error; a wildcard that matches
// nothing is only a warning to go list (exit 0), and a directory
// holding nothing but tests lists with no Go files, so Load reports
// those itself, naming the patterns.
func TestLoadMissingPackage(t *testing.T) {
	tmp := writeModule(t, map[string]string{
		"pkg/a.go":           "package pkg\n",
		"onlytest/a_test.go": "package onlytest\n",
	})
	for pattern, want := range map[string]string{
		"./nosuchdir": "go list",
		"./nosuch...": "./nosuch...",
		"./onlytest":  "./onlytest",
	} {
		if pkgs, err := Load(tmp, pattern); err == nil {
			t.Errorf("Load(%s) returned %d packages and no error", pattern, len(pkgs))
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("Load(%s): error %q does not mention %q", pattern, err, want)
		}
	}
}

// TestLoadSyntaxError: a parse failure names the offending file.
func TestLoadSyntaxError(t *testing.T) {
	tmp := writeModule(t, map[string]string{
		"pkg/a.go": "package pkg\n\nfunc Broken( {\n",
	})
	if _, err := Load(tmp, "./pkg"); err == nil {
		t.Fatal("Load of a syntactically invalid package succeeded")
	} else if !strings.Contains(err.Error(), "a.go") {
		t.Errorf("error %q does not name the bad file", err)
	}
}

// TestLoadDirTypeError: the fixture loader surfaces type-check
// failures with the package path.
func TestLoadDirTypeError(t *testing.T) {
	tmp := writeModule(t, map[string]string{
		"pkg/a.go": "package pkg\n\nfunc Bad() int { return \"not an int\" }\n",
	})
	if _, err := LoadDirs(tmp, "pkg"); err == nil {
		t.Fatal("LoadDirs of an ill-typed package succeeded")
	} else if !strings.Contains(err.Error(), "type-checking pkg") {
		t.Errorf("error %q does not identify the type-check stage", err)
	}
}

// TestLoadDepOnlyTypeError: a type error in a dependency the patterns
// did not name is reported at its own file, not at the importer's.
func TestLoadDepOnlyTypeError(t *testing.T) {
	tmp := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"loadtest/b\"\n\nfunc A() int { return b.B() }\n",
		"b/b.go": "package b\n\nfunc B() int { return \"not an int\" }\n",
	})
	if _, err := Load(tmp, "./a"); err == nil {
		t.Fatal("Load over an ill-typed dependency succeeded")
	} else if !strings.Contains(err.Error(), "b.go:3") {
		t.Errorf("error %q does not name the bad file and line", err)
	}
}

// chain is a → b → z with a → z: the leaf sorts last by import path and
// is listed first by dependency order, and a sees z both directly and
// through b.
func chain(t *testing.T) string {
	return writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport (\n\t\"loadtest/b\"\n\t\"loadtest/z\"\n\t\"sync\"\n)\n\nvar Mu sync.Mutex\n\nvar Direct z.T\n\nvar ViaB = b.Get()\n",
		"b/b.go": "package b\n\nimport \"loadtest/z\"\n\nfunc Get() *z.T { return new(z.T) }\n",
		"z/z.go": "package z\n\nimport \"sync\"\n\ntype T struct{ Mu sync.Mutex }\n",
	})
}

// named is the defining object of the named type of a package-level
// variable or struct field, pointers stripped.
func named(t *testing.T, obj types.Object) *types.TypeName {
	t.Helper()
	typ := obj.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	n, ok := typ.(*types.Named)
	if !ok {
		t.Fatalf("%v is not of a named type", obj)
	}
	return n.Obj()
}

func paths(pkgs []*Package) []string {
	var out []string
	for _, pkg := range pkgs {
		out = append(out, pkg.Path)
	}
	return out
}

func imports(pkg, dep *Package) bool {
	for _, imp := range pkg.Types.Imports() {
		if imp == dep.Types {
			return true
		}
	}
	return false
}

// TestLoadOneUniverse: every module package is checked once, so an
// importer holds the very *types.Package the root is, the returned
// roots are sorted by import path whatever order they were checked in,
// and the standard library is one copy too — sync.Mutex reached from a
// and from z is the same object.
func TestLoadOneUniverse(t *testing.T) {
	pkgs, err := Load(chain(t), "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 3 || pkgs[0].Path != "loadtest/a" || pkgs[1].Path != "loadtest/b" || pkgs[2].Path != "loadtest/z" {
		t.Fatalf("want [a b z] sorted by import path, got %v", paths(pkgs))
	}
	a, b, z := pkgs[0], pkgs[1], pkgs[2]
	if !imports(a, b) || !imports(a, z) || !imports(b, z) {
		t.Error("an importer's copy of a module package is not the root's *types.Package")
	}
	zT := z.Types.Scope().Lookup("T")
	if got := named(t, a.Types.Scope().Lookup("ViaB")); got != zT {
		t.Errorf("z.T reached from a through b is %p, z's own is %p", got, zT)
	}
	fromA := named(t, a.Types.Scope().Lookup("Mu"))
	fromZ := named(t, zT.Type().Underlying().(*types.Struct).Field(0))
	if fromA != fromZ {
		t.Errorf("sync.Mutex is %p from a and %p from z: two copies of the standard library", fromA, fromZ)
	}
}

// TestLoadUnlistedMiddle: with a and z named and b — the link between
// them — not, b is still checked from source in the same universe (a
// must not meet a second z through b's export data) but is not
// returned.
func TestLoadUnlistedMiddle(t *testing.T) {
	pkgs, err := Load(chain(t), "./a", "./z")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "loadtest/a" || pkgs[1].Path != "loadtest/z" {
		t.Fatalf("want exactly [a z], got %v", paths(pkgs))
	}
	a, z := pkgs[0], pkgs[1]
	zT := z.Types.Scope().Lookup("T")
	if !imports(a, z) || named(t, a.Types.Scope().Lookup("Direct")) != zT || named(t, a.Types.Scope().Lookup("ViaB")) != zT {
		t.Error("a's view of z, directly or through the unlisted b, is not z.Types")
	}
}

// TestLoadLiveTree: over this module, Load returns the packages go
// list names (TestNoTruncation holds that their explorations
// complete), and the linter still links nothing of the module it
// lints: internal/analyzers' only harmony/ dependency is itself.
func TestLoadLiveTree(t *testing.T) {
	root := filepath.Join("..", "..")
	list := func(args ...string) []string {
		cmd := exec.Command("go", append([]string{"list"}, args...)...)
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got, want := paths(pkgs), list("-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./...")
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Load returned\n  %v\ngo list ./... names\n  %v", got, want)
	}
	for _, dep := range list("-deps", "./internal/analyzers") {
		if strings.HasPrefix(dep, "harmony/") && dep != "harmony/internal/analyzers" {
			t.Errorf("internal/analyzers links %s, a package of the module it lints", dep)
		}
	}
}

// TestLoadDirsFallbackImporter: a later fixture directory resolves an
// earlier one by rel path among the packages already checked, while
// stdlib imports fall through to the source importer — both in one
// program.
func TestLoadDirsFallbackImporter(t *testing.T) {
	root := writeModule(t, map[string]string{
		"base/base.go": "package base\n\nimport \"sync\"\n\nvar Mu sync.Mutex\n",
		"top/top.go":   "package top\n\nimport \"base\"\n\nfunc Touch() { base.Mu.Lock(); base.Mu.Unlock() }\n",
	})
	pkgs, err := LoadDirs(root, "base", "top")
	if err != nil {
		t.Fatalf("LoadDirs: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("want 2 packages, got %d", len(pkgs))
	}
	// Same FileSet throughout, so positions from both packages (and
	// diagnostics over them) are mutually consistent.
	if pkgs[0].Fset != pkgs[1].Fset {
		t.Error("LoadDirs packages do not share a FileSet")
	}
	if !imports(pkgs[1], pkgs[0]) {
		t.Error("top's copy of base is not the *types.Package LoadDirs returned")
	}
	// Order matters: the dependency must be listed first.
	if _, err := LoadDirs(root, "top", "base"); err == nil {
		t.Error("LoadDirs resolved an import of a not-yet-loaded fixture package")
	}
}
