package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load enumerates the packages matching the go list patterns (relative
// to dir) with one `go list -deps -export`, then parses and type-checks
// the non-test sources of every module package in the listing exactly
// once, in the listing's dependency order and in one types universe: a
// package imported by two others is the same *types.Package in both,
// and the standard library is read from the compiler's export data the
// listing names. Dependencies the patterns did not match are checked —
// their importers need their types — but not returned; the matched
// packages come back sorted by import path.
//
// It needs what `go vet` needs: the go tool and a writable build
// cache, no network and no module cache. A tree that does not compile
// is go list's error, with the compiler's file:line; so is a pattern
// that names no directory. A pattern that matches no package with Go
// files is an error here.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string) // standard library: import path → export file
	var module []listedPackage
	for _, m := range listed {
		if m.Standard {
			exports[m.ImportPath] = m.Export
		} else if len(m.GoFiles) > 0 {
			module = append(module, m)
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	pkgs, err := checkAll(fset, std, module)
	if err != nil {
		return nil, err
	}
	roots := pkgs[:0]
	for i, pkg := range pkgs {
		if !module[i].DepOnly {
			roots = append(roots, pkg)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("analyzers: no packages with Go files match %v", patterns)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Path < roots[j].Path })
	return roots, nil
}

// LoadDirs type-checks several fixture directories under root — which
// are invisible to go list — as one program, in the given order; each
// directory's path relative to root is its import path, so an earlier
// package can be imported by a later one (`import "clockutil"`). The
// handful of standard-library packages fixtures import are checked
// from source.
func LoadDirs(root string, rels ...string) ([]*Package, error) {
	var dirs []listedPackage
	for _, rel := range rels {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		m := listedPackage{ImportPath: rel, Dir: dir}
		for _, e := range ents { // sorted by name
			if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
				m.GoFiles = append(m.GoFiles, e.Name())
			}
		}
		if len(m.GoFiles) == 0 {
			return nil, fmt.Errorf("analyzers: no .go files in %s", dir)
		}
		dirs = append(dirs, m)
	}
	fset := token.NewFileSet()
	return checkAll(fset, importer.ForCompiler(fset, "source", nil), dirs)
}

// checkAll is the one loader: it parses and type-checks the listed
// packages from source, each once and in the order given, which must
// put every package after the listed packages it imports. All share
// fset and one importer, so they share one types universe.
func checkAll(fset *token.FileSet, std types.Importer, listed []listedPackage) ([]*Package, error) {
	imp := &chainImporter{checked: make(map[string]*types.Package), std: std}
	var pkgs []*Package
	for _, m := range listed {
		pkg, err := check(fset, imp, m)
		if err != nil {
			return nil, err
		}
		imp.checked[m.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// chainImporter serves the packages checkAll has already checked by
// import path, and everything else — the standard library — from std.
type chainImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p := c.checked[path]; p != nil {
		return p, nil
	}
	return c.std.Import(path)
}

// check parses and type-checks one package's files.
func check(fset *token.FileSet, imp types.Importer, m listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(m.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-checking %s: %w", m.ImportPath, err)
	}
	return &Package{
		Path:  m.ImportPath,
		Dir:   m.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// listedPackage is the subset of `go list -json` output we need.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string // build-constraint-filtered, relative to Dir
	Standard   bool     // part of the standard library
	DepOnly    bool     // listed as a dependency, not matched by a pattern
	Export     string   // file holding the compiler's export data
}

// goList shells out to the go tool, once, for the packages matching
// the patterns and everything they import, dependencies first (-deps
// lists depth-first post-order). -export compiles what the build
// cache lacks, so a package that does not build fails here.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analyzers: go list: %v: %s", err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []listedPackage
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("analyzers: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
