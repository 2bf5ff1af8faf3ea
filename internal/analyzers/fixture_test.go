package analyzers

// Fixture runner in the style of golang.org/x/tools/go/analysis/
// analysistest: each package under testdata/src/<name> is loaded and
// type-checked, one analyzer runs over it, and every diagnostic must
// be matched by a `// want "regexp"` comment on the same line (several
// quoted regexps may follow one want). Unmatched diagnostics and
// unsatisfied wants both fail the test, so fixtures pin the exact
// flagged/allowed boundary of each pass.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// wantEntry is one expected diagnostic parsed from a fixture comment.
type wantEntry struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// A want pattern is either an interpreted string ("…", backslash
// escapes processed by strconv.Unquote) or a raw string (`…`, taken
// verbatim — easier for patterns full of regexp escapes).
var quotedRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// parseWants extracts the want expectations from a loaded package.
func parseWants(t *testing.T, pkg *Package) []*wantEntry {
	t.Helper()
	var wants []*wantEntry
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				qs := quotedRe.FindAllStringSubmatch(m[1], -1)
				if len(qs) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, q := range qs {
					pat := q[2] // raw `…` form, verbatim
					if q[2] == "" && q[1] != "" {
						var err error
						pat, err = strconv.Unquote(`"` + q[1] + `"`)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %q: %v", pos.Filename, pos.Line, q[0], err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &wantEntry{
						file: pos.Filename, line: pos.Line, re: re, raw: pat,
					})
				}
			}
		}
	}
	return wants
}

// runFixture loads the one package testdata/src/<name>, runs the
// analyzer (directives included) and checks the diagnostics against
// the want comments.
func runFixture(t *testing.T, name string, a *Analyzer) []Diagnostic {
	t.Helper()
	return runProjectFixture(t, "", []string{name}, a)
}

// runProjectFixture loads several directories under testdata/src/<name>
// as one program (LoadDirs, so later packages can import earlier ones
// by their relative path) and runs the analyzer over the whole thing.
// Fixtures for the interprocedural passes use this to express
// cross-package call chains.
func runProjectFixture(t *testing.T, name string, rels []string, a *Analyzer) []Diagnostic {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	pkgs, err := LoadDirs(root, rels...)
	if err != nil {
		t.Fatalf("loading fixture %s %v: %v", root, rels, err)
	}
	diags, err := RunProject(pkgs, a)
	if err != nil {
		t.Fatalf("running %s on fixture %s %v: %v", a.Name, root, rels, err)
	}
	checkWants(t, diags, pkgs)
	return diags
}

// checkWants diffs diagnostics against the want comments of every
// loaded package: each diagnostic must match a want on its line, each
// want must be matched by a diagnostic.
func checkWants(t *testing.T, diags []Diagnostic, pkgs []*Package) {
	t.Helper()
	var wants []*wantEntry
	for _, pkg := range pkgs {
		wants = append(wants, parseWants(t, pkg)...)
	}
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// mustDiag asserts that some diagnostic from the given analyzer whose
// message matches pat exists in diags.
func mustDiag(t *testing.T, diags []Diagnostic, analyzer, pat string) {
	t.Helper()
	re := regexp.MustCompile(pat)
	for _, d := range diags {
		if d.Analyzer == analyzer && re.MatchString(d.Message) {
			return
		}
	}
	t.Errorf("no %s diagnostic matching %q in:\n%s", analyzer, pat, diagDump(diags))
}

func diagDump(diags []Diagnostic) string {
	s := ""
	for _, d := range diags {
		s += fmt.Sprintf("  %s\n", d)
	}
	if s == "" {
		s = "  (none)\n"
	}
	return s
}
