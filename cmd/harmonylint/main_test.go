package main

// CLI contract tests: exit codes, output ordering, and the -json and
// -sarif schemas, against a tiny self-contained module with two known
// violations. The module is built in a temp dir and run() is invoked
// in-process with the working directory switched there, exactly as the
// binary would run from a checkout.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// violatingModule writes a module with two deterministic findings: a
// pinbalance leak in a.go and an errcheck-visible pinbalance leak in
// b.go — two files, so ordering is observable.
func violatingModule(t *testing.T) string {
	t.Helper()
	tmp := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(tmp, rel), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tinylint\n\ngo 1.22\n")
	write("a.go", `package tiny

import "errors"

type state struct{ pins int }

func (s *state) Pin() error {
	s.pins++
	return nil
}

func (s *state) Unpin() error {
	s.pins--
	return nil
}

func leakA(s *state) error {
	if err := s.Pin(); err != nil {
		return err
	}
	if s.pins > 3 {
		return errors.New("over")
	}
	return s.Unpin()
}
`)
	write("b.go", `package tiny

import "errors"

func leakB(s *state) error {
	if err := s.Pin(); err != nil {
		return err
	}
	if s.pins > 9 {
		return errors.New("way over")
	}
	return s.Unpin()
}
`)
	return tmp
}

// runIn invokes run() with the working directory switched to dir.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatalf("restoring working directory: %v", err)
		}
	}()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunTextFindingsAndOrdering(t *testing.T) {
	tmp := violatingModule(t)
	code, stdout, stderr := runIn(t, tmp, ".")
	if code != 1 {
		t.Fatalf("want exit 1 on findings, got %d (stderr: %s)", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 findings, got %d:\n%s", len(lines), stdout)
	}
	if !strings.HasPrefix(lines[0], "a.go:") || !strings.HasPrefix(lines[1], "b.go:") {
		t.Errorf("findings not sorted by file:\n%s", stdout)
	}
	for _, l := range lines {
		if !regexp.MustCompile(`^[ab]\.go:\d+:\d+: pinbalance: pin on s taken at`).MatchString(l) {
			t.Errorf("unexpected finding shape: %s", l)
		}
	}
	if !strings.Contains(stderr, "2 finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr)
	}
}

func TestRunCleanExitsZero(t *testing.T) {
	tmp := t.TempDir()
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module cleanlint\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "a.go"), []byte("package clean\n\nfunc ok() int { return 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"."}, {"-json", "."}, {"-sarif", "."}} {
		code, stdout, stderr := runIn(t, tmp, args...)
		if code != 0 {
			t.Errorf("%v: want exit 0, got %d (stderr: %s)", args, code, stderr)
		}
		if strings.Contains(stderr, "finding") {
			t.Errorf("%v: clean run printed a findings summary: %s", args, stderr)
		}
		_ = stdout
	}
}

func TestRunBadPatternExitsTwo(t *testing.T) {
	tmp := violatingModule(t)
	// A directory that is not there, and a wildcard that matches no
	// package: neither is a clean lint of nothing.
	for _, pattern := range []string{"./no/such/dir", "./nosuch..."} {
		code, stdout, stderr := runIn(t, tmp, pattern)
		if code != 2 || stdout != "" || !strings.Contains(stderr, pattern[2:]) {
			t.Fatalf("%s: want exit 2 on load failure, got %d (stdout: %q, stderr: %q)", pattern, code, stdout, stderr)
		}
	}
	if code, _, _ := runIn(t, tmp, "-json", "-sarif", "."); code != 2 {
		t.Fatalf("want exit 2 when -json and -sarif are combined, got %d", code)
	}
}

func TestRunJSONOutput(t *testing.T) {
	tmp := violatingModule(t)
	code, stdout, _ := runIn(t, tmp, "-json", ".")
	if code != 1 {
		t.Fatalf("want exit 1, got %d", code)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, stdout)
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 findings, got %d", len(findings))
	}
	if findings[0].File != "a.go" || findings[1].File != "b.go" {
		t.Errorf("JSON findings not in text order: %s then %s", findings[0].File, findings[1].File)
	}
	for _, f := range findings {
		if f.Analyzer != "pinbalance" || f.Line < 1 || f.Column < 1 ||
			!strings.Contains(f.Message, "is not released on an error path") {
			t.Errorf("unexpected JSON finding: %+v", f)
		}
	}
}

func TestRunSARIFOutput(t *testing.T) {
	tmp := violatingModule(t)
	code, stdout, _ := runIn(t, tmp, "-sarif", ".")
	if code != 1 {
		t.Fatalf("want exit 1, got %d", code)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("output is not a SARIF log: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one SARIF 2.1.0 run, got version %q with %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "harmonylint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	if !ruleIDs["pinbalance"] || !ruleIDs["lockhold"] || !ruleIDs["errpath"] {
		t.Errorf("rules missing expected analyzers: %v", ruleIDs)
	}
	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	for i, want := range []string{"a.go", "b.go"} {
		r := run.Results[i]
		if r.RuleID != "pinbalance" || r.Level != "error" {
			t.Errorf("result %d: ruleId %q level %q", i, r.RuleID, r.Level)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d: want 1 location", i)
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != want || loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("result %d: location %+v, want uri %s", i, loc, want)
		}
	}
}
