// Command harmonylint runs the repo's invariant-enforcing static
// analysis suite (internal/analyzers) over Go packages and reports
// findings in the usual file:line:col format. It exits non-zero when
// anything is found, so `make lint` gates CI on it.
//
// Usage:
//
//	harmonylint [-v] [-json|-sarif] [packages]
//
// Packages are go list patterns; the default is ./..., and patterns
// that match no package are an error. The tool runs from inside the
// module (the Makefile does) and needs what go vet needs: the go tool
// and a writable build cache — one `go list -deps -export` names the
// packages and the standard library's export data — but no network
// and no module cache. A tree that does not compile is reported by go
// list, with the compiler's file:line.
//
// -json emits the findings as a JSON array of {file, line, column,
// analyzer, message} objects; -sarif emits a SARIF 2.1.0 log with one
// rule per analyzer, so CI can upload the findings as code-scanning
// annotations. Both keep the text mode's ordering — sorted by (file,
// line, column, analyzer) and deduplicated — and the same exit codes:
// 0 clean, 1 findings, 2 usage or load failure.
//
// False positives are silenced in place with an explained directive on
// the flagged line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// Directives are themselves checked: naming an unknown analyzer,
// omitting the reason, or suppressing nothing is an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"harmony/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("harmonylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print analyzed packages and the analyzer roster")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	asSARIF := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: harmonylint [-v] [-json|-sarif] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		fmt.Fprintf(stderr, "harmonylint: -json and -sarif are mutually exclusive\n")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "harmonylint: %v\n", err)
		return 2
	}

	if *verbose {
		for _, pkg := range pkgs {
			fmt.Fprintf(stderr, "harmonylint: %s (%d files)\n", pkg.Path, len(pkg.Files))
		}
	}
	// One whole-program run: the interprocedural passes (lockorder,
	// chanlife, determinism taint, the lifecycle passes) need every
	// package's summaries in a single call graph, and the diagnostics
	// come back sorted by (file, line, column, analyzer) and
	// deduplicated across packages, so CI logs are stable run-to-run.
	diags, err := analyzers.RunProject(pkgs, analyzers.All()...)
	if err != nil {
		fmt.Fprintf(stderr, "harmonylint: %v\n", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Pos.Filename = rel
		}
	}

	switch {
	case *asJSON:
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "harmonylint: %v\n", err)
			return 2
		}
	case *asSARIF:
		if err := writeSARIF(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "harmonylint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "harmonylint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonFinding is the stable -json schema, one object per finding, in
// the same order as the text output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, diags []analyzers.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:     filepath.ToSlash(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SARIF 2.1.0, the minimal subset GitHub code scanning ingests: one
// rule per analyzer (id + short description), one result per finding
// with a physical location. Rules are listed in suite order and
// results in diagnostic order, so the log is stable run-to-run.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w io.Writer, diags []analyzers.Diagnostic) error {
	var rules []sarifRule
	for _, a := range analyzers.All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		line, col := d.Pos.Line, d.Pos.Column
		if line < 1 {
			line = 1 // SARIF regions are 1-based; guard synthetic positions
		}
		if col < 1 {
			col = 1
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(d.Pos.Filename)},
				Region:           sarifRegion{StartLine: line, StartColumn: col},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "harmonylint", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
