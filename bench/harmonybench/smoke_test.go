package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke drives every workload both ways with two ops each and
// checks the result line against the declaration: every declared name
// emitted, nothing undeclared, units as declared, every run correct.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	t.Run("runs", func(t *testing.T) { smokeAll(t, out) })
	// The traced pass leaves its spans and the trainer's lanes behind.
	for _, f := range []string{"train-swap-link.spans.json", "train-swap-link.trace.json", "sim-sweep.gantt.txt"} {
		if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
			t.Errorf("traced pass did not write %s: %v", f, err)
		}
	}
}

// smokeAll runs the workloads side by side: a smoke run measures
// nothing, so sharing the cores costs only wall time.
func smokeAll(t *testing.T, out string) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				t.Parallel()
				var stdout, stderr bytes.Buffer
				// -procs 0: the runs share this process, and one P or a
				// pinned CPU would be every run's, not one run's.
				args := []string{"-smoke", "-procs", "0", "-workload", w.Name, "-seed", "7", "-trace", trace,
					"-out", out, "-tree", "../..", "-lint-pattern", "./internal/claimword"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				declared := endToEnd
				if trace == "1" {
					declared = perLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics in the result, %d declared", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("declared metric %s missing from the result", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
					if trace == "0" && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
			})
		}
	}
}
