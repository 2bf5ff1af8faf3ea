package main

import (
	"encoding/csv"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// CLI contract of the figure generator: the binary is built once and
// run as a user would run it, one artifact at a time.
func TestEveryArtifactRendersAndUnknownOnesAreNamed(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	figures := func(args ...string) (stdout, stderr string, exit int) {
		out, err := exec.Command(bin, args...).Output()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return string(out), string(ee.Stderr), ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return string(out), "", 0
	}

	var names []string
	for _, a := range artifacts {
		names = append(names, a.name)
		plain, stderr, exit := figures("-fig", a.name)
		if exit != 0 || !strings.HasPrefix(plain, "== ") {
			t.Errorf("-fig %s: exit %d, stderr %q, want a table under its == header:\n%s", a.name, exit, stderr, plain)
			continue
		}
		// The simulations are deterministic, so -csv prints the same
		// table and then the CSV block; encoding/csv rejects a block
		// whose rows disagree with its header on the column count.
		withCSV, _, _ := figures("-fig", a.name, "-csv")
		block, ok := strings.CutPrefix(withCSV, plain)
		records, err := csv.NewReader(strings.NewReader(block)).ReadAll()
		wantCSV := a.name != "4" // a Gantt chart has no CSV form
		if !ok || err != nil || (len(records) >= 2) != wantCSV {
			t.Errorf("-fig %s -csv: extends the plain output: %v; %d CSV records, %v:\n%s", a.name, ok, len(records), err, block)
		}
	}

	stdout, stderr, exit := figures("-fig", "ext9")
	if want := `unknown artifact "ext9" (want ` + strings.Join(names, ", ") + " or all)"; exit != 2 || stdout != "" || !strings.Contains(stderr, want) {
		t.Errorf("-fig ext9: exit %d, stdout %q, stderr %q; want exit 2 and %q", exit, stdout, stderr, want)
	}
}
