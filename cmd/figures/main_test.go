package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// CLI contract of the figure generator: the binary is built once and
// run as a user would run it, one artifact at a time.
func TestEveryArtifactRendersAndUnknownOnesAreNamed(t *testing.T) {
	bin := buildFigures(t)
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
		if a.name == "ext2" && len(records) >= 2 {
			// One row per tuner candidate: the columns before
			// throughput name it, so no two rows share them.
			key := slices.Index(records[0], "throughput")
			seen := map[string]bool{}
			for _, r := range records[1:] {
				k := strings.Join(r[:max(key, 0)], ",")
				if seen[k] {
					t.Errorf("-fig ext2 -csv: two rows share the candidate columns of %v: %s", records[0][:max(key, 0)], k)
				}
				seen[k] = true
			}
		}
	}

	stdout, stderr, exit := figures("-fig", "ext9")
	if want := `unknown artifact "ext9" (want ` + strings.Join(names, ", ") + " or all)"; exit != 2 || stdout != "" || !strings.Contains(stderr, want) {
		t.Errorf("-fig ext9: exit %d, stdout %q, stderr %q; want exit 2 and %q", exit, stdout, stderr, want)
	}
}

// Every figure the simulator produces is pinned byte for byte, so a
// change that moves one simulated number fails here. To regenerate after
// a deliberate change: go run ./cmd/figures -fig all > cmd/figures/testdata/all.golden
// Only amd64 and 386 are compared: their compilers never fuse a multiply
// and an add, and on targets that do, the last digit may round apart.
func TestAllMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("GOARCH %s may fuse multiply-adds", runtime.GOARCH)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(buildFigures(t), "-fig", "all").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("-fig all departs from testdata/all.golden at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("-fig all has %d lines, testdata/all.golden %d", len(gl), len(wl))
	}
}

func buildFigures(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// -cpuprofile and -memprofile leave files `go tool pprof` reads, on a
// run that succeeds and on one that exits through the error path.
func TestProfilesAreWrittenOnEveryExit(t *testing.T) {
	bin := buildFigures(t)
	for _, c := range []struct {
		fig  string
		exit int
	}{{"2a", 0}, {"ext9", 2}} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
		err := exec.Command(bin, "-fig", c.fig, "-cpuprofile", cpu, "-memprofile", mem).Run()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != c.exit {
			t.Fatalf("-fig %s: exit %d, want %d", c.fig, exit, c.exit)
		}
		for _, prof := range []string{cpu, mem} {
			if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
				t.Fatalf("-fig %s: %s missing or empty: %v", c.fig, filepath.Base(prof), err)
			}
			out, err := exec.Command("go", "tool", "pprof", "-top", bin, prof).CombinedOutput()
			if err != nil || !strings.Contains(string(out), "flat%") {
				t.Errorf("-fig %s: go tool pprof -top %s: %v\n%s", c.fig, filepath.Base(prof), err, out)
			}
		}
	}
	// A profile that cannot be created is an error, not a silent run.
	if err := exec.Command(bin, "-fig", "1", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu")).Run(); err == nil {
		t.Error("-cpuprofile under a missing directory: exit 0")
	}
}
