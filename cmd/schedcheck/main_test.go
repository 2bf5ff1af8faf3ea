package main

// The seeded-bug gate, run as a user runs the CLI: the binary is built
// once, every clean plan shape must PASS, and every seeded plan bug
// must FAIL with the rule it breaks.

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestSeededBugsAreCaught(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "schedcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		exit int
		want string // in stdout, or in stderr for a usage error
	}{
		{[]string{"-mode", "harmony-dp", "-devices", "2"}, 0, "PASS"},
		{[]string{"-mode", "pp-baseline", "-devices", "4", "-layers", "16", "-prefetch=false"}, 0, "PASS"},
		{[]string{"-mode", "harmony-tp", "-devices", "2"}, 0, "PASS"},
		{[]string{"-mode", "dp-baseline", "-devices", "2", "-inject", "cycle"}, 1, "FAIL\nschedcheck: deadlock: "},
		{[]string{"-mode", "dp-baseline", "-devices", "2", "-inject", "volume"}, 1, "FAIL\nschedcheck: swap-volume: "},
		{[]string{"-mode", "harmony-dp", "-devices", "2", "-inject", "overcap"}, 1, "FAIL\nschedcheck: capacity: "},
		{[]string{"-mode", "harmony-dp", "-devices", "2", "-inject", "uncommitted"}, 2, `unknown injection "uncommitted"`},
		{[]string{"-mode", "harmony-dp", "-devices", "2", "-group-size", "-3"}, 2, "-group-size must be non-negative, got -3"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var ee *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
			t.Fatal(err)
		}
		out := stdout.String()
		if tc.exit == 2 {
			out = stderr.String()
		}
		if exit := cmd.ProcessState.ExitCode(); exit != tc.exit || !strings.Contains(out, tc.want) {
			t.Errorf("schedcheck %s: exit %d, want %d with %q in\n%s%s",
				strings.Join(tc.args, " "), exit, tc.exit, tc.want, stdout.String(), stderr.String())
		}
	}
}
