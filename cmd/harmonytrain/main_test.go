package main

// CLI contract of a diverging run: the binary is built once and run as
// a user would run it, on README's swap-bound shape (without the
// modeled link, which changes the step time and not one bit of the
// math).

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var swapBound = []string{"-arch", "mlp", "-widths", "256,512,512,512,10", "-mode", "harmony-dp", "-devices", "1",
	"-device-mem", "4194304", "-batch", "8", "-adam=false", "-prefetch-depth", "4", "-steps", "30"}

func harmonytrain(t *testing.T, bin string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, append(append([]string(nil), swapBound...), args...)...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "harmonytrain")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A mistyped -mode is a usage error naming the modes there are, not a
// run of whichever mode is the zero value.
func TestUnknownModeIsRejected(t *testing.T) {
	stdout, stderr, exit := harmonytrain(t, build(t), "-mode", "harmonydp", "-steps", "1")
	if exit != 2 || stdout != "" {
		t.Errorf("-mode harmonydp: exit %d, want 2 and nothing trained\n%s", exit, stdout)
	}
	if !regexp.MustCompile(`unknown mode "harmonydp".*dp-baseline, harmony-dp, pp-baseline, harmony-pp`).MatchString(stderr) {
		t.Errorf("stderr does not name the bad mode and the valid ones: %q", stderr)
	}
}

// A flag value that cannot take effect is a usage error naming the
// flag, not a run that quietly does something else.
func TestFlagsWithNoEffectAreRejected(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-retune", "step=5,microbatches=4", "-steps", "2"}, `-retune step 5 is never reached with -steps 2`},
		{[]string{"-device-mem", "-5", "-steps", "1"}, `-device-mem -5 is negative`},
		{[]string{"-link-bw", "-5", "-steps", "1"}, `-link-bw -5 is negative`},
	} {
		stdout, stderr, exit := harmonytrain(t, bin, tc.args...)
		if exit != 2 || stdout != "" {
			t.Errorf("%v: exit %d, want 2 and nothing trained\n%s", tc.args, exit, stdout)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not say %q", tc.args, stderr, tc.want)
		}
	}
}

func TestDivergenceStopsTheRun(t *testing.T) {
	bin := build(t)

	// SGD at the default 0.05 overflows on this shape within ten steps.
	// The run must stop there, say where, and leave no checkpoint.
	ckpt := filepath.Join(t.TempDir(), "diverged.ckpt")
	stdout, stderr, exit := harmonytrain(t, bin, "-save", ckpt)
	if exit == 0 {
		t.Errorf("diverging run exited 0\n%s", stdout)
	}
	if !regexp.MustCompile(`step \d+: loss is (NaN|[+-]Inf)`).MatchString(stderr) {
		t.Errorf("stderr does not name the diverging step: %q", stderr)
	}
	if regexp.MustCompile(`loss (NaN|[+-]Inf)|accuracy`).MatchString(stdout) {
		t.Errorf("the run went on past a non-finite loss:\n%s", stdout)
	}
	if _, err := os.Stat(ckpt); err == nil {
		t.Error("a diverged run wrote a checkpoint")
	}

	// -lr reaches the trainer: at 0.005 the same run converges.
	stdout, stderr, exit = harmonytrain(t, bin, "-lr", "0.005")
	if exit != 0 {
		t.Fatalf("-lr 0.005: exit %d\n%s%s", exit, stdout, stderr)
	}
	var losses []float64
	for _, m := range regexp.MustCompile(`(?m)^step +\d+ +loss (\S+)$`).FindAllStringSubmatch(stdout, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("loss %q: %v", m[1], err)
		}
		losses = append(losses, v)
	}
	if len(losses) < 2 || !(losses[len(losses)-1] < losses[0]/2) {
		t.Errorf("-lr 0.005: losses %v, want a finite, falling sequence", losses)
	}
}

// -cpuprofile and -memprofile leave files `go tool pprof` reads on a
// run that trains to the end, on one that stops at a non-finite loss
// and on a usage error.
func TestProfilesAreWrittenOnEveryExit(t *testing.T) {
	bin := build(t)
	for _, c := range []struct {
		name string
		args []string
		exit int
	}{
		{"trained", []string{"-lr", "0.005", "-steps", "3"}, 0},
		{"diverged", nil, 1},
		{"usage", []string{"-mode", "harmonydp"}, 2},
	} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
		stdout, stderr, exit := harmonytrain(t, bin, append(c.args, "-cpuprofile", cpu, "-memprofile", mem)...)
		if exit != c.exit {
			t.Fatalf("%s: exit %d, want %d\n%s%s", c.name, exit, c.exit, stdout, stderr)
		}
		for _, prof := range []string{cpu, mem} {
			if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
				t.Fatalf("%s: %s missing or empty: %v", c.name, filepath.Base(prof), err)
			}
			out, err := exec.Command("go", "tool", "pprof", "-top", bin, prof).CombinedOutput()
			if err != nil || !strings.Contains(string(out), "flat%") {
				t.Errorf("%s: go tool pprof -top %s: %v\n%s", c.name, filepath.Base(prof), err, out)
			}
		}
	}
}
