package main

// CLI contract of a diverging run: the binary is built once and run as
// a user would run it, on README's swap-bound shape (without the
// modeled link, which changes the step time and not one bit of the
// math).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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
	if !regexp.MustCompile(`unknown mode "harmonydp".*dp-baseline, pp-baseline, harmony-dp, harmony-pp, tp-baseline, harmony-tp`).MatchString(stderr) {
		t.Errorf("stderr does not name the bad mode and the valid ones: %q", stderr)
	}
}

// An op-sharded mode parses but is refused by the trainer, by name,
// before a step runs: it runs in the simulator only.
func TestShardedModeIsRefused(t *testing.T) {
	stdout, stderr, exit := harmonytrain(t, build(t), "-mode", "harmony-tp", "-devices", "2", "-steps", "1")
	if exit != 1 || stdout != "" {
		t.Errorf("-mode harmony-tp: exit %d, want 1 and nothing trained\n%s", exit, stdout)
	}
	if !strings.Contains(stderr, "harmony-tp runs in the simulator only") {
		t.Errorf("stderr does not name the mode and where it runs: %q", stderr)
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

// -retune reshapes the plan before the named step, or says why it
// cannot and trains on with the current one; either way the run
// finishes with finite losses.
func TestRetune(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct {
		spec string
		want string
	}{
		{"step=2,microbatches=4", "retuned before step 2: 4 microbatches"},
		{"step=2,microbatches=3", "retune before step 2 rejected; keeping the current plan"},
	} {
		stdout, stderr, exit := harmonytrain(t, bin, "-lr", "0.005", "-steps", "4", "-retune", tc.spec)
		if exit != 0 {
			t.Errorf("-retune %s: exit %d\n%s%s", tc.spec, exit, stdout, stderr)
		}
		if !strings.Contains(stdout, tc.want) {
			t.Errorf("-retune %s: stdout does not say %q:\n%s", tc.spec, tc.want, stdout)
		}
		if !regexp.MustCompile(`(?m)^step +3 +loss \d`).MatchString(stdout) {
			t.Errorf("-retune %s: no finite loss for the last step:\n%s", tc.spec, stdout)
		}
	}
}

// A plan that cannot fit its devices is refused by the preflight before
// a step runs, with the verifier's counterexample.
func TestPreflightRejectsOverCapacity(t *testing.T) {
	stdout, stderr, exit := harmonytrain(t, build(t), "-mode", "harmony-pp", "-widths", "64,32,10", "-devices", "2",
		"-device-mem", "16384", "-steps", "1")
	if exit != 1 || strings.Contains(stdout, "step") {
		t.Errorf("exit %d, want 1 and nothing trained\n%s", exit, stdout)
	}
	if !regexp.MustCompile(`preflight verification[^\n]*\nschedcheck: capacity: gpu0 peak pinned bytes \d+ exceed capacity 16384`).MatchString(stderr) ||
		!strings.Contains(stderr, "counterexample") {
		t.Errorf("stderr does not carry the capacity counterexample: %q", stderr)
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

// The traffic line's "host backing" field is the host memory the pages
// hold once training and evaluation are done: none on a Harmony plan
// whose weights fit their device, since they are born there — with
// -recover and -save too, which read the weights out without writing a
// page back — and the whole model footprint on the naive baseline, which
// keeps every persistent tensor in host backing.
func TestHostBackingField(t *testing.T) {
	bin := build(t)
	field := regexp.MustCompile(`(?m)^virtual-memory traffic: .*, (\S+) MB out, .*, host backing (\S+) MiB$`)
	footprint := regexp.MustCompile(`model footprint (\S+) MiB`)
	ckpt := filepath.Join(t.TempDir(), "m.ckpt")
	for _, tc := range []struct {
		mode  string
		extra []string
	}{
		{"harmony-dp", nil},
		{"harmony-dp", []string{"-recover", "-save", ckpt}},
		{"dp-baseline", nil},
	} {
		args := append([]string{"-mode", tc.mode, "-device-mem", "67108864", "-lr", "0.005", "-steps", "3"}, tc.extra...)
		stdout, stderr, exit := harmonytrain(t, bin, args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d\n%s%s", args, exit, stdout, stderr)
		}
		got, fp := field.FindStringSubmatch(stdout), footprint.FindStringSubmatch(stdout)
		if got == nil || fp == nil {
			t.Fatalf("%v: no host backing on the traffic line, or no footprint:\n%s", args, stdout)
		}
		want := "0.0"
		if tc.mode == "dp-baseline" {
			want = fp[1]
		}
		if got[2] != want || got[1] != "0.0" {
			t.Errorf("%v: %s MB written back, host backing %s MiB, want 0.0 and %s:\n%s", args, got[1], got[2], want, stdout)
		}
	}
}

// FuzzParseRetune feeds arbitrary -retune values to parseRetune: it
// must never panic, and a value it accepts, other than the empty one
// that turns retuning off, names a positive step and microbatch count
// that parse back the same once rendered.
func FuzzParseRetune(f *testing.F) {
	for _, s := range []string{"", "step=3,microbatches=8", " microbatches = 2 , step = 1 ", "step=0,microbatches=1",
		"step=-1,microbatches=2", "step=1", "step=1,microbatches=2,step=4", "step=+5,microbatches=007", "step=1,x=2", "step"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		step, mb, err := parseRetune(s)
		if err != nil || s == "" {
			return
		}
		if step <= 0 || mb <= 0 {
			t.Fatalf("%q accepted as step %d, microbatches %d", s, step, mb)
		}
		r := fmt.Sprintf("step=%d,microbatches=%d", step, mb)
		if step2, mb2, err := parseRetune(r); err != nil || step2 != step || mb2 != mb {
			t.Fatalf("%q parsed to %d, %d; its rendering %q to %d, %d (%v)", s, step, mb, r, step2, mb2, err)
		}
	})
}

// FuzzParseWidths feeds arbitrary -widths values to parseWidths: it
// must never panic, and a value it accepts lists at least an input and
// a class width, every one positive, that parse back the same once
// rendered.
func FuzzParseWidths(f *testing.F) {
	for _, s := range []string{"256,128,64,10", "4", "", "784, 10", "0,10", "-3,4", "1,,2", "+8,0x10", "99999999999999999999,2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		widths, err := parseWidths(s)
		if err != nil {
			return
		}
		if len(widths) < 2 {
			t.Fatalf("%q accepted as %v: no input and class widths", s, widths)
		}
		parts := make([]string, len(widths))
		for i, w := range widths {
			if w <= 0 {
				t.Fatalf("%q accepted as %v", s, widths)
			}
			parts[i] = strconv.Itoa(w)
		}
		r := strings.Join(parts, ",")
		if back, err := parseWidths(r); err != nil || !slices.Equal(back, widths) {
			t.Fatalf("%q parsed to %v; its rendering %q to %v (%v)", s, widths, r, back, err)
		}
	})
}
