package main

// CLI contract of the simulator, run as a user runs it: the binary is
// built once, then driven through usage errors and one tiny run.

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build builds the CLI and returns a function that runs it.
func build(t *testing.T) func(args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "harmonysim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return func(args ...string) (stdout, stderr string, exit int) {
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		var ee *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
			t.Fatal(err)
		}
		return out.String(), errb.String(), cmd.ProcessState.ExitCode()
	}
}

func TestUnknownModeAndATinyShardedRun(t *testing.T) {
	harmonysim := build(t)

	// A mistyped -mode is a usage error listing every mode there is.
	stdout, stderr, exit := harmonysim("-mode", "harmonytp")
	want := `unknown mode "harmonytp" (want dp-baseline, pp-baseline, harmony-dp, harmony-pp, tp-baseline, harmony-tp)`
	if exit != 2 || stdout != "" || !strings.Contains(stderr, want) {
		t.Errorf("-mode harmonytp: exit %d, stdout %q, stderr %q; want exit 2 and %q", exit, stdout, stderr, want)
	}

	// A negative group size is a usage error, not "all microbatches".
	stdout, stderr, exit = harmonysim("-group", "-3")
	want = "-group must be non-negative, got -3"
	if exit != 2 || stdout != "" || !strings.Contains(stderr, want) {
		t.Errorf("-group -3: exit %d, stdout %q, stderr %q; want exit 2 and %q", exit, stdout, stderr, want)
	}

	// The op-sharded mode simulates end to end on a tiny model.
	stdout, stderr, exit = harmonysim("-model", "uniform", "-layers", "4", "-gpus", "2", "-mode", "harmony-tp", "-gpu-mem", "67108864")
	if exit != 0 || !strings.Contains(stdout, "harmony-tp on 2 GPUs") || !strings.Contains(stdout, "samples/s") {
		t.Errorf("harmony-tp run: exit %d, stderr %q, want exit 0 and a throughput line:\n%s", exit, stderr, stdout)
	}
}

// -interleave sets the wave order whichever way it is given: on a
// grouped baseline, whose default is 1F1B, -interleave=false plans the
// waves one after another and moves different bytes, while
// -interleave=true is the default spelled out.
func TestInterleaveFlagSetsBothWays(t *testing.T) {
	harmonysim := build(t)
	run := func(flags ...string) string {
		t.Helper()
		args := append([]string{"-model", "uniform", "-mode", "dp-baseline", "-group", "4", "-gpus", "2", "-gpu-mem", "20971520"}, flags...)
		stdout, stderr, exit := harmonysim(args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d, stderr %q", flags, exit, stderr)
		}
		return stdout
	}
	def, on, off := run(), run("-interleave=true"), run("-interleave=false")
	if on != def {
		t.Errorf("-interleave=true differs from the baseline's default order:\n%s\nvs\n%s", on, def)
	}
	if off == def {
		t.Errorf("-interleave=false left the baseline's 1F1B waves as they were:\n%s", off)
	}
}
