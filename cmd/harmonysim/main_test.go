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

func TestUnknownModeAndATinyShardedRun(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "harmonysim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	harmonysim := func(args ...string) (stdout, stderr string, exit int) {
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		var ee *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
			t.Fatal(err)
		}
		return out.String(), errb.String(), cmd.ProcessState.ExitCode()
	}

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
