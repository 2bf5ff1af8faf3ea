package exec

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"harmony/internal/sched"
)

// A checkpoint taken while fault injection is perturbing the run must
// capture exactly the post-update weights: restoring it into a fresh,
// fault-free trainer and continuing must reproduce the faulted
// original's continuation bit-for-bit (transient faults are retried,
// so they never change math — and neither must Save/Load).
func TestCheckpointRoundTripUnderFaults(t *testing.T) {
	spec := "op=swap-in,mode=transient,count=3;op=kernel,mode=transient,count=2"
	faulted, _ := runTrainer(t, faultyConfig(sched.HarmonyDP, spec, false), 4)
	var snap bytes.Buffer
	if err := faulted.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if inj, _ := faulted.FaultStats(); inj == 0 {
		t.Fatal("fault spec injected nothing; the test is not exercising the faulted path")
	}

	restored, err := NewTrainer(trainerConfig(sched.HarmonyDP, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.step != faulted.step {
		t.Fatalf("restored step %d, want %d", restored.step, faulted.step)
	}
	contA := stepTrainer(t, faulted, 4, 4)
	contB := stepTrainer(t, restored, 4, 4)
	assertSameRun(t, faulted, restored, contA, contB)
}

// Corrupted snapshots must be rejected with an error — never applied
// partially, never a panic. Each case flips or truncates a specific
// region of a valid checkpoint.
func TestCorruptedSnapshotRejected(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 1)
	tr, _ := runTrainer(t, cfg, 1)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(off int, v uint32) []byte {
		c := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(c[off:], v)
		return c
	}
	cases := []struct {
		name string
		data []byte
		want string // substring the error must contain
	}{
		{"bad magic", mutate(0, 0xdeadbeef), "not a harmony checkpoint"},
		{"implausible step", mutate(8, 0xffffffff), "implausible"},
		{"wrong layer count", mutate(12, 99), "layers"},
		{"wrong param count", mutate(16, 7), "params"},
		{"truncated mid-layer", valid[:len(valid)-6], ""},
		{"empty", nil, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := NewTrainer(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupted checkpoint accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// And the pristine bytes must still load: the corruption cases
	// fail because of the corruption, not an over-strict loader.
	fresh, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// saved returns tr's checkpoint bytes.
func saved(t testing.TB, tr *Trainer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A checkpoint that fails to load part-way — here in its last layer —
// must leave every layer before the failure as it was, not overwritten
// with the checkpoint's.
func TestFailedLoadLeavesTrainerUnchanged(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 1)
	old, _ := runTrainer(t, cfg, 1)
	truncated := saved(t, old)
	truncated = truncated[:len(truncated)-6]
	tr, _ := runTrainer(t, cfg, 3)
	before := saved(t, tr)
	if err := tr.Load(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if !bytes.Equal(saved(t, tr), before) {
		t.Fatal("a rejected checkpoint changed the trainer")
	}
}

// Load depends only on the checkpoint: an SGD checkpoint carries no
// optimizer state, so a trained Adam trainer and a fresh one that load
// it hold the same state — the moments zeroed, as a fresh trainer's are.
func TestLoadDependsOnlyOnTheCheckpoint(t *testing.T) {
	sgd, _ := runTrainer(t, trainerConfig(sched.HarmonyDP, 1), 2)
	ckpt := saved(t, sgd)
	cfg := trainerConfig(sched.HarmonyDP, 1)
	cfg.Adam, cfg.DeviceBytes, cfg.LR = true, 20<<10, 0.005
	trained, _ := runTrainer(t, cfg, 3)
	fresh, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Trainer{trained, fresh} {
		if err := tr.Load(bytes.NewReader(ckpt)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saved(t, trained), saved(t, fresh)) {
		t.Fatal("a trained and a fresh Adam trainer differ after loading the same SGD checkpoint")
	}
}

// Load moves no byte: what the VM holds of the state it replaces is
// dropped unread, not written back to be overwritten, on a fresh
// trainer (whose weights are born dirty on their devices) and on a
// stepped one alike. Either then trains as the trainer that saved the
// checkpoint goes on to.
func TestLoadMovesNoBytes(t *testing.T) {
	for _, adam := range []bool{false, true} {
		cfg := TrainerConfig{
			Widths: []int{64, 256, 256, 10}, Mode: sched.HarmonyDP, Devices: 2,
			DeviceBytes: 4 << 20, BatchSize: 16, Adam: adam, LR: 0.005, Seed: 42,
		}
		src, _ := runTrainer(t, cfg, 2)
		ckpt := saved(t, src)
		lossSrc := stepTrainer(t, src, 2, 3)
		for _, warm := range []int{0, 1} {
			tr, _ := runTrainer(t, cfg, warm)
			before := tr.Stats()
			if err := tr.Load(bytes.NewReader(ckpt)); err != nil {
				t.Fatal(err)
			}
			after := tr.Stats()
			if moved := after.SwapInBytes + after.SwapOutBytes + after.P2PBytes -
				before.SwapInBytes - before.SwapOutBytes - before.P2PBytes; moved != 0 {
				t.Errorf("Adam %v, Load after %d steps moved %d bytes", adam, warm, moved)
			}
			assertSameRun(t, src, tr, lossSrc, stepTrainer(t, tr, 2, 3))
			tr.Close()
		}
		src.Close()
	}
}
