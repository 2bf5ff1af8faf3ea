package exec

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"harmony/internal/sched"
)

// FuzzLoad feeds arbitrary bytes to the checkpoint loader: it must
// reject garbage with an error that leaves the trainer's state as it
// was, never panic, and never let a corrupt length field drive an
// implausible allocation. The seed corpus
// covers a valid checkpoint plus the truncations and field
// corruptions that historically mattered (a flipped optimizer-count
// uint32 used to allocate gigabytes before validation).
func FuzzLoad(f *testing.F) {
	cfg := trainerConfig(sched.HarmonyPP, 2)
	cfg.Adam = true            // exercise the optimizer-state path too
	cfg.DeviceBytes = 20 << 10 // Adam triples the update pin set (see TestAdamTraining)
	tr, err := NewTrainer(cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:4])            // magic only
	f.Add(valid[:len(valid)/2]) // mid-layer truncation
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	corrupt := func(off int, v uint32) []byte {
		c := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(c[off:], v)
		return c
	}
	// Offsets: magic u32, step u64, layers u32, then per layer
	// pn u32 + pn floats + on u32 + on floats.
	f.Add(corrupt(4, 0xffffffff))  // absurd step (low word)
	f.Add(corrupt(8, 0xffffffff))  // absurd step (high word)
	f.Add(corrupt(12, 0xffffffff)) // absurd layer count
	pn := uint32(tr.layers[0].ParamCount())
	f.Add(corrupt(16, 0xffffffff))           // absurd param count
	f.Add(corrupt(20+int(pn)*4, 0x7fffffff)) // absurd optimizer count

	f.Fuzz(func(t *testing.T, data []byte) {
		before := saved(t, tr)
		if err := tr.Load(bytes.NewReader(data)); err != nil {
			if strings.Contains(err.Error(), "panic") {
				t.Fatalf("loader leaked a panic into its error: %v", err)
			}
			if !bytes.Equal(saved(t, tr), before) {
				t.Fatalf("a rejected checkpoint changed the trainer: %v", err)
			}
		}
	})
}

// TestLoadRejectsCorruptCounts pins the specific FuzzLoad findings as
// deterministic regressions: oversized count fields must fail fast
// with an error instead of allocating or panicking.
func TestLoadRejectsCorruptCounts(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyPP, 2)
	cfg.Adam = true
	cfg.DeviceBytes = 20 << 10
	tr, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	pn := tr.layers[0].ParamCount()
	cases := []struct {
		name string
		off  int
		v    uint32
	}{
		{"step", 8, 0xffffffff},
		{"layers", 12, 0xffffffff},
		{"params", 16, 0xffffffff},
		{"optimizer", 20 + pn*4, 0x7fffffff},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(data[c.off:], c.v)
			if err := tr.Load(bytes.NewReader(data)); err == nil {
				t.Fatalf("corrupt %s count accepted", c.name)
			}
		})
	}
	// A pristine checkpoint still loads after all the rejections.
	if err := tr.Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}
