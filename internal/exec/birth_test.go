package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// readers returns, for each tensor ID, the devices whose compute queues
// read it, in device order.
func readers(s *sched.Schedule) map[int][]int {
	by := make(map[int][]int)
	for d, q := range s.Queues {
		for _, task := range q {
			for _, x := range task.Inputs {
				if devs := by[x.ID]; len(devs) == 0 || devs[len(devs)-1] != d {
					by[x.ID] = append(devs, d)
				}
			}
		}
	}
	return by
}

// residentOn reports the device x's page lives on, -1 when it has none.
func residentOn(tr *Trainer, x *tensor.Tensor) int {
	b, ok := tr.vm.lookup(x.ID)
	if !ok || !b.Load().Resident() {
		return -1
	}
	return int(b.devID.Load())
}

// initCheckpoint is the checkpoint a fresh trainer of tr's plan must
// save: nn.InitKernel's weights and, under Adam, zero moments.
func initCheckpoint(tr *Trainer) []byte {
	var buf bytes.Buffer
	write := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	write(checkpointMagic)
	write(uint64(0))
	write(uint32(len(tr.layers)))
	for l, layer := range tr.layers {
		w := make([]float32, tr.g.W[0][l].Bytes/4)
		nn.InitKernel(layer, w, tr.cfg.Seed+uint64(l)*7919)
		write(uint32(layer.ParamCount()))
		_ = writeFloats(&buf, w[:layer.ParamCount()])
		k := make([]float32, tr.g.K[0][l].Bytes/4)
		write(uint32(len(k)))
		_ = writeFloats(&buf, k)
	}
	return buf.Bytes()
}

// TestWeightsBornWhereFirstRead: under dirty tracking a weight is born
// on the device whose queue reads it, with no host copy, so a plan that
// fits holds no host memory after NewTrainer and its first step moves
// only the inputs across the link. A device too small for its weights
// spills, through ordinary write-back, the ones step 1 reads last; and
// recovery bears the weights again on the survivor.
func TestWeightsBornWhereFirstRead(t *testing.T) {
	fused := commConfig(2, 0)
	fused.Devices = 4
	plans := []struct {
		name string
		cfg  TrainerConfig
	}{
		{"dp1", trainerConfig(sched.HarmonyDP, 1)},
		{"dp2", trainerConfig(sched.HarmonyDP, 2)},
		{"dp4-fused", fused},
		{"pp2", trainerConfig(sched.HarmonyPP, 2)},
	}
	for _, p := range plans {
		for _, adam := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/adam=%v", p.name, adam), func(t *testing.T) {
				cfg := p.cfg
				cfg.DeviceBytes, cfg.Adam = 1<<20, adam
				if adam {
					cfg.LR = 0.005
				}
				tr, err := NewTrainer(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				if p.name == "dp4-fused" && tr.s.FusedUpdate() == adam {
					t.Fatalf("fused update %v under Adam %v", tr.s.FusedUpdate(), adam)
				}
				if hb := tr.HostBytes(); hb != 0 {
					t.Fatalf("NewTrainer left %d bytes of host backing", hb)
				}
				by := readers(tr.s)
				for r := range tr.g.W {
					for _, w := range tr.g.W[r] {
						if w.Bytes == 0 {
							continue
						}
						if devs := by[w.ID]; len(devs) != 1 || residentOn(tr, w) != devs[0] {
							t.Fatalf("replica %d %v: read by devices %v, resident on %d", r, w, devs, residentOn(tr, w))
						}
					}
				}
				stepTrainer(t, tr, 0, 1)
				in := int64(tr.SamplesPerStep()*tr.inDim) * 4
				if got := tr.Stats().SwapInBytes; got != in {
					t.Fatalf("step 1 swapped in %d bytes, want the inputs' %d", got, in)
				}
				// Save hands every page a host copy, so it reads a trainer
				// of its own.
				fresh, err := NewTrainer(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Close()
				if got, want := saved(t, fresh), initCheckpoint(fresh); !bytes.Equal(got, want) {
					t.Fatal("the born weights are not nn.InitKernel's")
				}
			})
		}
	}

	t.Run("pressure", func(t *testing.T) {
		row := pressureRows[0]
		cfg := TrainerConfig{
			Widths: row.widths, Mode: row.mode, Devices: row.devices,
			DeviceBytes: row.mem, BatchSize: row.batch, Microbatches: 4,
			LR: 0.005, Seed: 42,
		}
		tight, err := NewTrainer(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tight.Close()
		if st := tight.Stats(); st.SwapOutBytes == 0 || st.SwapInBytes != 0 || tight.HostBytes() != st.SwapOutBytes {
			t.Fatalf("birth on a %d-byte device: %+v, %d host bytes; want the spill written back and nothing else moved",
				row.mem, st, tight.HostBytes())
		}
		// Born last-read first, the device keeps the weights step 1 reads
		// first: the resident ones are a prefix of the first-use order.
		seen, spilled := make(map[*tensor.Tensor]bool), false
		for _, task := range tight.s.Queues[0] {
			for _, w := range task.Inputs {
				switch {
				case w.Kind != tensor.Weight || seen[w]:
				case residentOn(tight, w) < 0:
					seen[w], spilled = true, true
				case spilled:
					t.Fatalf("%v is resident but a weight read before it was spilled", w)
				default:
					seen[w] = true
				}
			}
		}
		if !spilled {
			t.Fatal("every weight fit: the row is not under pressure at birth")
		}
		lossTight := stepTrainer(t, tight, 0, 3)
		ref := cfg
		ref.Serial, ref.DeviceBytes = true, 1<<30
		roomy, lossRoomy := runTrainer(t, ref, 3)
		defer roomy.Close()
		assertSameRun(t, roomy, tight, lossRoomy, lossTight)
	})

	t.Run("recovery", func(t *testing.T) {
		const steps = 4
		ref := trainerConfig(sched.HarmonyDP, 2)
		ref.DeviceBytes = 1 << 20
		a, lossA := runTrainer(t, ref, steps)
		defer a.Close()
		cfg := faultyConfig(sched.HarmonyDP, "op=kernel,mode=fatal,dev=1,step=3", true)
		cfg.DeviceBytes = 1 << 20
		b, lossB := runTrainer(t, cfg, steps)
		defer b.Close()
		if b.Recoveries() != 1 {
			t.Fatalf("recoveries = %d, want 1", b.Recoveries())
		}
		assertSameRun(t, a, b, lossA, lossB)
		for r := range b.g.W {
			for _, w := range b.g.W[r] {
				if on := residentOn(b, w); w.Bytes > 0 && on != 0 {
					t.Fatalf("replica %d %v resident on %d after device 1 died, want the survivor", r, w, on)
				}
			}
		}
		// Reborn where it is read, no weight ever crossed a link: what
		// swapped in is inputs, the re-run step's included, and nothing
		// moved between devices.
		in := int64(b.SamplesPerStep()*b.inDim) * 4
		if st := b.Stats(); st.SwapInBytes > (steps+1)*in || st.P2PBytes != 0 {
			t.Fatalf("swapped in %d bytes over %d steps and a re-run (inputs are %d a step), %d p2p",
				st.SwapInBytes, steps, in, st.P2PBytes)
		}
	})
}

// TestReplicasBornBitIdentical: only a layer's first birth runs its
// initializer; every other replica's weights are copied from that page
// wherever it is — resident, written back because its device is too
// small, or host-born under the naive policy. However they were born,
// every replica's weights read back as nn.InitKernel's, bit for bit.
func TestReplicasBornBitIdentical(t *testing.T) {
	// Five 256×256 layers, 1.26 MiB of weights a replica, on devices
	// that hold an Adam update's pins (1.0 MiB) but not the weights.
	tight := TrainerConfig{
		Widths: []int{64, 256, 256, 256, 256, 256, 256, 10}, Mode: sched.HarmonyDP, Devices: 2,
		DeviceBytes: 1152 << 10, BatchSize: 32, Microbatches: 4, LR: 0.005, Seed: 42,
	}
	type cell struct {
		name string
		cfg  TrainerConfig
	}
	var cells []cell
	for _, devices := range []int{2, 4} {
		for _, chunks := range []int{0, 2} {
			cfg := trainerConfig(sched.HarmonyDP, devices)
			cfg.DeviceBytes, cfg.CommChunks = 1<<20, chunks
			cells = append(cells, cell{fmt.Sprintf("dp%d/chunks=%d", devices, chunks), cfg})
		}
	}
	baseline := trainerConfig(sched.DPBaseline, 2)
	baseline.DeviceBytes = 1 << 20
	faulty := tight
	faulty.FaultSpec = "op=swap-out,mode=transient,count=2"
	cells = append(cells, cell{"dp2-pressure", tight}, cell{"dp-baseline", baseline}, cell{"dp2-pressure/transient-swap-out", faulty})
	for _, c := range cells {
		for _, adam := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/adam=%v", c.name, adam), func(t *testing.T) {
				cfg := c.cfg
				cfg.Adam = adam
				if adam {
					cfg.LR = 0.005
				}
				tr, err := NewTrainer(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				if cfg.DeviceBytes == tight.DeviceBytes {
					// On two devices every first birth is replica 1's, on
					// gpu1, made before any copy to gpu0 reads one: a
					// first-born page written back by then was copied from
					// its host backing.
					spilled := 0
					for _, w := range tr.g.W[1] {
						if w.Bytes > 0 && residentOn(tr, w) < 0 {
							spilled++
						}
					}
					if st := tr.Stats(); st.SwapOuts == 0 || spilled == 0 {
						t.Fatalf("births wrote back %d pages, %d of them first-born: the row is not under pressure", st.SwapOuts, spilled)
					}
				}
				if injected, _ := tr.FaultStats(); (cfg.FaultSpec != "") != (injected > 0) {
					t.Fatalf("%d faults injected during births under %q", injected, cfg.FaultSpec)
				}
				for l, layer := range tr.layers {
					want := make([]float32, tr.g.W[0][l].Bytes/4)
					if len(want) == 0 {
						continue
					}
					nn.InitKernel(layer, want, cfg.Seed+uint64(l)*7919)
					for r := range tr.g.W {
						got := readBack(t, tr.vm, tr.g.W[r][l])
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("replica %d layer %d weight %d: %v, want %v", r, l, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}
