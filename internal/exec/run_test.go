package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"harmony/internal/sched"
	"harmony/internal/schedcheck"
)

// TestRunsAdmittedAtTheirBoundBitIdentical holds a run — a wave's
// microbatches of one layer, one kernel call over all their rows — to
// schedcheck's bound, which counts a run's distinct tensors: its layer's
// W and dW once, each member's activations once. Every plan of a small
// shape × mode matrix trains four microbatches a replica with room to
// spare, where its runs form. Rebuilt at exactly the largest
// PeakPinBytes the check reports for it, it keeps every run whole and
// must train to the same losses and weights: a run that pinned one byte
// more than the bound would fail its acquisition, the device having
// nothing else to evict. At the bound of runs of one (what the check
// reports for a capacity nothing fits, the per-task bound the plan was
// admitted at before runs), every run on a device whose grouped bound
// does not fit is narrowed to one task, the plan is still admitted and
// trains to the same bits; one byte less is refused.
func TestRunsAdmittedAtTheirBoundBitIdentical(t *testing.T) {
	for _, widths := range [][]int{{16, 32, 32, 4}, {64, 96, 64, 10}} {
		for _, p := range []struct {
			name    string
			mode    sched.Mode
			devices int
			chunks  int
		}{
			{"dp1", sched.HarmonyDP, 1, 0},
			{"dp2", sched.HarmonyDP, 2, 0},
			{"dp2-chunk2", sched.HarmonyDP, 2, 2},
			{"pp2", sched.HarmonyPP, 2, 0},
		} {
			for opt, adam := range []bool{false, true} {
				cfg := TrainerConfig{
					Widths: widths, Mode: p.mode, Devices: p.devices, DeviceBytes: 1 << 30,
					BatchSize: 16, Microbatches: 4, Adam: adam, LR: 0.01, Seed: 3, CommChunks: p.chunks,
				}
				t.Run(fmt.Sprintf("%v/%s/opt%d", widths, p.name, opt), func(t *testing.T) {
					roomy, want := runTrainer(t, cfg, 3)
					defer roomy.Close()
					if longestRun(roomy) < 2 {
						t.Fatal("no run of more than one task with room to spare")
					}
					topo := schedcheck.Topology{Devices: cfg.Devices, DeviceBytes: cfg.DeviceBytes}
					grouped := schedcheck.Check(roomy.s, topo).PeakPinBytes
					topo.DeviceBytes = 1
					single := schedcheck.Check(roomy.s, topo).PeakPinBytes

					at := cfg
					at.DeviceBytes = slices.Max(grouped)
					tight, got := runTrainer(t, at, 3)
					defer tight.Close()
					if !sameRuns(roomy.streams, tight.streams) {
						t.Fatalf("runs narrowed at the %d-byte grouped bound", at.DeviceBytes)
					}
					assertSameRun(t, roomy, tight, want, got)

					at.DeviceBytes = slices.Max(single)
					narrow, got := runTrainer(t, at, 3)
					defer narrow.Close()
					for d, st := range narrow.streams.Dev {
						for _, e := range st {
							if len(e.Run) > 1 && grouped[d] > at.DeviceBytes {
								t.Fatalf("gpu%d keeps the run %s at the %d-byte bound of runs of one (grouped %d)",
									d, e.Label(), at.DeviceBytes, grouped[d])
							}
						}
					}
					assertSameRun(t, roomy, narrow, want, got)

					at.DeviceBytes--
					if _, err := NewTrainer(at, nil); err == nil || !strings.Contains(err.Error(), "capacity") {
						t.Fatalf("capacity below the bound of runs of one admitted: %v", err)
					}
				})
			}
		}
	}
}

// sameRuns reports whether a and b cut their streams into the same runs.
func sameRuns(a, b *sched.Streams) bool {
	for d := range a.Dev {
		if len(a.Dev[d]) != len(b.Dev[d]) {
			return false
		}
		for i, e := range a.Dev[d] {
			if len(e.Run) != len(b.Dev[d][i].Run) {
				return false
			}
		}
	}
	return true
}

// TestRunFaultAtMemberRecoversBitIdentical: a run consults each
// member's fault site in stream order and acquires each member's
// footprint in turn, so a fault can land on any member, not only the
// run's head. Here it lands on member 2 of a run of four on gpu1 at step
// 2 — at the kernel site of layer 1's forward run, and at the swap-in
// site of the input layer 0's forward run reads (two delay rules that
// fire first take occurrences 0 and 1). On a pipeline under swap
// pressure it lands on a backward run its layer's Update closes: at the
// kernel site of that Update, the run's last member (eight delays take
// the layer's forward and backward members), and at the swap-in of the
// weights the run's first member brings back — the Update's own
// acquisition swaps nothing in, its footprint being pinned by the
// members before it. Without Recover the step fails and the error
// names the member's task and its device; with Recover the run is
// rolled back with the rest of the step and the training is
// bit-identical to the fault-free one, on both executors.
func TestRunFaultAtMemberRecoversBitIdentical(t *testing.T) {
	dp := trainerConfig(sched.HarmonyDP, 2)
	dp.DeviceBytes = 1 << 20
	pp := TrainerConfig{
		Widths: []int{64, 256, 256, 256, 256, 256, 256, 10}, Mode: sched.HarmonyPP, Devices: 2,
		DeviceBytes: 1152 << 10, BatchSize: 32, Microbatches: 4, LR: 0.005, Seed: 42, PrefetchDepth: -1,
	}
	for _, site := range []struct {
		cfg        TrainerConfig
		op, member string
		layer      int
		delays     int
		run        string // the run member lands in
		name       string
	}{
		{dp, "kernel", "FWD[r1,L1,mb2]", 1, 2, "FWD[r1,L1,mb0..3]", "kernel"},
		{dp, "swap-in", "FWD[r1,L0,mb2]", 0, 2, "FWD[r1,L0,mb0..3]", "swap-in"},
		{pp, "kernel", "UPD[r0,L4]", 4, 8, "BWD[r0,L4,mb0..3]+UPD", "kernel-fused"},
		{pp, "swap-in", "BWD[r0,L3,mb0]", 3, 0, "BWD[r0,L3,mb0..3]+UPD", "swap-in-fused"},
	} {
		ref, want := runTrainer(t, site.cfg, 4)
		defer ref.Close()
		if !slices.ContainsFunc(ref.streams.Dev[1], func(e sched.StreamEntry) bool { return e.Label() == site.run }) {
			t.Fatalf("%s is no run of gpu1's stream", site.run)
		}
		rule := fmt.Sprintf("op=%s,dev=1,step=2,layer=%d", site.op, site.layer)
		spec := rule + ",mode=fatal"
		if site.delays > 0 {
			spec = fmt.Sprintf("%s,mode=delay,delay=0s,count=%d;%s", rule, site.delays, spec)
		}
		for _, serial := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/serial=%v", site.name, serial), func(t *testing.T) {
				cfg := site.cfg
				cfg.FaultSpec, cfg.Serial = spec, serial
				tr, err := NewTrainer(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				stepTrainer(t, tr, 0, 1)
				_, err = stepsWithin(t, tr, 1, 1)
				if err == nil || !strings.Contains(err.Error(), site.member+" on gpu1") {
					t.Fatalf("step 2 error %v, want it to name %s on gpu1", err, site.member)
				}

				cfg.Recover = true
				rec, got := runTrainer(t, cfg, 4)
				defer rec.Close()
				if rec.Recoveries() != 1 {
					t.Fatalf("%d recoveries, want 1", rec.Recoveries())
				}
				assertSameRun(t, ref, rec, want, got)
			})
		}
	}
}

// TestFusedUpdateBitIdenticalToSeparateUpdate: on single-replica SGD
// plans each layer's Update closes its last backward run, whose one
// kernel call applies it (nn.Update.SGD). The same plan with every such
// Update run alone after its backward — the ApplySGD path — must train
// to the same losses and weights, on both executors: data-parallel on
// one device and a two-stage pipeline, in one wave and in waves of two,
// where the last wave's run accumulates onto the first's gradient
// before it applies it.
func TestFusedUpdateBitIdenticalToSeparateUpdate(t *testing.T) {
	for _, p := range []struct {
		name    string
		mode    sched.Mode
		devices int
	}{{"dp1", sched.HarmonyDP, 1}, {"pp2", sched.HarmonyPP, 2}} {
		for _, group := range []int{0, 2} {
			for _, serial := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/group=%d/serial=%v", p.name, group, serial), func(t *testing.T) {
					cfg := TrainerConfig{
						Widths: []int{64, 96, 64, 10}, Mode: p.mode, Devices: p.devices, DeviceBytes: 1 << 20,
						BatchSize: 16, Microbatches: 4, LR: 0.01, Seed: 5, Serial: serial,
						Toggles: &sched.Toggles{GroupSize: group},
					}
					fused, want := runTrainer(t, cfg, 4)
					defer fused.Close()
					if n := fusedRuns(fused.streams); n != len(cfg.Widths)-1 {
						t.Fatalf("%d runs closed by their update, want one a layer", n)
					}
					sep, err := NewTrainer(cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer sep.Close()
					sep.install(sep.s, separateUpdates(sep.streams))
					if n := fusedRuns(sep.streams); n != 0 {
						t.Fatalf("%d fused runs left", n)
					}
					got := stepTrainer(t, sep, 0, 4)
					assertSameRun(t, fused, sep, want, got)
				})
			}
		}
	}
}

// fusedRuns counts the runs of ws an Update closes.
func fusedRuns(ws *sched.Streams) int {
	n := 0
	for _, st := range ws.Dev {
		for _, e := range st {
			if len(e.Kernel()) < len(e.Run) {
				n++
			}
		}
	}
	return n
}

// separateUpdates returns ws with every Update that closes a run moved
// into a run of its own right after it.
func separateUpdates(ws *sched.Streams) *sched.Streams {
	out := *ws
	out.Dev = make([][]sched.StreamEntry, len(ws.Dev))
	for d, st := range ws.Dev {
		for _, e := range st {
			if k := len(e.Kernel()); k < len(e.Run) {
				out.Dev[d] = append(out.Dev[d], sched.StreamEntry{Task: e.Task, Run: e.Run[:k], Rdv: -1},
					sched.StreamEntry{Task: e.Run[k], Run: e.Run[k:], Rdv: -1})
				continue
			}
			out.Dev[d] = append(out.Dev[d], e)
		}
	}
	return &out
}
