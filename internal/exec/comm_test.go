package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"harmony/internal/nn"
	"harmony/internal/sched"
	"harmony/internal/trace"
)

// commConfig is the standard DP test shape with the comm knobs on.
// Chunked demand is additive across workers, so it gets headroom over
// the 12 KB default while staying well below the ~45 KB footprint.
func commConfig(chunks int, bucket int64) TrainerConfig {
	cfg := trainerConfig(sched.HarmonyDP, 2)
	cfg.DeviceBytes = 16 << 10
	cfg.CommChunks = chunks
	cfg.CommBucketBytes = bucket
	return cfg
}

// TestChunkedCollectivesBitIdentical is the chunked/bucketed axis of
// the bit-exact matrix: chunk boundaries, bucket membership and
// reducer assignment are pure functions of the plan, and the
// per-element summation order never changes, so every comm profile
// must reproduce the serial reference bit for bit — losses and
// weights.
func TestChunkedCollectivesBitIdentical(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	ref := commConfig(0, 0)
	ref.Serial = true
	a, lossA := runTrainer(t, ref, 4)
	for _, tc := range []struct {
		name   string
		chunks int
		bucket int64
	}{
		{"monolithic", 0, 0},
		{"chunked", 3, 0},
		{"chunked-bucketed", 3, 8 << 10},
		{"bucketed-single-chunk", 0, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, lossB := runTrainer(t, commConfig(tc.chunks, tc.bucket), 4)
			assertSameRun(t, a, b, lossA, lossB)
		})
	}
	// A pooling layer has no weights, so its collective carries no
	// bytes: the plan gives it one empty chunk, whose reducer retires it
	// like any other member.
	t.Run("lenet-chunked", func(t *testing.T) {
		ref := convNetConfig(sched.HarmonyDP)
		ref.Serial = true
		a, err := NewTrainer(ref, lenetKernels())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		lossA := stepTrainer(t, a, 0, 4)
		cfg := convNetConfig(sched.HarmonyDP)
		cfg.CommChunks = 2
		b, err := NewTrainer(cfg, lenetKernels())
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		lossB := stepTrainer(t, b, 0, 4)
		assertSameRun(t, a, b, lossA, lossB)
	})
}

// Delay faults on the chunked path perturb which worker's chunks run
// when — but never the math. Same serial reference, bit for bit.
func TestChunkedDelayFaultsBitExact(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	ref := commConfig(0, 0)
	ref.Serial = true
	a, lossA := runTrainer(t, ref, 3)
	cfg := commConfig(4, 8<<10)
	cfg.FaultSpec = "op=collective,mode=delay,delay=300us,count=20"
	b, lossB := runTrainer(t, cfg, 3)
	assertSameRun(t, a, b, lossA, lossB)
	if injected, _ := b.FaultStats(); injected == 0 {
		t.Fatal("collective delay rule never fired")
	}
}

// CommStats must account every planned chunk exactly once per step.
func TestCommStatsAccounting(t *testing.T) {
	const steps = 2
	tr, _ := runTrainer(t, commConfig(3, 0), steps)
	var chunks, bytes int64
	for _, b := range tr.s.Comm {
		chunks += int64(len(b.Chunks))
		bytes += b.Bytes
	}
	cs := tr.CommStats()
	if cs.ChunksReduced != steps*chunks || cs.BytesReduced != steps*bytes {
		t.Fatalf("CommStats = %+v, want %d chunks / %d bytes (%d steps × plan)",
			cs, steps*chunks, steps*bytes, steps)
	}
	if mono, _ := runTrainer(t, commConfig(0, 0), 1); mono.CommStats() != (CommStats{}) {
		t.Fatalf("monolithic plan accumulated comm stats: %+v", mono.CommStats())
	}
}

// TestChunkedCollectiveFaultRecovery extends the recovery matrix to
// the chunked axis: a fatal fault injected mid-chunk (op=collective on
// the reducing worker) must kill the device, roll back to the last
// completed update, re-bind the dead worker's chunks to the survivor
// and finish — bit-identical to a fault-free chunked run, and
// reproducible across repeats.
func TestChunkedCollectiveFaultRecovery(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	ref := commConfig(3, 8<<10)
	// Recovery doubles up both virtual devices' pin sets on the
	// survivor: same headroom as the monolithic recovery test.
	ref.DeviceBytes = 32 << 10
	a, lossA := runTrainer(t, ref, steps)

	run := func() (*Trainer, []float32) {
		cfg := commConfig(3, 8<<10)
		cfg.DeviceBytes = 32 << 10
		cfg.FaultSpec, cfg.Recover = "op=collective,mode=fatal,dev=1,step=3", true
		return runTrainer(t, cfg, steps)
	}
	b, lossB := run()
	assertSameRun(t, a, b, lossA, lossB)
	if got := b.Recoveries(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	if alive := b.alive; alive[1] || !alive[0] {
		t.Fatalf("alive = %v, want device 1 dead", alive)
	}
	if injected, _ := b.FaultStats(); injected != 1 {
		t.Fatalf("injected = %d, want exactly the armed fatal", injected)
	}
	for rep := 0; rep < 4; rep++ {
		c, lossC := run()
		assertSameRun(t, b, c, lossB, lossC)
	}
}

// Retuning between steps rebuilds the comm plan for the new graph; the
// chunked run must keep training bit-identically to a run that used
// the retuned shape from the start... which itself matches the serial
// reference. Here we only require the retune to be accepted and the
// run to keep matching the serial reference's convergence exactly
// after adoption (losses depend only on math, not plan shape).
func TestChunkedPlanSurvivesRetune(t *testing.T) {
	cfg := commConfig(4, 8<<10)
	cfg.DeviceBytes = 32 << 10 // headroom for the retune's larger microbatches
	tr, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.comm == nil {
		t.Fatal("chunked config built no runtime comm plan")
	}
	if err := tr.Retune(2); err != nil {
		t.Fatal(err)
	}
	if tr.comm == nil {
		t.Fatal("comm plan lost across retune")
	}
	if tr.s.Opts.CommChunks != 4 || tr.s.Opts.CommBucketBytes != 8<<10 {
		t.Fatalf("comm knobs lost across retune: %+v", tr.s.Opts)
	}
}

// latticeBps makes a byte hold a link for 2 ms, the quantum: every link
// time is a multiple of it, so on a manual clock every wait a lane owes
// is slept in full and no lane ever carries debt. A span's clock time
// then says exactly when its lane was free.
const latticeBps = int64(time.Second / linkQuantum)

// TestReductionsAreWaitedForByTheirReaders: a reduction's link time is
// booked by whoever reduces and waited for by the updates that read it.
// On a manual clock with a recorder, over DP4 on every collective path,
// each update's compute span starts at or after the end of the last
// reservation of its layer's collective; the devices' links carry
// exactly the closed form 2·(n−1)·Σ|dW| / bps of reduction time a step;
// and the serial path's reduce advances the clock not at all.
func TestReductionsAreWaitedForByTheirReaders(t *testing.T) {
	for _, tc := range []struct {
		name   string
		serial bool
		chunks int
		bucket int64
	}{
		{"serial", true, 0, 0},
		{"monolithic", false, 0, 0},
		{"chunked", false, 3, 0},
		{"chunked-bucketed", false, 3, 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := commConfig(tc.chunks, tc.bucket)
			cfg.Devices, cfg.DeviceBytes, cfg.Serial = 4, 1<<20, tc.serial
			cfg.LinkBytesPerSec = latticeBps
			tr, clk := onManualClock(t, cfg)
			stepTrainer(t, tr, 0, 1) // the weights' first swap-ins
			n := int64(tr.Replicas())
			var dW int64
			for _, x := range tr.g.DW[0] {
				dW += x.Bytes
			}
			closedForm := time.Duration(2*(n-1)*dW) * linkQuantum
			for s := 1; s <= 2; s++ {
				links0, comm0 := tr.LinkStats(), tr.CommStats()
				tl := tr.EnableTrace()
				stepTrainer(t, tr, s, 1)
				links1, comm1 := tr.LinkStats(), tr.CommStats()

				// Every swap crosses its device's link and the uplink; what
				// else the device links carried is the reductions.
				reduced := -(links1.Uplink - links0.Uplink)
				for d := range links1.Device {
					reduced += links1.Device[d] - links0.Device[d]
				}
				if reduced != closedForm {
					t.Errorf("step %d: device links carried %v of reductions, want 2·(%d−1)·%d B / bps = %v", s, reduced, n, dW, closedForm)
				}
				if w := time.Duration(comm1.WaitNanos - comm0.WaitNanos); w <= 0 || w > closedForm {
					t.Errorf("step %d: readers waited %v for reductions, want (0, %v]", s, w, closedForm)
				}

				ends := make([]float64, len(tr.layers)) // per layer, its last reservation's end
				seen := make([]bool, len(tr.layers))
				for _, e := range tl.Events {
					var l int
					if _, err := fmt.Sscanf(e.Label, "AR[L%d]", &l); e.Lane == trace.Comms && err == nil {
						ends[l], seen[l] = max(ends[l], float64(e.End)), true
					}
				}
				updates := 0
				for _, e := range tl.Events {
					var r, l int
					if _, err := fmt.Sscanf(e.Label, "UPD[r%d,L%d]", &r, &l); e.Lane != trace.Compute || err != nil {
						continue
					}
					updates++
					if !seen[l] || float64(e.Start) < ends[l] {
						t.Errorf("step %d: %s starts at %.3f s, before its collective's link time ends at %.3f s", s, e.Label, float64(e.Start), ends[l])
					}
				}
				if want := int(n) * len(tr.layers); updates != want {
					t.Errorf("step %d: %d update spans, want %d", s, updates, want)
				}
			}

			if tc.serial {
				ar := tr.s.Collectives[0]
				before := clk.Now()
				end, err := tr.reduce(-1, ar, 0, int(ar.CommBytes/4), false)
				if err != nil {
					t.Fatal(err)
				}
				if now := clk.Now(); now != before {
					t.Errorf("the serial reduce moved the clock by %v", now.Sub(before))
				}
				if want := time.Duration(2*(n-1)*ar.CommBytes) * linkQuantum; end.Sub(before) < want {
					t.Errorf("the serial reduce's link time ends %v after the clock, want at least %v", end.Sub(before), want)
				}
			}
		})
	}
}

// TestCommWaitIsTheExposedReduction: CommStats.WaitNanos is zero with no
// link modeled, and on a one-layer DP2 serial plan, where nothing runs
// beside the one reduction, it is the whole of the reduction's link
// time.
func TestCommWaitIsTheExposedReduction(t *testing.T) {
	off, _ := runTrainer(t, commConfig(3, 0), 2)
	if w := off.CommStats().WaitNanos; w != 0 {
		t.Errorf("waited %d ns for reductions with no link modeled", w)
	}

	cfg := trainerConfig(sched.HarmonyDP, 2)
	cfg.Widths, cfg.Serial, cfg.LinkBytesPerSec = []int{16, 4}, true, latticeBps
	tr, _ := onManualClock(t, cfg)
	const steps = 3
	stepTrainer(t, tr, 0, steps)
	want := steps * time.Duration(2*tr.g.DW[0][0].Bytes) * linkQuantum
	if got := time.Duration(tr.CommStats().WaitNanos); got != want {
		t.Errorf("waited %v for reductions over %d steps, want all %v of their link time", got, steps, want)
	}
}
