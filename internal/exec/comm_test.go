package exec

import (
	"runtime"
	"testing"

	"harmony/internal/nn"
	"harmony/internal/sched"
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
