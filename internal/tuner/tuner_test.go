package tuner

import (
	"testing"

	"harmony/internal/hw"
	"harmony/internal/models"
	"harmony/internal/sched"
)

func tunerConfig(mode sched.Mode, batch int) Config {
	model := models.Uniform("tune", 8, 100_000, 256<<10, 5e9)
	box := hw.Commodity1080TiBox(2)
	// Half the persistent footprint: the virtualization regime.
	box.GPUMemBytes = model.PersistentBytes() / 2
	return Config{Model: model, Mode: mode, Box: box, BatchPerReplica: batch}
}

func TestSpaceEnumeration(t *testing.T) {
	cands := Space(sched.HarmonyPP, 4)
	// Batch 4: splits 1×4, 2×2, 4×1; groups per split; prefetch ×2.
	if len(cands) == 0 {
		t.Fatal("empty space")
	}
	seen := map[Candidate]bool{}
	for _, c := range cands {
		if c.MicrobatchSize*c.Microbatches != 4 {
			t.Fatalf("candidate %s does not preserve the batch", c)
		}
		if seen[c] {
			t.Fatalf("duplicate candidate %s", c)
		}
		seen[c] = true
		if c.Defer {
			t.Fatal("defer is only meaningful for harmony-dp")
		}
	}
	// DP space includes defer variants.
	dp := Space(sched.HarmonyDP, 4)
	hasDefer := false
	for _, c := range dp {
		if c.Defer {
			hasDefer = true
		}
	}
	if !hasDefer {
		t.Fatal("dp space should explore defer")
	}
	// Every Tune measures the whole grid, so its size is its cost: a
	// new search dimension shows up here.
	batches := []int{4, 8, 32, 64}
	for mode, want := range map[sched.Mode][4]int{
		sched.DPBaseline: {6, 8, 12, 14},
		sched.PPBaseline: {6, 8, 12, 14},
		sched.TPBaseline: {6, 8, 12, 14},
		sched.HarmonyDP:  {24, 40, 84, 112},
		sched.HarmonyPP:  {18, 32, 72, 98},
		sched.HarmonyTP:  {12, 20, 42, 56},
	} {
		for i, batch := range batches {
			if got := len(Space(mode, batch)); got != want[i] {
				t.Errorf("%v batch %d: %d candidates, want %d", mode, batch, got, want[i])
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := tunerConfig(sched.HarmonyPP, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Model = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil model accepted")
	}
	bad = good
	bad.BatchPerReplica = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero batch accepted")
	}
	bad = good
	bad.Mode = sched.Mode(42)
	if err := bad.Validate(); err == nil || err.Error() != "sched: unknown mode Mode(42)" {
		t.Fatalf("unknown mode: got %v", err)
	}
}

func TestRunFindsFeasibleBest(t *testing.T) {
	res, err := Run(tunerConfig(sched.HarmonyPP, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Feasible || res.Best.Throughput <= 0 {
		t.Fatalf("best = %+v", res.Best)
	}
	// Sorted best-first.
	for i := 1; i < len(res.Measurements); i++ {
		a, b := res.Measurements[i-1], res.Measurements[i]
		if a.Feasible == b.Feasible && a.Throughput < b.Throughput {
			t.Fatal("measurements not sorted by throughput")
		}
	}
	// The best must be at least as good as the naive fully-grouped
	// single-sample candidate.
	for _, m := range res.Measurements {
		if m.Candidate == (Candidate{MicrobatchSize: 1, Microbatches: 4, GroupSize: 0, Prefetch: true}) {
			if res.Best.Throughput < m.Throughput {
				t.Fatal("best worse than a measured candidate")
			}
		}
	}
}

func TestTangoTradeoffVisible(t *testing.T) {
	// Across the measured grid, swap volume and pipeline overlap
	// trade off: on a weight-dominated workload the fully-grouped
	// candidate must have the minimal swap traffic among feasible
	// pipeline candidates with the same microbatch split. (On
	// stash-dominated workloads grouping instead accumulates stash;
	// that is the other side of the tango.)
	model := models.Uniform("heavyw", 8, 1_000_000, 16<<10, 5e9)
	box := hw.Commodity1080TiBox(2)
	// Tight enough that a stage's weights do not all fit: weight
	// swaps dominate and the group-size knob matters.
	box.GPUMemBytes = 20 << 20
	res, err := Run(Config{Model: model, Mode: sched.HarmonyPP, Box: box, BatchPerReplica: 4})
	if err != nil {
		t.Fatal(err)
	}
	var full, waved *Measurement
	for i := range res.Measurements {
		m := &res.Measurements[i]
		c := m.Candidate
		if !m.Feasible || c.MicrobatchSize != 1 || !c.Prefetch {
			continue
		}
		switch c.GroupSize {
		case 0:
			full = m
		case 1:
			waved = m
		}
	}
	if full == nil || waved == nil {
		t.Fatal("expected both fully-grouped and per-microbatch candidates")
	}
	if full.SwapGB >= waved.SwapGB {
		t.Fatalf("full grouping should minimize swap: %.3f GB vs %.3f GB", full.SwapGB, waved.SwapGB)
	}
	// The other side of the tango: the throughput winner is allowed
	// to spend swap volume on pipeline overlap, so the best candidate
	// must never swap less than the fully-grouped one.
	if res.Best.SwapGB < full.SwapGB {
		t.Fatalf("best (%.3f GB) cannot beat full grouping's swap volume (%.3f GB)",
			res.Best.SwapGB, full.SwapGB)
	}
}

// TestInfeasibleWorkloadReported: when nothing fits, the search fails
// and names no best, but keeps every measurement.
func TestInfeasibleWorkloadReported(t *testing.T) {
	cfg := tunerConfig(sched.HarmonyDP, 2)
	cfg.Box.GPUMemBytes = 1 << 10 // nothing fits
	res, err := Run(cfg)
	if err == nil || err.Error() != "tuner: no feasible candidate for tune on 2 GPUs" {
		t.Fatalf("err = %v, want no feasible candidate", err)
	}
	if res.Best.Feasible || res.Best.Throughput != 0 || len(res.Measurements) != len(Space(cfg.Mode, 2)) {
		t.Fatalf("best = %+v after %d candidates", res.Best, len(res.Measurements))
	}
}

func TestSpaceIncludesInterleaveForPipelines(t *testing.T) {
	cands := Space(sched.HarmonyPP, 4)
	hasInterleave := false
	for _, c := range cands {
		if c.Interleave {
			hasInterleave = true
			if c.GroupSize == 0 {
				t.Fatal("interleave only makes sense with a sub-batch group")
			}
		}
	}
	if !hasInterleave {
		t.Fatal("pipeline space should explore wave interleaving")
	}
	for _, c := range Space(sched.HarmonyDP, 4) {
		if c.Interleave {
			t.Fatal("dp space should not interleave")
		}
	}
}

// A baseline does not group, so its space keeps the baseline wave
// shape, a group of one interleaved, and measures each plan once.
func TestBaselineSpaceKeepsItsWaveShape(t *testing.T) {
	for _, mode := range []sched.Mode{sched.DPBaseline, sched.PPBaseline, sched.TPBaseline} {
		cands := Space(mode, 4)
		if len(cands) != 6 { // 3 splits × prefetch
			t.Errorf("%v: %d candidates, want 6", mode, len(cands))
		}
		for _, c := range cands {
			if c.GroupSize != 1 || !c.Interleave {
				t.Errorf("%v: candidate %s leaves the baseline wave shape", mode, c)
			}
		}
	}
}
