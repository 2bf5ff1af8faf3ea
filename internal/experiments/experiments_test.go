package experiments

import (
	"strings"
	"testing"

	"harmony/internal/models"
)

func TestFig1Shape(t *testing.T) {
	rows := Fig1()
	if len(rows) != 7 {
		t.Fatalf("fig1 rows = %d, want 7", len(rows))
	}
	if rows[0].Name != "LeNet" || rows[len(rows)-1].Name != "GPT-3" {
		t.Fatal("fig1 should span LeNet..GPT-3")
	}
	// Log-scale growth: ~6.5 orders of magnitude over two decades.
	growth := rows[len(rows)-1].Log10Params - rows[0].Log10Params
	if growth < 6 || growth > 7 {
		t.Fatalf("log10 growth = %.2f, want ≈6.5", growth)
	}
}

func TestFig2aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := DefaultFig2a()
	rows, err := Fig2a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Swap volume grows ~linearly with N.
	r4 := rows[3].SwapOutGB / rows[0].SwapOutGB
	if r4 < 3.2 || r4 > 4.8 {
		t.Fatalf("swap-out at 4 GPUs = %.2fx of 1 GPU, want ≈4x (rows: %+v)", r4, rows)
	}
	// Throughput is throttled by the shared host link: far below
	// linear scaling.
	s4 := rows[3].Throughput / rows[0].Throughput
	if s4 > 3.0 {
		t.Fatalf("throughput scaled %.2fx on 4 GPUs; bottleneck should throttle it well below linear", s4)
	}
	if s4 < 0.8 {
		t.Fatalf("throughput collapsed (%.2fx); expected rough saturation", s4)
	}
}

func TestFig2cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := Fig2c(models.BERT48(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	head, tail := rows[0], rows[3]
	if !head.OverCap {
		t.Fatalf("head stage should exceed GPU capacity: %+v", head)
	}
	if head.DemandGB <= tail.DemandGB {
		t.Fatalf("head demand (%.1f GB) should exceed tail (%.1f GB)", head.DemandGB, tail.DemandGB)
	}
	if head.SwapOutGB <= tail.SwapOutGB {
		t.Fatalf("swap load should be unbalanced toward the head: head %.2f GB vs tail %.2f GB",
			head.SwapOutGB, tail.SwapOutGB)
	}
}

func TestFig4Gantt(t *testing.T) {
	gantt, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gpu0", "gpu1", "compute", "F", "B", "U"} {
		if !strings.Contains(gantt, want) {
			t.Fatalf("gantt missing %q:\n%s", want, gantt)
		}
	}
	// The Harmony schedule must move activations over p2p.
	if !strings.Contains(gantt, "p2p") {
		t.Fatalf("gantt missing p2p lane:\n%s", gantt)
	}
}

func TestFig5AnalyticAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := Fig5([]int{2, 4}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.RelErrCorr > 0.05 {
			t.Errorf("%s m=%d n=%d: corrected-model error %.1f%% (sim %d vs %d)",
				r.Mode, r.M, r.N, 100*r.RelErrCorr, r.SimulatedW, r.CorrectedW)
		}
		if r.RelErrIdeal > 0.20 {
			t.Errorf("%s m=%d n=%d: ideal-model error %.1f%%", r.Mode, r.M, r.N, 100*r.RelErrIdeal)
		}
	}
}

func TestExt1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// A scaled-down BERT-like model keeps the sweep fast; shrinking
	// GPU memory to half the persistent footprint preserves the
	// footprint-exceeds-memory regime.
	model := models.Transformer(models.TransformerConfig{
		Name: "bert-mini", NumLayers: 12, Hidden: 512, SeqLen: 128, Vocab: 8000,
	})
	rows, err := Ext1(model, []int{1, 2, 4}, 4, model.PersistentBytes()/2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HarmonyDPThroughput < r.BaseThroughput {
			t.Errorf("n=%d: harmony-dp throughput %.2f below baseline %.2f",
				r.GPUs, r.HarmonyDPThroughput, r.BaseThroughput)
		}
		if r.HarmonyDPSwapGB > r.BaseSwapGB {
			t.Errorf("n=%d: harmony-dp swap %.2f GB above baseline %.2f GB",
				r.GPUs, r.HarmonyDPSwapGB, r.BaseSwapGB)
		}
	}
	// Harmony-PP swap volume should stay roughly flat in N while the
	// baseline's grows linearly.
	last := rows[len(rows)-1]
	if last.GPUs >= 2 && last.HarmonyPPSwapGB > 0 {
		if last.HarmonyPPSwapGB > last.BaseSwapGB/2 {
			t.Errorf("harmony-pp swap (%.2f GB) should be well below baseline (%.2f GB) at n=%d",
				last.HarmonyPPSwapGB, last.BaseSwapGB, last.GPUs)
		}
	}
}

func TestExt1PaperWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full BERT-48 sweep")
	}
	rows, err := Ext1(models.BERT48(), []int{4}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.HarmonyDPThroughput <= r.BaseThroughput {
		t.Errorf("harmony-dp (%.3f seq/s) should beat the baseline (%.3f seq/s)",
			r.HarmonyDPThroughput, r.BaseThroughput)
	}
	if r.HarmonyPPThroughput <= r.BaseThroughput {
		t.Errorf("harmony-pp (%.3f seq/s) should beat the baseline (%.3f seq/s)",
			r.HarmonyPPThroughput, r.BaseThroughput)
	}
	// Paper §3: Harmony-PP dominates swap savings — here by >5x.
	if r.HarmonyPPSwapGB > r.BaseSwapGB/5 {
		t.Errorf("harmony-pp swap (%.1f GB) should be >5x below baseline (%.1f GB)",
			r.HarmonyPPSwapGB, r.BaseSwapGB)
	}
}

func TestExt3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := Ext3(models.BERT48(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Ext3Row{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	dp, pp, tp := byName["harmony-dp"], byName["harmony-pp"], byName["harmony-tp"]
	// Partitioned strategies move far less weight traffic than
	// replication.
	if pp.WeightTrafficGB >= dp.WeightTrafficGB/3 || tp.WeightTrafficGB >= dp.WeightTrafficGB/3 {
		t.Fatalf("partitioning should cut weight traffic: dp=%.1f pp=%.1f tp=%.1f",
			dp.WeightTrafficGB, pp.WeightTrafficGB, tp.WeightTrafficGB)
	}
	// Intra-op sharding avoids pipeline bubbles: highest throughput
	// on this compute-heavy workload.
	if tp.Throughput <= pp.Throughput || tp.Throughput <= dp.Throughput {
		t.Fatalf("harmony-tp should win: dp=%.2f pp=%.2f tp=%.2f",
			dp.Throughput, pp.Throughput, tp.Throughput)
	}
}

func TestExt4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := Ext4(models.BERT48(), 5)
	if err != nil {
		t.Fatal(err)
	}
	thr := map[string]float64{}
	for _, r := range rows {
		thr[r.Layout+"/"+r.Strategy] = r.Throughput
	}
	// More servers → more independent host links → swap-bound DP
	// scales with server count.
	if !(thr["4x1/harmony-dp"] > thr["2x2/harmony-dp"] && thr["2x2/harmony-dp"] > thr["1x4/harmony-dp"]) {
		t.Fatalf("harmony-dp should scale with servers: %v", thr)
	}
	// Harmony-PP is roughly layout-insensitive (small swap volume,
	// cross-stage traffic rides NICs at PCIe-class bandwidth).
	lo, hi := thr["1x4/harmony-pp"], thr["4x1/harmony-pp"]
	if hi/lo > 1.2 || lo/hi > 1.2 {
		t.Fatalf("harmony-pp should be layout-insensitive: %v", thr)
	}
}

func TestExt5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	rows, err := Ext5()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Ext5Row{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	// Everything in the zoo is schedulable on the commodity box —
	// the largest only via op decomposition (key idea #2).
	for name, r := range byName {
		if !r.Feasible {
			t.Errorf("%s should be feasible: %s", name, r.Reason)
		}
	}
	if byName["gpt3"].Strategy != "harmony-tp (op sharding)" {
		t.Errorf("gpt3 should require op sharding, got %q", byName["gpt3"].Strategy)
	}
	// §4's claims: fine-tuning T5-11B-class models takes days, not
	// months; pre-training GPT-3-class models takes years.
	if d := byName["t5-11b"].FineTuneDays; d < 1 || d > 60 {
		t.Errorf("t5-11b fine-tune = %.1f days, expected days-scale", d)
	}
	if y := byName["gpt3"].PreTrainYears; y < 10 {
		t.Errorf("gpt3 pre-train = %.1f years, expected 'unrealistically long (years)'", y)
	}
	// Iteration time grows monotonically with model size.
	order := []string{"lenet", "alexnet", "gnmt", "amoebanet", "gpt2-xl", "t5-11b", "gpt3"}
	for i := 1; i < len(order); i++ {
		if byName[order[i]].IterSeconds <= byName[order[i-1]].IterSeconds {
			t.Errorf("iteration time should grow with size: %s vs %s", order[i-1], order[i])
		}
	}
}

func TestAblationShape(t *testing.T) {
	rows, err := Ablation()
	if err != nil || len(rows) != 9 {
		t.Fatalf("Ablation: %d rows, %v; want nine", len(rows), err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, name := range []string{"all-on", "no-grouping", "no-jit", "no-p2p", "no-prefetch",
		"no-dirty-tracking", "no-defer", "group-of-2", "lookahead-eviction"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("row %q missing: %+v", name, rows)
		}
	}
	on := byName["all-on"]
	// Grouping is the biggest single lever: without it every
	// microbatch re-swaps the weights.
	if g := byName["no-grouping"]; g.SwapGB < 2*on.SwapGB || g.Throughput >= on.Throughput {
		t.Errorf("no-grouping %+v should move ≥2x all-on's bytes (%+v) at lower throughput", g, on)
	}
	for _, name := range []string{"no-jit", "no-dirty-tracking"} {
		if byName[name].SwapGB <= on.SwapGB {
			t.Errorf("%s moves %.3f GB, no more than all-on's %.3f", name, byName[name].SwapGB, on.SwapGB)
		}
	}
	// One replica per GPU: there is no peer to copy from, and prefetch
	// changes when bytes move, not how many.
	if p := byName["no-p2p"]; p.Throughput != on.Throughput || p.SwapGB != on.SwapGB {
		t.Errorf("no-p2p %+v should equal all-on %+v exactly", p, on)
	}
	if p := byName["no-prefetch"]; p.SwapGB != on.SwapGB {
		t.Errorf("no-prefetch moves %.3f GB, all-on %.3f: same bytes expected", p.SwapGB, on.SwapGB)
	}
	// The recorded wash: once grouping and JIT have shaped the
	// reference stream, Belady has little left to win over LRU.
	if r := byName["lookahead-eviction"].Throughput / on.Throughput; r < 0.99 || r > 1.01 {
		t.Errorf("lookahead/LRU throughput = %.4f, want within 1%%", r)
	}
}
