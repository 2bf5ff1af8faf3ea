// Command figures regenerates every table and figure of the paper's
// evaluation as text tables (and optional CSV): Fig. 1 (model
// growth), Fig. 2(a) (DP swap bottleneck), Fig. 2(c) (PP swap
// imbalance), Fig. 4 (Harmony-PP schedule), Fig. 5 (analytical vs
// simulated swap volumes), the extension tables EXT1 (baseline vs
// Harmony throughput), EXT2 (memory–performance tango sweep), EXT3
// (parallelism strategies), EXT4 (multi-machine layouts) and EXT5
// (feasibility), and the ablation table.
//
// Usage:
//
//	figures             # everything
//	figures -fig 2a     # one artifact
//	figures -csv        # additionally emit CSV rows
//	figures -cpuprofile cpu.pb.gz -memprofile mem.pb.gz   # for go tool pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"harmony/internal/experiments"
	"harmony/internal/hw"
	"harmony/internal/models"
	"harmony/internal/profile"
	"harmony/internal/report"
	"harmony/internal/sched"
	"harmony/internal/tuner"
)

// artifacts is every table and figure, in the order "all" prints them.
var artifacts = []struct {
	name string
	run  func(csv bool) error
}{
	{"1", fig1}, {"2a", fig2a}, {"2c", fig2c}, {"4", fig4}, {"5", fig5},
	{"ext1", ext1}, {"ext2", ext2}, {"ext3", ext3}, {"ext4", ext4}, {"ext5", ext5},
	{"abl", abl},
}

func main() { os.Exit(run()) }

// run is main with an exit code, so the profiles are written on every
// way out of it.
func run() (exit int) {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	known := strings.Join(names, ", ") + " or all"
	fig := flag.String("fig", "all", "which artifact: "+known)
	csv := flag.Bool("csv", false, "also print CSV rows")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			exit = 1
		}
	}()

	ran := false
	for _, a := range artifacts {
		if *fig != "all" && *fig != a.name {
			continue
		}
		if err := a.run(*csv); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", a.name, err)
			return 1
		}
		if *fig == "all" {
			fmt.Println()
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "figures: unknown artifact %q (want %s)\n", *fig, known)
		return 2
	}
	return 0
}

func fig1(csv bool) error {
	fmt.Println("== Figure 1: DNN model size growth (1998–2020) ==")
	t := report.NewTable(
		report.Column{Header: "model"},
		report.Column{Header: "year", Align: report.Right},
		report.Column{Header: "parameters", Align: report.Right},
		report.Column{Header: "log10", Align: report.Right},
	)
	for _, r := range experiments.Fig1() {
		t.Row(r.Name, r.Year, r.Params, report.Cell("%.2f", r.Log10Params))
	}
	fmt.Print(t)
	if csv {
		fmt.Print(t.CSV())
	}
	return nil
}

func fig2a(csv bool) error {
	fmt.Println("== Figure 2(a): DP + per-GPU virtualization, BERT-48, batch 5/GPU ==")
	fmt.Println("(expect: swap volume ~linear in GPUs; throughput throttled by the shared host link)")
	rows, err := experiments.Fig2a(experiments.DefaultFig2a())
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %16s %18s %12s\n", "GPUs", "throughput seq/s", "swap-out GB/iter", "iter sec")
	for _, r := range rows {
		fmt.Printf("%-6d %16.3f %18.1f %12.1f\n", r.GPUs, r.Throughput, r.SwapOutGB, r.IterSeconds)
	}
	if csv {
		fmt.Println("gpus,throughput,swap_out_gb,iter_s")
		for _, r := range rows {
			fmt.Printf("%d,%.4f,%.3f,%.3f\n", r.GPUs, r.Throughput, r.SwapOutGB, r.IterSeconds)
		}
	}
	return nil
}

func fig2c(csv bool) error {
	fmt.Println("== Figure 2(c): PP + per-GPU virtualization, per-stage memory demand ==")
	fmt.Println("(expect: head stage over capacity / heavy swap; tail stage fits / light swap)")
	rows, err := experiments.Fig2c(models.BERT48(), 4)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-8s %12s %12s %16s %s\n", "GPU", "layers", "demand GB", "capacity", "swap-out GB/it", "status")
	for _, r := range rows {
		status := "fits (no/light swap)"
		if r.OverCap {
			status = "OVER CAPACITY (heavy swap)"
		}
		fmt.Printf("%-6d %-8d %12.1f %12.1f %16.2f %s\n", r.GPU, r.Layers, r.DemandGB, r.CapacityGB, r.SwapOutGB, status)
	}
	fmt.Println("resident-memory timeline per GPU ('!' = demand above the 11 GB capacity):")
	for _, r := range rows {
		fmt.Printf("gpu%-3d |%s|\n", r.GPU, r.Timeline)
	}
	if csv {
		fmt.Println("gpu,layers,demand_gb,capacity_gb,swap_out_gb,over_capacity")
		for _, r := range rows {
			fmt.Printf("%d,%d,%.3f,%.3f,%.3f,%v\n", r.GPU, r.Layers, r.DemandGB, r.CapacityGB, r.SwapOutGB, r.OverCap)
		}
	}
	return nil
}

func fig4(bool) error {
	fmt.Println("== Figure 4: Harmony-PP schedule (4 layers, 2 GPUs, 2 microbatches) ==")
	fmt.Println("(F=forward B=backward U=update I=swap-in O=swap-out D=drop P=p2p, per device lane)")
	gantt, err := experiments.Fig4()
	if err != nil {
		return err
	}
	fmt.Print(gantt)
	return nil
}

func fig5(csv bool) error {
	fmt.Println("== Figure 5 / §3: analytical vs simulated weight swap volume ==")
	fmt.Println("(paper: DP baseline (4m+2)N|W|, Harmony-DP 3N|W|, Harmony-PP 3|W|)")
	rows, err := experiments.Fig5([]int{2, 4, 8}, []int{1, 2, 4})
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-4s %-4s %14s %14s %14s %10s %10s\n",
		"mode", "m", "N", "ideal B", "corrected B", "simulated B", "err(ideal)", "err(corr)")
	for _, r := range rows {
		fmt.Printf("%-14s %-4d %-4d %14d %14d %14d %9.1f%% %9.1f%%\n",
			r.Mode, r.M, r.N, r.AnalyticW, r.CorrectedW, r.SimulatedW,
			100*r.RelErrIdeal, 100*r.RelErrCorr)
	}
	if csv {
		fmt.Println("mode,m,n,ideal,corrected,simulated,rel_err_ideal,rel_err_corr")
		for _, r := range rows {
			fmt.Printf("%s,%d,%d,%d,%d,%d,%.4f,%.4f\n",
				r.Mode, r.M, r.N, r.AnalyticW, r.CorrectedW, r.SimulatedW, r.RelErrIdeal, r.RelErrCorr)
		}
	}
	return nil
}

func ext1(csv bool) error {
	fmt.Println("== EXT1: baseline vs Harmony on the Fig. 2 workload (BERT-48, batch 5/GPU) ==")
	rows, err := experiments.Ext1(models.BERT48(), []int{1, 2, 4}, 5, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s | %12s %12s | %12s %12s | %12s %12s\n",
		"GPUs", "base seq/s", "base swapGB", "hdp seq/s", "hdp swapGB", "hpp seq/s", "hpp swapGB")
	for _, r := range rows {
		fmt.Printf("%-6d | %12.3f %12.1f | %12.3f %12.1f | %12.3f %12.1f\n",
			r.GPUs, r.BaseThroughput, r.BaseSwapGB,
			r.HarmonyDPThroughput, r.HarmonyDPSwapGB,
			r.HarmonyPPThroughput, r.HarmonyPPSwapGB)
	}
	if csv {
		fmt.Println("gpus,base_thr,base_swap_gb,hdp_thr,hdp_swap_gb,hpp_thr,hpp_swap_gb")
		for _, r := range rows {
			fmt.Printf("%d,%.4f,%.3f,%.4f,%.3f,%.4f,%.3f\n",
				r.GPUs, r.BaseThroughput, r.BaseSwapGB,
				r.HarmonyDPThroughput, r.HarmonyDPSwapGB,
				r.HarmonyPPThroughput, r.HarmonyPPSwapGB)
		}
	}
	return nil
}

func ext2(csv bool) error {
	fmt.Println("== EXT2: the §4 memory–performance tango (Harmony-PP group-size sweep) ==")
	model := models.Uniform("tango", 8, 1_000_000, 16<<10, 5e9)
	box := hw.Commodity1080TiBox(2)
	box.GPUMemBytes = 20 << 20
	res, err := tuner.Run(tuner.Config{
		Model: model, Mode: sched.HarmonyPP, Box: box, BatchPerReplica: 4,
	}, 2)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %14s %12s %10s\n", "candidate", "throughput s/s", "swap GB/it", "feasible")
	for _, m := range res.Measurements {
		fmt.Printf("%-34s %14.1f %12.3f %10v\n", m.Candidate, m.Throughput, m.SwapGB, m.Feasible)
	}
	fmt.Printf("best: %s (%.1f samples/s)\n", res.Best.Candidate, res.Best.Throughput)
	if csv {
		fmt.Println("mb_size,microbatches,group,prefetch,defer,throughput,swap_gb,feasible")
		for _, m := range res.Measurements {
			c := m.Candidate
			fmt.Printf("%d,%d,%d,%v,%v,%.3f,%.4f,%v\n",
				c.MicrobatchSize, c.Microbatches, c.GroupSize, c.Prefetch, c.Defer,
				m.Throughput, m.SwapGB, m.Feasible)
		}
	}
	return nil
}

func ext3(csv bool) error {
	fmt.Println("== EXT3: parallelism strategies enabled by task decomposition (BERT-48, 4 GPUs) ==")
	rows, err := experiments.Ext3(models.BERT48(), 4, 5)
	if err != nil {
		return err
	}
	t := report.NewTable(
		report.Column{Header: "strategy"},
		report.Column{Header: "throughput s/s", Align: report.Right},
		report.Column{Header: "swap GB/iter", Align: report.Right},
		report.Column{Header: "weight traffic GB", Align: report.Right},
	)
	for _, r := range rows {
		t.Row(r.Strategy, r.Throughput, report.Cell("%.1f", r.SwapGB), report.Cell("%.1f", r.WeightTrafficGB))
	}
	fmt.Print(t)
	if csv {
		fmt.Print(t.CSV())
	}
	return nil
}

func ext4(csv bool) error {
	fmt.Println("== EXT4: multi-machine layouts, 4 GPUs total (BERT-48, batch 5/GPU) ==")
	fmt.Println("(each server contributes an independent host link: the Fig. 2(b) bottleneck is per machine)")
	rows, err := experiments.Ext4(models.BERT48(), 5)
	if err != nil {
		return err
	}
	t := report.NewTable(
		report.Column{Header: "layout"},
		report.Column{Header: "strategy"},
		report.Column{Header: "throughput s/s", Align: report.Right},
		report.Column{Header: "swap GB/iter", Align: report.Right},
	)
	for _, r := range rows {
		t.Row(r.Layout, r.Strategy, r.Throughput, report.Cell("%.1f", r.SwapGB))
	}
	fmt.Print(t)
	if csv {
		fmt.Print(t.CSV())
	}
	return nil
}

func ext5(csv bool) error {
	fmt.Println("== EXT5: §4 feasibility — every Fig. 1 model on the 4×11 GB commodity box ==")
	fmt.Println("(fine-tune = 30k iterations; pre-train = 10M iterations)")
	rows, err := experiments.Ext5()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %16s %-26s %12s %14s %14s\n",
		"model", "params", "strategy", "iter sec", "fine-tune days", "pre-train yrs")
	for _, r := range rows {
		if !r.Feasible {
			fmt.Printf("%-12s %16d %-26s %s\n", r.Model, r.Params, "INFEASIBLE", r.Reason)
			continue
		}
		fmt.Printf("%-12s %16d %-26s %12.3f %14.2f %14.1f\n",
			r.Model, r.Params, r.Strategy, r.IterSeconds, r.FineTuneDays, r.PreTrainYears)
	}
	fmt.Println("matches §4: development and fine-tuning are practical on commodity boxes;")
	fmt.Println("pre-training the largest models remains a datacenter job.")
	if csv {
		fmt.Println("model,params,strategy,iter_s,finetune_days,pretrain_years,feasible")
		for _, r := range rows {
			fmt.Printf("%s,%d,%s,%.4f,%.3f,%.3f,%v\n",
				r.Model, r.Params, r.Strategy, r.IterSeconds, r.FineTuneDays, r.PreTrainYears, r.Feasible)
		}
	}
	return nil
}

func abl(csv bool) error {
	fmt.Println("== Ablations: one Harmony optimization changed at a time (Harmony-DP, 12×2M-param layers, 2×48 MiB GPUs, 4 microbatches) ==")
	fmt.Println("(expect: grouping is the biggest lever; p2p and prefetch neutral at one replica per GPU; lookahead eviction a wash vs LRU)")
	rows, err := experiments.Ablation()
	if err != nil {
		return err
	}
	t := report.NewTable(
		report.Column{Header: "configuration"},
		report.Column{Header: "throughput s/s", Align: report.Right},
		report.Column{Header: "swap GB/iter", Align: report.Right},
	)
	for _, r := range rows {
		t.Row(r.Name, r.Throughput, r.SwapGB)
	}
	fmt.Print(t)
	if csv {
		fmt.Print(t.CSV())
	}
	return nil
}
