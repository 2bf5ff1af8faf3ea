// Command harmonysim runs a single simulated training measurement
// with explicit parameters — the general-purpose entry point for
// exploring configurations beyond the paper's figures.
//
// Examples:
//
//	harmonysim -model bert48 -mode harmony-pp -gpus 4 -mb-size 1 -microbatches 20
//	harmonysim -model gpt2xl -mode dp-baseline -gpus 2 -mb-size 4
//	harmonysim -model uniform -layers 16 -mode harmony-dp -gpus 1 -gpu-mem 1048576 -trace
//	harmonysim -model gpt2xl -mode dp-baseline -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"

	"harmony"
	"harmony/internal/models"
	"harmony/internal/profile"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the profiles are written on every
// way out of it.
func run() (exit int) {
	var (
		modelName  = flag.String("model", "bert48", "workload: lenet, alexnet, gnmt, amoebanet, bertlarge, bert48, gpt2xl, t5-11b, gpt3, uniform")
		layers     = flag.Int("layers", 16, "layer count for -model uniform")
		modeName   = flag.String("mode", "harmony-pp", "dp-baseline, pp-baseline, harmony-dp, harmony-pp, tp-baseline, harmony-tp")
		gpus       = flag.Int("gpus", 4, "GPU count (per server)")
		servers    = flag.Int("servers", 1, "server count (>1 builds a NIC-joined cluster)")
		gpuMem     = flag.Int64("gpu-mem", 0, "per-GPU memory bytes (0 = 11 GiB)")
		mbSize     = flag.Int("mb-size", 1, "microbatch size (samples)")
		mbCount    = flag.Int("microbatches", 8, "microbatches per iteration")
		groupSize  = flag.Int("group", 0, "grouping window (0 = whole batch)")
		trace      = flag.Bool("trace", false, "print the execution Gantt chart")
		noP2P      = flag.Bool("no-p2p", false, "disable peer-to-peer transfers")
		noGroup    = flag.Bool("no-grouping", false, "disable input-batch grouping")
		noJIT      = flag.Bool("no-jit", false, "disable just-in-time updates")
		recomp     = flag.Bool("recompute", false, "activation recomputation (checkpoint inputs only)")
		lookahead  = flag.Bool("lookahead", false, "schedule-informed (Belady) eviction instead of LRU")
		interleave = flag.Bool("interleave", false, "1F1B wave interleaving for grouped pipelines")
	)
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmonysim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "harmonysim: %v\n", err)
			exit = 1
		}
	}()

	var model harmony.ModelSpec
	if *modelName == "uniform" {
		model = harmony.UniformModel(*layers, 1_000_000, 1<<20, 1e10)
	} else if ctor, ok := models.Catalog()[*modelName]; ok {
		model = harmony.CustomModel(ctor())
	} else {
		fmt.Fprintf(os.Stderr, "harmonysim: unknown model %q\n", *modelName)
		return 2
	}
	var mode harmony.Mode
	switch *modeName {
	case "dp-baseline":
		mode = harmony.DPBaseline
	case "pp-baseline":
		mode = harmony.PPBaseline
	case "harmony-dp":
		mode = harmony.HarmonyDP
	case "harmony-pp":
		mode = harmony.HarmonyPP
	case "tp-baseline":
		mode = harmony.TPBaseline
	case "harmony-tp":
		mode = harmony.HarmonyTP
	default:
		fmt.Fprintf(os.Stderr, "harmonysim: unknown mode %q\n", *modeName)
		return 2
	}
	server := harmony.CommodityServer(*gpus)
	if *servers > 1 {
		server = harmony.Cluster(*servers, *gpus)
	}
	if *gpuMem > 0 {
		server = server.WithGPUMemory(*gpuMem)
	}
	toggles := &harmony.Toggles{GroupSize: *groupSize}
	if *noP2P {
		toggles.P2P = harmony.Bool(false)
	}
	if *noGroup {
		toggles.Grouping = harmony.Bool(false)
	}
	if *noJIT {
		toggles.JIT = harmony.Bool(false)
	}
	if *lookahead {
		toggles.LookaheadEviction = harmony.Bool(true)
	}
	if *interleave {
		toggles.WaveInterleave = harmony.Bool(true)
	}

	rep, err := harmony.Simulate(harmony.SimConfig{
		Model:          model,
		Mode:           mode,
		Server:         server,
		MicrobatchSize: *mbSize,
		Microbatches:   *mbCount,
		Toggles:        toggles,
		Recompute:      *recomp,
		CaptureTrace:   *trace,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmonysim: %v\n", err)
		return 1
	}

	fmt.Printf("model            %s (persistent footprint %.1f GiB)\n", model.Name(), model.PersistentGB())
	fmt.Printf("mode             %s on %d GPUs (%d server(s))\n", mode, server.GPUs(), *servers)
	fmt.Printf("throughput       %.3f samples/s\n", rep.Throughput)
	fmt.Printf("iteration        %.3f s\n", rep.IterSeconds)
	fmt.Printf("swap in/out      %.2f / %.2f GiB per iteration\n",
		float64(rep.SwapInBytes)/(1<<30), float64(rep.SwapOutBytes)/(1<<30))
	fmt.Printf("p2p traffic      %.2f GiB per iteration\n", float64(rep.P2PBytes)/(1<<30))
	for i := range rep.PerGPUSwapOutBytes {
		fmt.Printf("gpu%-2d            swap-out %.2f GiB/iter, peak demand %.1f GiB\n",
			i, float64(rep.PerGPUSwapOutBytes[i])/(1<<30), float64(rep.PerGPUDemandBytes[i])/(1<<30))
	}
	if *trace {
		fmt.Println()
		fmt.Print(rep.Gantt)
	}
	return 0
}
