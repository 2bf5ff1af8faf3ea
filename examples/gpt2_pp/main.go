// gpt2_pp pipelines a GPT-2-XL-class model across four GPUs and
// contrasts 1F1B with per-GPU virtualization (unbalanced swap, Fig.
// 2(c)) against Harmony-PP (grouped waves, p2p transfers, packed
// stages).
//
//	go run ./examples/gpt2_pp
package main

import (
	"fmt"
	"log"

	"harmony"
)

func main() {
	model := harmony.GPT2XL()
	server := harmony.CommodityServer(4)
	fmt.Printf("GPT-2 XL pipeline on 4×11 GiB (persistent footprint %.1f GiB)\n\n", model.PersistentGB())

	base, err := harmony.Simulate(harmony.SimConfig{
		Model: model, Mode: harmony.PPBaseline, Server: server,
		MicrobatchSize: 1, Microbatches: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	// GPT-2 XL at sequence length 1024 is stash-heavy (the attention
	// probabilities dominate), so full input-batch grouping would
	// stash all 8 microbatches at every stage and blow the memory
	// budget. The tango answer is wave interleaving with group size
	// 1: 1F1B-shaped in-flight bounds plus Harmony's dirty tracking,
	// prefetch and p2p transfers. (On weight-dominated workloads like
	// BERT-48 at sequence 512, larger groups win — see quickstart.)
	hpp, err := harmony.Simulate(harmony.SimConfig{
		Model: model, Mode: harmony.HarmonyPP, Server: server,
		MicrobatchSize: 1, Microbatches: 8,
		Toggles: &harmony.Toggles{GroupSize: 1, WaveInterleave: harmony.Bool(true)},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-stage swap load (the Fig. 2(c) imbalance):")
	fmt.Printf("%-8s | %-28s | %-28s\n", "stage", "1F1B + per-GPU virtualization", harmony.HarmonyPP)
	for d := range base.PerGPUSwapOutBytes {
		fmt.Printf("gpu%-5d | %13.2f GiB swap-out | %13.2f GiB swap-out\n",
			d, float64(base.PerGPUSwapOutBytes[d])/(1<<30), float64(hpp.PerGPUSwapOutBytes[d])/(1<<30))
	}
	fmt.Printf("\n%-12s %14s %14s %12s\n", "", "throughput", "swap GiB/it", "p2p GiB/it")
	fmt.Printf("%-12s %10.3f s/s %14.1f %12.2f\n", harmony.PPBaseline, base.Throughput, base.SwapGB(),
		float64(base.P2PBytes)/(1<<30))
	fmt.Printf("%-12s %10.3f s/s %14.1f %12.2f\n", harmony.HarmonyPP, hpp.Throughput, hpp.SwapGB(),
		float64(hpp.P2PBytes)/(1<<30))
	fmt.Printf("\n%s: %.2fx the baseline throughput; cross-stage activations ride p2p links\n",
		harmony.HarmonyPP, hpp.Throughput/base.Throughput)
	fmt.Println("(group size is workload-dependent — the tuner example sweeps the tango)")
}
