// Quickstart: train a model whose footprint (≈22 GiB) is twice one
// GPU's memory on a simulated 4×11 GiB commodity server, comparing
// naive per-GPU memory virtualization against Harmony.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"harmony"
)

func main() {
	model := harmony.BERT48()
	server := harmony.CommodityServer(4)
	fmt.Printf("workload: %s — persistent footprint %.1f GiB, per-GPU memory 11 GiB\n\n",
		model.Name(), model.PersistentGB())

	// Baseline: data parallelism, each GPU demand-paging its replica
	// through the shared host link (IBM-LMS style).
	base, err := harmony.Simulate(harmony.SimConfig{
		Model:          model,
		Mode:           harmony.DPBaseline,
		Server:         server,
		MicrobatchSize: 5, // per-GPU batch of 5, one microbatch
		Microbatches:   1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Harmony-PP: fine-grained tasks, input-batch grouping in waves,
	// JIT updates, p2p transfers, packed stages.
	hpp, err := harmony.Simulate(harmony.SimConfig{
		Model:          model,
		Mode:           harmony.HarmonyPP,
		Server:         server,
		MicrobatchSize: 1,
		Microbatches:   20, // same global batch: 4 GPUs × 5
		Toggles:        &harmony.Toggles{GroupSize: 5},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %14s %16s\n", "", "throughput", "swap GiB/iter")
	fmt.Printf("%-22s %10.3f seq/s %16.1f\n", "per-GPU virtualization", base.Throughput, base.SwapGB())
	fmt.Printf("%-22s %10.3f seq/s %16.1f\n", harmony.HarmonyPP, hpp.Throughput, hpp.SwapGB())
	fmt.Printf("\nharmony: %.2fx the throughput with %.1fx less swap traffic\n",
		hpp.Throughput/base.Throughput, base.SwapGB()/hpp.SwapGB())
}
