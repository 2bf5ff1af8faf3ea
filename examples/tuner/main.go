// tuner demonstrates the §4 "memory–performance tango": the
// Performance Tuner measures every candidate — microbatch split, group
// size, wave order and prefetch — for a pipeline under memory
// pressure, and picks the winner.
//
//	go run ./examples/tuner
package main

import (
	"fmt"
	"log"

	"harmony"
)

func main() {
	model := harmony.UniformModel(8, 1_000_000, 16<<10, 5e9)
	server := harmony.CommodityServer(2).WithGPUMemory(20 << 20)
	fmt.Printf("memory–performance tango: 8×4 MB layers, 20 MB devices, %s on 2 GPUs\n", harmony.HarmonyPP)
	fmt.Println("(full grouping minimizes swap volume; waves buy pipeline overlap with extra swaps)")
	fmt.Println()

	res, err := harmony.Tune(harmony.TuneConfig{
		Model:           model,
		Mode:            harmony.HarmonyPP,
		Server:          server,
		BatchPerReplica: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-36s %14s %12s\n", "candidate", "throughput", "swap GiB/it")
	for _, m := range res.Table {
		if !m.Feasible {
			fmt.Printf("%-36s %14s %12s (infeasible: %s)\n", m.Candidate, "-", "-", m.Err)
			continue
		}
		marker := " "
		if m.Candidate == res.Table[0].Candidate {
			marker = "*"
		}
		fmt.Printf("%-36s %12.1f %s %12.3f\n", m.Candidate, m.Throughput, marker, m.SwapGB)
	}
	fmt.Printf("\ntuner pick: mb=%d×%d group=%d prefetch=%v interleave=%v — %.1f samples/s at %.3f GiB/iter swap\n",
		res.BestMicrobatchSize, res.BestMicrobatches, res.BestGroupSize, res.BestPrefetch, res.BestInterleave,
		res.BestThroughput, res.BestSwapGB)
	fmt.Printf("(measured all %d candidates)\n", res.Explored)
}
