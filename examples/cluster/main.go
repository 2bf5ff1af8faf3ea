// cluster explores the paper's §4 multi-machine discussion: the same
// four GPUs arranged as one box, two boxes, or four boxes. Each
// machine brings its own host memory — and its own host link, which
// is exactly the resource the Fig. 2(b) bottleneck starves.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"harmony"
)

func main() {
	model := harmony.BERT48()
	fmt.Printf("BERT-48 (%.1f GiB footprint) on four 11 GiB GPUs, varying the machine layout\n\n",
		model.PersistentGB())
	layouts := []struct {
		name   string
		server harmony.Server
	}{
		{"1 server x 4 GPUs", harmony.CommodityServer(4)},
		{"2 servers x 2 GPUs", harmony.Cluster(2, 2)},
		{"4 servers x 1 GPU ", harmony.Cluster(4, 1)},
	}
	fmt.Printf("%-20s | %11s thr/swapGB | %11s thr/swapGB\n", "layout", harmony.HarmonyDP, harmony.HarmonyPP)
	for _, lay := range layouts {
		hdp, err := harmony.Simulate(harmony.SimConfig{
			Model: model, Mode: harmony.HarmonyDP, Server: lay.server,
			MicrobatchSize: 1, Microbatches: 5,
		})
		if err != nil {
			log.Fatalf("%s dp: %v", lay.name, err)
		}
		hpp, err := harmony.Simulate(harmony.SimConfig{
			Model: model, Mode: harmony.HarmonyPP, Server: lay.server,
			MicrobatchSize: 1, Microbatches: 20,
			Toggles: &harmony.Toggles{GroupSize: 5},
		})
		if err != nil {
			log.Fatalf("%s pp: %v", lay.name, err)
		}
		fmt.Printf("%-20s | %9.3f / %9.1f | %9.3f / %9.1f\n",
			lay.name, hdp.Throughput, hdp.SwapGB(), hpp.Throughput, hpp.SwapGB())
	}
	fmt.Println("\nswap-bound data parallelism speeds up as the GPUs spread out: every server")
	fmt.Println("adds an independent host link. The bottleneck was never GPU count — it was")
	fmt.Println("per-machine host bandwidth, which is the paper's Fig. 2(b) argument inverted.")
}
