// Command schedcheck statically verifies an execution plan against a
// device topology without running anything: happens-before liveness
// across queues and collective rendezvous, symbolic peak-residency
// against device capacity, and structural swap volume cross-checked
// with the analytic closed forms. Failures print the violated
// invariant plus a Gantt-style counterexample lane per device and exit
// 1; a usage error exits 2.
//
// Examples:
//
//	schedcheck -mode harmony-dp -devices 2 -layers 8 -microbatches 4
//	schedcheck -mode harmony-dp -devices 4 -comm-chunks 8 -comm-bucket 16384
//	schedcheck -mode pp-baseline -devices 4 -layers 16 -device-mem 32768
//	schedcheck -mode dp-baseline -devices 2 -inject cycle      # seeded deadlock
//	schedcheck -mode dp-baseline -devices 2 -inject volume     # seeded volume skew
//	schedcheck -mode harmony-dp -devices 2 -inject overcap     # seeded thrash
package main

import (
	"flag"
	"fmt"
	"os"

	"harmony/internal/graph"
	"harmony/internal/models"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
)

func main() {
	var (
		modeName  = flag.String("mode", sched.HarmonyDP.String(), sched.ModeNames())
		devices   = flag.Int("devices", 2, "device count")
		layers    = flag.Int("layers", 8, "model layers")
		params    = flag.Int("params", 1000, "parameters per layer")
		mbs       = flag.Int("microbatches", 4, "microbatches per iteration")
		mbSize    = flag.Int("mb-size", 1, "samples per microbatch")
		deviceMem = flag.Int64("device-mem", 1<<20, "per-device memory bytes")
		groupSize = flag.Int("group-size", 0, "microbatches per wave (0 = the mode's default: 1 for baselines, all for Harmony modes)")
		chunks    = flag.Int("comm-chunks", 0, "split gradient collectives into N chunks (0 = monolithic)")
		bucket    = flag.Int64("comm-bucket", 0, "coalesce reverse-order gradients into buckets of this many bytes")
		baseline  = flag.Bool("baseline-toggles", false, "disable all optimizations regardless of mode: waves of one microbatch, interleaved")
		inject    = flag.String("inject", "", "seed a plan bug: cycle, volume, overcap")
		verbose   = flag.Bool("v", false, "print per-device residency and volume detail")
	)
	flag.Parse()

	mode, err := sched.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedcheck: %v\n", err)
		os.Exit(2)
	}

	if *groupSize < 0 {
		fmt.Fprintf(os.Stderr, "schedcheck: -group-size must be non-negative, got %d\n", *groupSize)
		os.Exit(2)
	}

	opts := sched.DefaultOptions(mode)
	if *baseline || *inject == "cycle" || *inject == "volume" {
		// The queue-order injections need updates at the tail.
		opts = sched.Options{Mode: mode, GroupSize: 1, WaveInterleave: true}
	}
	if *groupSize > 0 {
		opts.GroupSize = *groupSize
	}
	opts.CommChunks = *chunks
	opts.CommBucketBytes = *bucket
	model := models.Uniform("plan", *layers, int64(*params), 4096, 1e9)
	s, err := sched.Plan(graph.Config{Model: model, MicrobatchSize: *mbSize, Microbatches: *mbs}, opts, *devices)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedcheck: %v\n", err)
		os.Exit(2)
	}

	topo := schedcheck.Topology{Devices: *devices, DeviceBytes: *deviceMem}
	switch *inject {
	case "":
	case "cycle":
		if err := schedcheck.InjectRendezvousCycle(s); err != nil {
			fmt.Fprintf(os.Stderr, "schedcheck: %v\n", err)
			os.Exit(2)
		}
	case "volume":
		if err := schedcheck.InjectVolumeSkew(s); err != nil {
			fmt.Fprintf(os.Stderr, "schedcheck: %v\n", err)
			os.Exit(2)
		}
	case "overcap":
		topo.DeviceBytes = 64
	default:
		fmt.Fprintf(os.Stderr, "schedcheck: unknown injection %q\n", *inject)
		os.Exit(2)
	}

	r := schedcheck.Check(s, topo)
	fmt.Printf("plan: %s, %d devices, %d layers × %d params, %d microbatches\n",
		mode, *devices, *layers, *params, *mbs)
	fmt.Printf("checked: %d tasks replayed\n", r.TasksChecked)
	if *verbose {
		for d := range r.PeakPinBytes {
			fmt.Printf("  gpu%d: peak pinned %d bytes / %d capacity\n", d, r.PeakPinBytes[d], topo.DeviceBytes)
		}
	}
	if r.AnalyticWeightBytes >= 0 {
		fmt.Printf("swap volume (bytes/iter): weights %d (analytic %d), grads %d, opt-state %d\n",
			r.WeightSwapBytes, r.AnalyticWeightBytes, r.GradSwapBytes, r.OptStateSwapBytes)
	} else {
		fmt.Printf("swap volume (bytes/iter): weights %d, grads %d, opt-state %d (no closed form for this shape)\n",
			r.WeightSwapBytes, r.GradSwapBytes, r.OptStateSwapBytes)
	}
	if err := r.Err(); err != nil {
		fmt.Printf("FAIL\n%v\n", err)
		os.Exit(1)
	}
	fmt.Println("PASS: plan is deadlock-free, fits residency and matches the analytic swap model")
}
