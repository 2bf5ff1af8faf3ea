// Command harmonytrain runs *real* training (float32 math, actual
// data movement) through Harmony's coherent virtual memory on
// capacity-limited virtual devices — the executable counterpart of
// the simulator CLI. It trains a classifier on a synthetic dataset,
// reports loss and accuracy, and can checkpoint/resume.
//
// Examples:
//
//	harmonytrain -arch mlp -widths 784,256,128,10 -devices 2 -device-mem 1048576 -steps 50
//	harmonytrain -arch lenet -mode harmony-pp -devices 2 -steps 30
//	harmonytrain -arch mlp -save model.ckpt -steps 20
//	harmonytrain -arch mlp -load model.ckpt -steps 20
//	harmonytrain -arch mlp -widths 784,512,512,10 -steps 200 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmony"
	"harmony/internal/fault"
	"harmony/internal/hw"
	"harmony/internal/nn"
	"harmony/internal/profile"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the profiles are written on every
// way out of it, a diverged run's included.
func run() (exit int) {
	var (
		arch      = flag.String("arch", "mlp", "mlp or lenet")
		widthsArg = flag.String("widths", "256,128,64,10", "mlp layer widths (input,...,classes)")
		modeName  = flag.String("mode", sched.HarmonyPP.String(), sched.ModeNames()+" (the op-sharded modes run in the simulator only)")
		devices   = flag.Int("devices", 2, "virtual device count")
		deviceMem = flag.Int64("device-mem", 0, "per-device memory bytes (0 = half the footprint)")
		batch     = flag.Int("batch", 32, "per-replica batch size")
		steps     = flag.Int("steps", 40, "training iterations")
		adam      = flag.Bool("adam", true, "use Adam (SGD otherwise)")
		lr        = flag.Float64("lr", 0, "learning rate (0 = 0.005 with Adam, 0.05 with SGD)")
		noise     = flag.Float64("noise", 1.5, "dataset difficulty (blob noise)")
		seed      = flag.Uint64("seed", 1, "weight and data seed")
		savePath  = flag.String("save", "", "write a checkpoint here after training")
		loadPath  = flag.String("load", "", "restore this checkpoint before training")
		faultSpec = flag.String("fault-spec", "", `deterministic fault injection rules, e.g. "op=swap-in,count=2;step=3,dev=1,mode=fatal" (see DESIGN.md)`)
		maxRetry  = flag.Int("max-retries", 0, "retries per faulted op (0 = default 3, negative disables)")
		recov     = flag.Bool("recover", false, "roll back and resume past fatal device faults")
		prefetch  = flag.Int("prefetch-depth", 0, "async prefetch lookahead (0 = mode default, negative disables)")
		retune    = flag.String("retune", "", `mid-run plan retune, "step=N,microbatches=M": before step N, reshape to M microbatches (schedcheck preflight; a rejection prints the counterexample and keeps the current plan)`)
		linkBW    = flag.Int64("link-bw", 0, "bytes/sec of every modeled link — one per device plus the host uplink all swaps share; p2p copies use the two devices' links, a reduction the reducer's. A copy's lane waits out its reservation, a reduction's is waited out by the updates that read it, in sleeps of at least 2 ms, carrying less as debt (0 = memcpy cost only)")
		swapTrace = flag.Bool("swap-trace", false, "print a compute/DMA-lane Gantt of the final step (shows swap-compute overlap)")
		verify    = flag.Bool("verify", true, "statically verify the execution plan before training (schedcheck preflight; failures print a counterexample)")
		commChunk = flag.Int("comm-chunks", 0, "split each gradient AllReduce into this many chunks reduced across device workers (0 = monolithic rendezvous; bit-identical at every setting)")
		commBkt   = flag.Int64("comm-bucket", 0, "coalesce per-layer gradients into buckets of up to this many bytes sharing one rendezvous (0 = one bucket per layer; implies -comm-chunks 1)")
	)
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
			exit = 1
		}
	}()

	mode, err := sched.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
		return 2
	}

	var (
		tr      *harmony.Trainer
		inDim   int
		classes int
	)
	cfg := harmony.TrainerConfig{
		Mode: mode, Devices: *devices, BatchSize: *batch,
		Adam: *adam, LR: float32(*lr), Seed: *seed,
		FaultSpec: *faultSpec, MaxRetries: *maxRetry, Recover: *recov,
		PrefetchDepth:   *prefetch,
		LinkBytesPerSec: *linkBW,
		NoVerify:        !*verify,
		CommChunks:      *commChunk,
		CommBucketBytes: *commBkt,
	}
	retuneStep, retuneMB, err := parseRetune(*retune)
	if err == nil && *retune != "" && retuneStep >= *steps {
		err = fmt.Errorf("-retune step %d is never reached with -steps %d", retuneStep, *steps)
	}
	if err == nil && *deviceMem < 0 {
		err = fmt.Errorf("-device-mem %d is negative (0 = half the footprint)", *deviceMem)
	}
	if err == nil && *linkBW < 0 {
		err = fmt.Errorf("-link-bw %d is negative (0 = no modeled links)", *linkBW)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
		return 2
	}
	switch *arch {
	case "lenet":
		inDim, classes = 32*32, 10
		// LeNet's fc1 dominates: its update working set (W + dW +
		// optimizer state) must fit on one device.
		cfg.DeviceBytes = pickMem(*deviceMem, defaultMem(48120, footprintLeNet(*adam), *adam))
		tr, err = harmony.NewLeNetTrainer(cfg)
	case "mlp":
		widths, perr := parseWidths(*widthsArg)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", perr)
			return 2
		}
		inDim, classes = widths[0], widths[len(widths)-1]
		cfg.Widths = widths
		var largest int64
		for i := 0; i+1 < len(widths); i++ {
			if p := int64(widths[i]*widths[i+1] + widths[i+1]); p > largest {
				largest = p
			}
		}
		cfg.DeviceBytes = pickMem(*deviceMem, defaultMem(largest, footprintGuess(widths, *adam), *adam))
		tr, err = harmony.NewTrainer(cfg)
	default:
		fmt.Fprintf(os.Stderr, "harmonytrain: unknown arch %q\n", *arch)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
		return 1
	}
	fmt.Printf("arch %s, %s on %d virtual devices of %s (model footprint %s)\n",
		*arch, mode, *devices, sizeOf(cfg.DeviceBytes), sizeOf(tr.FootprintBytes()))

	// With fault injection armed, collect every fault and retry into a
	// timeline: zero-width spans stamped with the wall-clock offset
	// since training start. Observers run on device-worker goroutines,
	// so guard the trace with a mutex.
	var (
		faultTL trace.Trace
		faultMu sync.Mutex
		started = time.Now()
	)
	if *faultSpec != "" {
		tr.OnFault(func(ev harmony.FaultEvent) {
			at := sim.Time(time.Since(started).Seconds())
			lane, label := trace.Fault, faultLabel(ev)
			if ev.Kind == fault.EvRetry {
				lane = trace.Retry
			}
			faultMu.Lock()
			faultTL.Add(hw.DeviceID(ev.Dev), lane, label, at, at)
			faultMu.Unlock()
		})
	}

	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
			return 1
		}
		err = tr.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "harmonytrain: load: %v\n", err)
			return 1
		}
		fmt.Printf("restored checkpoint %s\n", *loadPath)
	}

	blobs := harmony.NewBlobs(inDim, classes, float32(*noise), *seed+7)
	trainStart := time.Now()
	var stepTL *trace.Trace
	for s := 0; s < *steps; s++ {
		if retuneStep > 0 && s == retuneStep {
			if rerr := tr.Retune(retuneMB); rerr != nil {
				fmt.Printf("retune before step %d rejected; keeping the current plan:\n%v\n", s, rerr)
			} else {
				fmt.Printf("retuned before step %d: %d microbatches\n", s, retuneMB)
			}
		}
		if *swapTrace && s == *steps-1 {
			stepTL = tr.EnableTrace() // record only the final step
		}
		x, y := blobs.Batch(tr.SamplesPerStep(), uint64(s))
		loss, err := tr.Step(x, y)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harmonytrain: step %d: %v\n", s, err)
			return 1
		}
		// A diverged run has nothing worth reporting or saving, and
		// every later step would only train NaNs.
		if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
			fmt.Fprintf(os.Stderr, "harmonytrain: step %d: loss is %v: training diverged, nothing saved (try a lower -lr)\n", s, loss)
			return 1
		}
		if s%10 == 0 || s == *steps-1 {
			fmt.Printf("step %4d  loss %.4f\n", s, loss)
		}
	}
	trainWall := time.Since(trainStart)

	// Held-out accuracy.
	correct, total := 0, 0
	for b := 0; b < 4; b++ {
		x, y := blobs.Batch(64, uint64(1_000_000+b))
		logits, err := tr.Predict(x, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
			return 1
		}
		for i := 0; i < 64; i++ {
			if nn.Argmax(logits, i, classes) == y[i] {
				correct++
			}
			total++
		}
	}
	st := tr.Stats()
	fmt.Printf("accuracy %.1f%% on %d held-out samples\n", 100*float64(correct)/float64(total), total)
	fmt.Printf("virtual-memory traffic: %.1f MB in, %.1f MB out, %.1f MB p2p, %d drops, %d zero-fills (%.1f MB not moved), host backing %.1f MiB\n",
		float64(st.SwapInBytes)/(1<<20), float64(st.SwapOutBytes)/(1<<20),
		float64(st.P2PBytes)/(1<<20), st.Drops, st.ZeroFills, float64(st.ZeroFillBytes)/(1<<20),
		float64(tr.HostBytes())/(1<<20))
	if st.PrefetchIssued > 0 {
		hitPct := 100 * float64(st.PrefetchHits) / float64(st.PrefetchIssued)
		fmt.Printf("swap overlap: %d prefetches (%.0f%% hit), %.1f ms async DMA (%.0f%% of %.1f ms train wall)\n",
			st.PrefetchIssued, hitPct,
			float64(st.AsyncDMANanos)/1e6,
			100*float64(st.AsyncDMANanos)/float64(trainWall.Nanoseconds()),
			float64(trainWall.Nanoseconds())/1e6)
	}
	if *linkBW > 0 {
		// Which link was the bottleneck: the one that was busy longest.
		ls := tr.LinkStats()
		fmt.Printf("modeled link busy time: uplink %.1f ms", float64(ls.Uplink.Nanoseconds())/1e6)
		for d, busy := range ls.Device {
			fmt.Printf(", gpu%d %.1f ms", d, float64(busy.Nanoseconds())/1e6)
		}
		fmt.Printf(" (of %.1f ms train wall)\n", float64(trainWall.Nanoseconds())/1e6)
	}
	// Exposed: the reductions' link time their updates waited for,
	// nothing else hiding it.
	cs := tr.CommStats()
	exposed := float64(cs.WaitNanos) / 1e6
	if cs.ChunksReduced > 0 {
		fmt.Printf("chunked collectives: %d chunk reductions, %.1f MB gradients reduced, %.1f ms of reduction link time exposed\n",
			cs.ChunksReduced, float64(cs.BytesReduced)/(1<<20), exposed)
	} else if cs.WaitNanos > 0 {
		fmt.Printf("collectives: %.1f ms of reduction link time exposed\n", exposed)
	}
	if stepTL != nil && len(stepTL.Events) > 0 {
		fmt.Print("final-step compute/DMA lanes:\n", stepTL.Gantt(100))
	}

	if *faultSpec != "" {
		injected, retries := tr.FaultStats()
		fmt.Printf("faults: %d injected, %d retried, %d recoveries\n",
			injected, retries, tr.Recoveries())
		faultMu.Lock()
		if len(faultTL.Events) > 0 {
			fmt.Print(faultTL.Gantt(72))
		}
		faultMu.Unlock()
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harmonytrain: %v\n", err)
			return 1
		}
		if err := tr.Save(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "harmonytrain: save: %v\n", err)
			return 1
		}
		f.Close()
		fmt.Printf("checkpoint written to %s\n", *savePath)
	}
	return 0
}

// faultLabel names a timeline span; its first character is the Gantt
// glyph ('r' retry, 'X' fatal, 't' transient, 'd' delay).
func faultLabel(ev harmony.FaultEvent) string {
	if ev.Kind == fault.EvRetry {
		return fmt.Sprintf("retry %s step %d", ev.Op, ev.Step)
	}
	glyph := map[fault.Mode]byte{fault.Transient: 't', fault.Fatal: 'X', fault.Delay: 'd'}[ev.Mode]
	return fmt.Sprintf("%c: %s %s step %d", glyph, ev.Mode, ev.Op, ev.Step)
}

// parseRetune parses the -retune spec: "step=N,microbatches=M" means
// reshape the plan to M microbatches right before step N.
func parseRetune(s string) (step, microbatches int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return 0, 0, fmt.Errorf("bad -retune field %q (want key=value)", field)
		}
		n, cerr := strconv.Atoi(strings.TrimSpace(v))
		if cerr != nil || n <= 0 {
			return 0, 0, fmt.Errorf("bad -retune value %q", field)
		}
		switch strings.TrimSpace(k) {
		case "step":
			step = n
		case "microbatches":
			microbatches = n
		default:
			return 0, 0, fmt.Errorf("unknown -retune key %q (want step, microbatches)", k)
		}
	}
	if step == 0 || microbatches == 0 {
		return 0, 0, fmt.Errorf("-retune needs both step and microbatches, got %q", s)
	}
	return step, microbatches, nil
}

func parseWidths(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("need at least input and class widths, got %q", s)
	}
	widths := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad width %q", p)
		}
		widths[i] = v
	}
	return widths, nil
}

func pickMem(flagVal, fallback int64) int64 {
	if flagVal > 0 {
		return flagVal
	}
	if fallback < 16<<10 {
		fallback = 16 << 10
	}
	return fallback
}

// defaultMem picks a device size that exercises swapping (below the
// footprint) but keeps the largest layer's update feasible.
func defaultMem(largestParams, footprint int64, adam bool) int64 {
	mult := int64(2)
	if adam {
		mult = 4
	}
	updSet := largestParams*4*mult + 96<<10 // update working set + activation slack
	half := footprint / 2
	if half > updSet {
		return half
	}
	return updSet
}

// footprintLeNet is LeNet-5's persistent byte count.
func footprintLeNet(adam bool) int64 {
	mult := int64(2)
	if adam {
		mult = 4
	}
	return 61706 * 4 * mult
}

// footprintGuess estimates persistent bytes for an MLP so the default
// device size creates real memory pressure without infeasibility.
func footprintGuess(widths []int, adam bool) int64 {
	var params int64
	for i := 0; i+1 < len(widths); i++ {
		params += int64(widths[i]*widths[i+1] + widths[i+1])
	}
	mult := int64(2)
	if adam {
		mult = 4
	}
	return params * 4 * mult
}

func sizeOf(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
}
