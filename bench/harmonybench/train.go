package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"harmony"
)

// Every train-* workload uses SGD at this rate on a fresh batch per
// step. BENCH_trainer.json's configs run the default 0.05 on one
// repeated batch and reach NaN by step 7–9; a NaN step also times
// differently from a finite one.
const trainLR = 0.005

// warmupSteps run untimed after NewTrainer: the first touches of
// device memory and the scratch pools happen there.
const warmupSteps = 2

// serialCheckSteps is how many leading losses (warm-up included) are
// compared bit for bit against a Serial run of the same config.
const serialCheckSteps = warmupSteps + 10

// setupReps is how many times a run sets up. Of five, the first is
// cold and one more may fall under a neighbour's burst before the
// median moves.
const setupReps = 5

// halvedAfter is the fewest timed steps after which the last loss
// must be under half the first; shorter (smoke) runs skip that check.
const halvedAfter = 30

// trainSpec is one train-* workload's shape.
type trainSpec struct {
	config func(seed uint64) harmony.TrainerConfig
	// refSteps is the timed length of one reference repetition in the
	// traced pass, sized so three repetitions of every variant fit.
	refSteps int
}

var trainSpecs = map[string]trainSpec{
	wCompute: {refSteps: 10, config: func(seed uint64) harmony.TrainerConfig {
		return harmony.TrainerConfig{
			Widths: []int{784, 512, 512, 10}, Mode: harmony.HarmonyDP, Devices: 2,
			DeviceBytes: 64 << 20, BatchSize: 64, LR: trainLR, Seed: seed,
		}
	}},
	// BENCH_trainer.json's dp1-hostlink shape: a 5.05 MiB footprint on
	// one 4 MiB device, p2p off.
	wSwapLink: {refSteps: 10, config: func(seed uint64) harmony.TrainerConfig {
		return harmony.TrainerConfig{
			Widths: []int{256, 512, 512, 512, 10}, Mode: harmony.HarmonyDP, Devices: 1,
			DeviceBytes: 4 << 20, BatchSize: 8, LR: trainLR, Seed: seed,
			Toggles: &harmony.Toggles{P2P: harmony.Bool(false)}, PrefetchDepth: 4, LinkBytesPerSec: 1 << 27,
		}
	}},
	wPPLink: {refSteps: 10, config: func(seed uint64) harmony.TrainerConfig {
		return harmony.TrainerConfig{
			Widths: []int{256, 640, 640, 640, 10}, Mode: harmony.HarmonyPP, Devices: 2,
			DeviceBytes: 4 << 20, BatchSize: 8, LR: trainLR, Seed: seed,
			PrefetchDepth: 4, LinkBytesPerSec: 96 << 20,
		}
	}},
	wComm: {refSteps: 5, config: func(seed uint64) harmony.TrainerConfig {
		return harmony.TrainerConfig{
			Widths: []int{64, 1536, 1536, 1536, 10}, Mode: harmony.HarmonyDP, Devices: 4,
			DeviceBytes: 96 << 20, BatchSize: 4, Microbatches: 1, LR: trainLR, Seed: seed,
			LinkBytesPerSec: 1 << 30, CommChunks: 8, CommBucketBytes: 12 << 20,
		}
	}},
}

// session is one trainer with its batch stream and its history.
type session struct {
	tr    *harmony.Trainer
	blobs *harmony.Blobs
	next  uint64 // index of the next batch
	// queue holds batches generated ahead of time, for stretches where
	// the harness must not allocate between steps.
	queue  []batch
	losses []float32
	ms     []float64 // wall time of each Step
}

type batch struct {
	x []float32
	y []int
}

// newSession builds a trainer and its dataset from the seed; the
// program sees only the config and the generated batches.
func newSession(cfg harmony.TrainerConfig, seed uint64) (*session, error) {
	tr, err := harmony.NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.Widths
	return &session{tr: tr, blobs: harmony.NewBlobs(w[0], w[len(w)-1], 1.0, seed)}, nil
}

// step trains on the next batch of the stream. Only Step is timed;
// generating the batch is the harness's cost, not the program's.
func (s *session) step() error {
	if len(s.queue) == 0 {
		s.pregenerate(1)
	}
	b := s.queue[0]
	s.queue = s.queue[1:]
	start := time.Now()
	loss, err := s.tr.Step(b.x, b.y)
	s.ms = append(s.ms, time.Since(start).Seconds()*1e3)
	s.losses = append(s.losses, loss)
	return err
}

func (s *session) pregenerate(n int) {
	for i := 0; i < n; i++ {
		x, y := s.blobs.Batch(s.tr.SamplesPerStep(), s.next)
		s.next++
		s.queue = append(s.queue, batch{x, y})
	}
}

func (s *session) steps(n int) error {
	for i := 0; i < n; i++ {
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// stepsFor runs at least minOps steps and until seconds have passed,
// closing one "op" span per step. It stops at the first error: a
// trainer that failed a step holds partial state.
func (s *session) stepsFor(c *runCtx, seconds float64, minOps int) error {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		c.cpus.turnWhenDue()
		end := c.spans.begin("op")
		err := s.step()
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// setUp is what a user pays before the first useful step: NewTrainer
// (graph and plan build, schedcheck preflight, weight init, DMA engine
// start), the dataset, and the warm-up steps.
func setUp(c *runCtx, cfg harmony.TrainerConfig) (*session, error) {
	defer c.spans.begin("setup")()
	end := c.spans.begin("NewTrainer")
	s, err := newSession(cfg, c.seed)
	end()
	if err != nil {
		return nil, err
	}
	defer c.spans.begin("warmup")()
	if err := s.steps(warmupSteps); err != nil {
		s.tr.Close()
		return nil, err
	}
	return s, nil
}

// checkLosses is the guard against the NaN divergence and against a
// parallel path that drifts from the reference: every loss finite, the
// leading losses bit-identical to ref, and the last loss under half
// the one at index first (the first timed step; negative skips this
// check). It returns one line per violation.
func checkLosses(losses, ref []float32, first int) []string {
	var bad []string
	for i, l := range losses {
		if f := float64(l); math.IsNaN(f) || math.IsInf(f, 0) {
			bad = append(bad, fmt.Sprintf("loss at step %d is %v", i, l))
			break
		}
	}
	for i := range ref {
		if i >= len(losses) {
			bad = append(bad, fmt.Sprintf("only %d losses to compare with %d reference losses", len(losses), len(ref)))
			break
		}
		if math.Float32bits(losses[i]) != math.Float32bits(ref[i]) {
			bad = append(bad, fmt.Sprintf("loss at step %d is %v, the serial reference has %v", i, losses[i], ref[i]))
			break
		}
	}
	if n := len(losses); first >= 0 && first < n && !(losses[n-1] < losses[first]/2) {
		bad = append(bad, fmt.Sprintf("last loss %v is not under half the first timed loss %v", losses[n-1], losses[first]))
	}
	return bad
}

// serialLosses replays the first n steps of the stream on the
// single-threaded reference executor.
func serialLosses(cfg harmony.TrainerConfig, seed uint64, n int) ([]float32, error) {
	cfg.Serial = true
	s, err := newSession(cfg, seed)
	if err != nil {
		return nil, err
	}
	defer s.tr.Close()
	if err := s.steps(n); err != nil {
		return nil, err
	}
	return s.losses, nil
}

func runTrain(c *runCtx) error {
	spec := trainSpecs[c.workload]
	cfg := spec.config(c.seed)
	if c.trace {
		return runTrainTraced(c, spec, cfg)
	}

	// Set up several times and report the median: one set-up is at
	// most a second and the first in a process also pays for heap
	// growth. Each discarded trainer is collected before the next, so
	// the timed loop starts from the same heap every run.
	var setups []float64
	var s *session
	for i := 0; i < c.n(setupReps, 1); i++ {
		if s != nil {
			s.tr.Close()
			s = nil
			runtime.GC()
		}
		c.cpus.turn()
		start := time.Now()
		var err error
		if s, err = setUp(c, cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.tr.Close()

	stepErr := s.stepsFor(c, c.seconds, 2)
	timed := s.ms[warmupSteps:]
	c.attempted = len(timed)
	if stepErr != nil {
		c.problem("step %d: %v", len(s.ms), stepErr)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}

	ref, err := serialLosses(cfg, c.seed, min(serialCheckSteps, len(s.losses)))
	if err != nil {
		return err
	}
	first := -1
	if len(timed) >= halvedAfter {
		first = warmupSteps
	}
	for _, msg := range checkLosses(s.losses, ref, first) {
		c.problem("%s", msg)
	}

	emitEndToEnd(c, median(setups), timed, float64(s.tr.SamplesPerStep()), rss)
	return nil
}

// emitEndToEnd reports the four end-to-end metrics of a run whose ops
// took ms and did workPerOp units of work each. The two timing
// metrics are taken over the run's quietest 0.4 s (see quietest):
// op_ms_p50 is the median op there, and work_per_s is work over summed
// op time there — a mean, so tails and GC inside the stretch count.
func emitEndToEnd(c *runCtx, setupS float64, ms []float64, workPerOp, rssMiB float64) {
	printTiming(c, "op_ms over the whole run", ms)
	fmt.Fprintf(c.out, "work_per_s over the whole run: %.4f\n", workPerOp/(mean(ms)/1e3))
	c.emit("setup_s", setupS)
	c.emit("op_ms_p50", quietest(ms, median))
	c.emit("work_per_s", workPerOp/(quietest(ms, mean)/1e3))
	c.emit("peak_rss_mb", rssMiB)
}

// printTiming prints a timing as its median and the highest
// percentile the sample count supports, with the count.
func printTiming(c *runCtx, name string, ms []float64) {
	line := fmt.Sprintf("%s: n=%d p50=%.3f", name, len(ms), median(ms))
	if p, ok := tailPercentile(len(ms)); ok {
		line += fmt.Sprintf(" p%g=%.3f", p*100, percentile(ms, p))
	} else {
		line += " (too few samples for a tail percentile)"
	}
	fmt.Fprintln(c.out, line)
}

// peakRSSMiB is the process's resident-set high-water mark: host
// memory is the swap backing of a commodity server.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
