// Command harmonybench is the repository's benchmark: six workloads
// over the trainer, the simulator and the linter, four end-to-end
// metrics per workload, and a per-layer ledger that says where the
// time went. See bench/README.md.
//
// One invocation runs one workload in this process, so peak RSS, GC
// state and the nn worker pool belong to that workload alone:
//
//	harmonybench -workload train-swap-link -seed 1 -seconds 12 -trace 0
//
// With -trace 0 it measures the end-to-end metrics with tracing off;
// with -trace 1 it runs the traced pass that fills the per-layer
// ledger. The last line of standard output is one JSON object with
// the run's verdict and metrics. A run uses one P and takes turns on
// the CPUs unless -procs says otherwise (see pin.go and the README's
// "One P"). Without -workload it runs every
// workload both ways, each in a child process, and prints the elapsed
// time of each and of the whole set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"harmony/internal/nn"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runCtx is the state of one workload run.
type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every loop to a couple of iterations and drops
	// the checks that need a long run; it is how the tests drive the
	// whole harness in seconds.
	smoke       bool
	outDir      string
	tree        string
	lintPattern string
	goldenOut   string

	spans   *spanLog
	cpus    *cpuRotor
	out     io.Writer
	metrics map[string]float64

	attempted int
	failed    int
}

// on reports whether the per-layer metric is measured on this run's
// workload; the declaration in spec.go is the only place that says so.
func (c *runCtx) on(metric string) bool {
	for _, m := range perLayer {
		if m.Name == metric {
			return slices.Contains(m.On, c.workload)
		}
	}
	panic("harmonybench: undeclared per-layer metric " + metric)
}

// n picks a loop length: full for a measured run, small under -smoke.
func (c *runCtx) n(full, small int) int {
	if c.smoke {
		return small
	}
	return full
}

// emit records a metric by its declared name.
func (c *runCtx) emit(name string, v float64) {
	if _, dup := c.metrics[name]; dup {
		panic("harmonybench: metric emitted twice: " + name)
	}
	c.metrics[name] = v
}

// problem records a failed correctness check; it fails one op.
func (c *runCtx) problem(format string, args ...any) {
	fmt.Fprintln(c.out, "FAIL:", fmt.Sprintf(format, args...))
	if c.failed < c.attempted {
		c.failed++
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish checks the emitted metrics against the declaration for this
// workload and builds the result. A mismatch is a harness bug, not a
// measurement, and is returned as an error.
func (c *runCtx) finish() (result, error) {
	declared := endToEnd
	if c.trace {
		declared = perLayer
	}
	res := result{Attempted: c.attempted, Failed: c.failed, Metrics: make(map[string]metricValue)}
	for _, m := range declared {
		v, ok := c.metrics[m.Name]
		measuredHere := !c.trace || slices.Contains(m.On, c.workload)
		switch {
		case ok && !measuredHere:
			return res, fmt.Errorf("metric %s emitted on %s, where it is not declared", m.Name, c.workload)
		case !ok && measuredHere:
			return res, fmt.Errorf("metric %s declared on %s but not emitted", m.Name, c.workload)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", m.Name)
		}
		if ok {
			fmt.Fprintf(c.out, "%-42s %14.6g %s\n", m.Name, v, m.Unit)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	for name := range c.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s emitted but not declared for -trace %v", name, c.trace)
		}
	}
	if c.attempted < 1 {
		return res, fmt.Errorf("no op attempted")
	}
	res.Correct = c.failed == 0
	return res, nil
}

var runners = map[string]func(*runCtx) error{
	wCompute:  runTrain,
	wSwapLink: runTrain,
	wPPLink:   runTrain,
	wComm:     runTrain,
	wSim:      runSim,
	wLint:     runLint,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("harmonybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: every workload, each in a child process)")
		seed     = fs.Uint64("seed", 1, "seed for the trainer, the dataset and the batch stream")
		seconds  = fs.Float64("seconds", runSeconds, "how long to measure")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		procs    = fs.Int("procs", 1, "GOMAXPROCS and nn worker-pool size for the run; 0 leaves both as the runtime set them")
		smoke    = fs.Bool("smoke", false, "two ops per workload and tiny probes: exercises the harness, measures nothing")
		outDir   = fs.String("out", "bench/out", "directory for the traced pass's span and trace files")
		tree     = fs.String("tree", ".", "root of the harmony module (the tree lint-tree lints)")
		pattern  = fs.String("lint-pattern", "./...", "package pattern lint-tree loads")
		golden   = fs.String("update-golden", "", "sim-sweep: write the measured statistics to this file instead of comparing")
		decl     = fs.Bool("declare", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *decl {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(declare()); err != nil {
			fmt.Fprintln(stderr, "harmonybench:", err)
			return 1
		}
		return 0
	}
	if *workload == "" {
		return runAll(args, stdout, stderr)
	}
	runner, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(stderr, "harmonybench: unknown workload %q\n", *workload)
		return 2
	}
	c := &runCtx{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		outDir: *outDir, tree: *tree, lintPattern: *pattern, goldenOut: *golden,
		out: stdout, metrics: make(map[string]float64),
	}
	if c.smoke {
		c.seconds = 0
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
		nn.SetWorkers(*procs)
	}
	if *procs == 1 {
		c.cpus = newCPURotor()
	}
	if c.trace {
		c.spans = newSpanLog()
	}
	printEnv(stdout, c)
	start := time.Now()
	err := runner(c)
	if err == nil && c.goldenOut != "" {
		fmt.Fprintln(stdout, "wrote", c.goldenOut)
		return 0
	}
	if err == nil && c.spans != nil {
		err = c.writeSpans()
	}
	var res result
	if err == nil {
		res, err = c.finish()
	}
	if err != nil {
		fmt.Fprintf(stderr, "harmonybench: %s: %v\n", c.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "elapsed %.2fs, %d ops attempted, %d failed\n", time.Since(start).Seconds(), res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "harmonybench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeSpans stores the bench-owned spans and prints self time per
// span name: a span's duration minus what its children cover.
func (c *runCtx) writeSpans() error {
	if err := c.spans.write(fmt.Sprintf("%s/%s.spans.json", c.outDir, c.workload)); err != nil {
		return err
	}
	self := c.spans.selfSeconds()
	fmt.Fprintln(c.out, "span self time (s):")
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(c.out, "  %-28s %10.4f\n", name, self[name])
	}
	return nil
}

// printEnv records what a reader needs to compare two runs.
func printEnv(w io.Writer, c *runCtx) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(w, "harmonybench workload=%s seed=%d seconds=%g trace=%v smoke=%v\n", c.workload, c.seed, c.seconds, c.trace, c.smoke)
	fmt.Fprintf(w, "%s GOMAXPROCS=%d GOGC=%s nproc=%d commit=%s\n", runtime.Version(), runtime.GOMAXPROCS(0), gogc, runtime.NumCPU(), commit(c.tree))
}

// commit names the tree under test; a checkout that is not a git
// repository has none.
func commit(tree string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = tree
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload untraced and then traced, each in a
// child process of its own, passing the caller's flags through.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "harmonybench:", err)
		return 1
	}
	status := 0
	total := time.Now()
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloads {
			start := time.Now()
			cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name, "-trace", trace)...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "harmonybench: %s -trace %s: %v\n", w.Name, trace, err)
				status = 1
			}
			fmt.Fprintf(stdout, "== %s trace=%s took %.1fs\n\n", w.Name, trace, time.Since(start).Seconds())
		}
	}
	fmt.Fprintf(stdout, "== all workloads took %.1fs\n", time.Since(total).Seconds())
	return status
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
