// Command benchpair decides performance claims the way the
// simplicity-review guide says to: it runs the benchmark BENCHMARK.json
// declares, as a black box, in alternating pairs on a parent commit and
// on the working tree, and reports quartiles, wins and a verdict for
// every workload × end-to-end metric.
//
//	benchpair -ref origin/main                       # no-regression table, every workload
//	benchpair -ref HEAD~1 -workloads train-compute -claim op_ms_p50@train-compute
//
// Run it from the repository root. It checks -ref out into a temporary
// git worktree (under $TMPDIR, removed on exit) and uses the working
// tree as it stands, each side building into its own .bench_build/.
// Standard output carries one JSON line per run, as it finishes; the
// markdown report goes to standard error. Per workload it runs -pairs
// pairs of `<command> --workload W --seed i --seconds run_seconds
// --trace 0`, pair i with seed i on both sides, odd pairs parent first
// and even pairs change first, then one `--trace 1` pass per side whose
// reference-variant ratios (`*_vs_*` with `_min`/`_max`) it prints side
// by side. Verdicts per cell:
//
//   - unresolved: the parent's own inter-quartile distance, over its
//     median, exceeds the metric's declared bound — too noisy to tell,
//     unless every run of the change reads better than every run of
//     the parent, which no spread of the parent's explains
//   - regressed: the change's median is worse than the parent's by more
//     than the bound
//   - gain (only the -claim cell): the change wins at least 9/10 of the
//     pairs run, ties counting for neither, and the medians differ by
//     more than the parent's inter-quartile distance
//
// The exit status is 1 on a regression, an unmet claim, a cell with no
// data, or a higher share of failed ops on the change; a run that exits
// non-zero or reports correct:false counts as failed ops. A flagged
// ratio is a prompt to look, not a failure: with the harness's three
// repetitions a side, two intervals of the same code come apart by
// chance about one time in twenty.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// metric is one declared metric: its direction and, end to end, the
// fraction by which it may worsen.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmark is what benchpair reads of BENCHMARK.json.
type benchmark struct {
	Command    []string                `json:"command"`
	RunSeconds float64                 `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metric                `json:"end_to_end"`
	PerLayer   []metric                `json:"per_layer"`
}

// run is one invocation of the declared command, and one JSON line:
// where and how it ran, then the harness's own result line.
type run struct {
	Workload  string `json:"workload"`
	Side      string `json:"side"`
	Pair      int    `json:"pair"` // 0: the traced pass
	Seed      int    `json:"seed"`
	Trace     int    `json:"trace"`
	Exit      int    `json:"exit"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

var sideNames = [2]string{"parent", "change"}

func main() {
	ref := flag.String("ref", "", "commit the working tree is compared against (required)")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every one BENCHMARK.json declares)")
	claim := flag.String("claim", "", "metric@workload: the one cell a gain is claimed on")
	flag.Parse()
	if *ref == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ok, err := compare(ctx, *ref, *pairs, *workloads, *claim)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// compare prepares the two checkouts — ref in a temporary git worktree,
// the working tree as it stands, which is the current directory: the
// root of the repository, as for every make target — and runs the pairs
// on them.
func compare(ctx context.Context, ref string, pairs int, workloads, claim string) (bool, error) {
	const root = "."
	b, names, err := load("BENCHMARK.json", workloads, claim)
	if err != nil {
		return false, err
	}
	parent, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(parent)
	if _, err := git(ctx, root, "worktree", "add", "--detach", parent, ref); err != nil {
		return false, err
	}
	// Not ctx: the worktree must go even after an interrupt. Best
	// effort; `git worktree prune` clears whatever is left.
	defer git(context.Background(), root, "worktree", "remove", "--force", parent)

	// Both resolved a moment ago (worktree add, the go tool's own
	// build); a failure here only blanks a name in the headline.
	pc, _ := git(ctx, parent, "rev-parse", "--short", "HEAD")
	cc, _ := git(ctx, root, "rev-parse", "--short", "HEAD")
	diff, err := git(ctx, root, "diff", "--shortstat", ref)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(os.Stderr, headline(ref, pc, cc, diff))
	return measure(ctx, b, [2]string{parent, root}, pairs, names, claim, os.Stdout, os.Stderr)
}

// headline names both sides. An empty diff is what a mistaken set-up
// (the "change" a copy of the parent) and a deliberate noise run have in
// common, so it is labelled where nobody can miss it.
func headline(ref, parentCommit, changeCommit, shortstat string) string {
	if shortstat == "" {
		shortstat = "SELF-COMPARE: the working tree does not differ from " + ref
	}
	return fmt.Sprintf("# benchpair: parent %s (%s) vs change %s + working tree — %s", parentCommit, ref, changeCommit, shortstat)
}

func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// load reads the declaration and resolves -workloads and -claim
// against it.
func load(path, workloads, claim string) (*benchmark, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	b := new(benchmark)
	if err := json.Unmarshal(data, b); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Command) == 0 || len(b.Workloads) == 0 || len(b.EndToEnd) == 0 {
		return nil, nil, fmt.Errorf("%s: needs command, workloads and end_to_end", path)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	names := declared
	if workloads != "" {
		names = strings.Split(workloads, ",")
	}
	for _, n := range names {
		if !slices.Contains(declared, n) {
			return nil, nil, fmt.Errorf("workload %q is not one of %v", n, declared)
		}
	}
	if m, w, _ := strings.Cut(claim, "@"); claim != "" &&
		(!slices.Contains(names, w) || !slices.ContainsFunc(b.EndToEnd, func(e metric) bool { return e.Name == m })) {
		return nil, nil, fmt.Errorf("-claim %q: want <end-to-end metric>@<workload being run>", claim)
	}
	return b, names, nil
}

// measure runs the pairs and the traced passes in dirs (parent,
// change), writes a JSON line per run to runs and the tables to report.
// ok is false when any cell fails (see the package comment).
func measure(ctx context.Context, b *benchmark, dirs [2]string, pairs int, workloads []string, claim string, runs, report io.Writer) (ok bool, err error) {
	ok = true
	enc := json.NewEncoder(runs)
	for _, w := range workloads {
		var (
			rs                [2][]run // per side, pair i at index i-1
			attempted, failed [2]int
		)
		for i := 1; i <= pairs; i++ {
			first := (i + 1) % 2 // odd pairs parent first, even pairs change first
			for _, s := range [2]int{first, 1 - first} {
				r, err := runOnce(ctx, enc, b, dirs[s], run{Workload: w, Side: sideNames[s], Pair: i, Seed: i})
				if err != nil {
					return false, err
				}
				rs[s] = append(rs[s], r)
				attempted[s] += r.Attempted
				failed[s] += r.Failed
			}
		}
		fmt.Fprintf(report, "\n### %s — %d pairs, seeds 1–%d, failed ops: parent %d/%d, change %d/%d\n\n", w, pairs, pairs, failed[0], attempted[0], failed[1], attempted[1])
		if failed[1]*attempted[0] > failed[0]*attempted[1] {
			fmt.Fprintln(report, "**FAILED OPS: the change fails a larger share of its ops than the parent**")
			ok = false
		}
		fmt.Fprintln(report, "| metric | better | parent q1 / median / q3 | change q1 / median / q3 | change worse by | wins | verdict |\n|---|---|---|---|---|---|---|")
		for _, m := range b.EndToEnd {
			var vals [2][]float64
			wins := 0
			for i := range rs[0] {
				p, pok := rs[0][i].Metrics[m.Name]
				c, cok := rs[1][i].Metrics[m.Name]
				if pok {
					vals[0] = append(vals[0], p.Value)
				}
				if cok {
					vals[1] = append(vals[1], c.Value)
				}
				if pok && cok && (m.Better == "higher" && c.Value > p.Value || m.Better != "higher" && c.Value < p.Value) {
					wins++
				}
			}
			pq, cq := quartiles(vals[0]), quartiles(vals[1])
			worse, v, cellOK := verdict(m, pq, cq, wins, pairs, claim == m.Name+"@"+w, runsApart(m, vals[0], vals[1]))
			fmt.Fprintf(report, "| %s | %s | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %+.1f%% | %d/%d | %s |\n",
				m.Name, m.Better, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2], 100*worse, wins, pairs, v)
			ok = ok && cellOK
		}
		var traced [2]run
		for s := range traced {
			if traced[s], err = runOnce(ctx, enc, b, dirs[s], run{Workload: w, Side: sideNames[s], Seed: 1, Trace: 1}); err != nil {
				return false, err
			}
		}
		ratios(report, b, traced[0], traced[1])
	}
	return ok, nil
}

// runOnce runs the declared command in dir as r describes, fills r from
// the last line of its standard output and writes r's JSON line. A run
// that exits non-zero, prints no result or reports correct:false has
// failed ops: all of them, when it does not say how many. The error is
// the caller's to stop on: an interrupt, or a JSON line not written.
func runOnce(ctx context.Context, enc *json.Encoder, b *benchmark, dir string, r run) (run, error) {
	args := append(slices.Clone(b.Command[1:]), "--workload", r.Workload, "--seed", strconv.Itoa(r.Seed),
		"--seconds", strconv.FormatFloat(b.RunSeconds, 'g', -1, 64), "--trace", strconv.Itoa(r.Trace))
	cmd := exec.CommandContext(ctx, b.Command[0], args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return r, ctx.Err()
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	parseErr := json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	if err != nil {
		r.Exit = cmd.ProcessState.ExitCode() // -1 when it never started
		fmt.Fprintf(os.Stderr, "benchpair: %s seed %d in %s: %v\n", r.Workload, r.Seed, dir, err)
	}
	r.Correct = r.Correct && parseErr == nil && r.Exit == 0
	if !r.Correct && r.Failed == 0 {
		r.Attempted = max(r.Attempted, 1)
		r.Failed = r.Attempted
	}
	return r, enc.Encode(r)
}

// quartiles returns q1, the median and q3 of xs by linear interpolation
// between closest ranks (the harness's percentile), zeros when empty.
func quartiles(xs []float64) (q [3]float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	for i := 0; i < 3 && len(s) > 0; i++ {
		pos := float64(i+1) / 4 * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return q
}

// runsApart reports whether every run of the change reads better than
// every run of the parent.
func runsApart(m metric, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	if m.Better == "higher" {
		return slices.Min(change) > slices.Max(parent)
	}
	return slices.Max(change) < slices.Min(parent)
}

// verdict applies the simplicity-review rules to one cell. worse is the
// fraction of the parent's median by which the change's median is
// worse (negative: better); apart is the guides' exception to
// unresolved, and changes no other verdict.
func verdict(m metric, pq, cq [3]float64, wins, pairs int, claimed, apart bool) (worse float64, v string, ok bool) {
	if pq[1] == 0 || cq[1] == 0 {
		return 0, "**NO DATA**", false
	}
	worse = (cq[1] - pq[1]) / pq[1]
	if m.Better == "higher" {
		worse = -worse
	}
	iqr := (pq[2] - pq[0]) / pq[1]
	switch {
	case claimed && wins*10 >= 9*pairs && -worse > iqr:
		return worse, "**gain: claim met**", true
	case claimed:
		return worse, "**gain: claim NOT met**", false
	case iqr > m.Bound && !apart:
		return worse, "unresolved", true
	case worse > m.Bound:
		return worse, "**REGRESSED**", false
	}
	return worse, "no regression", true
}

// ratios prints every reference-variant ratio the traced passes
// measured, with the harness's own min and max as its spread, and flags
// one whose whole interval on the change is worse than the parent's.
func ratios(report io.Writer, b *benchmark, parent, change run) {
	for _, m := range b.PerLayer {
		at := func(r run, suffix string) float64 { return r.Metrics[m.Name+suffix].Value }
		if !strings.Contains(m.Name, "_vs_") || strings.HasSuffix(m.Name, "_min") || strings.HasSuffix(m.Name, "_max") || at(parent, "") == 0 && at(change, "") == 0 {
			continue // not a ratio, or not one this workload measures
		}
		flag := ""
		if m.Better == "higher" && at(change, "_max") < at(parent, "_min") || m.Better != "higher" && at(change, "_min") > at(parent, "_max") {
			flag = " — **FLAG: the change's whole interval is worse than the parent's**"
		}
		fmt.Fprintf(report, "- `%s` median [min, max]: parent %.3f [%.3f, %.3f], change %.3f [%.3f, %.3f]%s\n", m.Name,
			at(parent, ""), at(parent, "_min"), at(parent, "_max"), at(change, ""), at(change, "_min"), at(change, "_max"), flag)
	}
}
