package main

// benchpair against a fake declared command: testdata/BENCHMARK.json
// names testdata/fake.sh, which logs each call and prints a canned
// result line. measure takes the two checkouts as plain directories, so
// none of this needs git.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scene is a parent and a change "checkout" of the fixture benchmark.
type scene struct {
	t    *testing.T
	b    *benchmark
	root string
	dirs [2]string
}

func newScene(t *testing.T) *scene {
	t.Helper()
	b, _, err := load("testdata/BENCHMARK.json", "", "")
	if err != nil {
		t.Fatal(err)
	}
	fake, err := os.ReadFile("testdata/fake.sh")
	if err != nil {
		t.Fatal(err)
	}
	s := &scene{t: t, b: b, root: t.TempDir()}
	for i, name := range sideNames {
		s.dirs[i] = filepath.Join(s.root, name)
		if err := os.MkdirAll(filepath.Join(s.dirs[i], "canned"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(s.dirs[i], "fake.sh"), fake, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, w := range b.Workloads { // a traced pass that measured no ratio
			s.can(i, w.Name, 1, 1, resultLine(1, 0, "layer.busy_ms", 3.0), 0)
		}
	}
	return s
}

// resultLine is a harness result line: metrics as name, value pairs.
func resultLine(attempted, failed int, kv ...any) string {
	metrics := make(map[string]any)
	for i := 0; i < len(kv); i += 2 {
		metrics[kv[i].(string)] = map[string]any{"value": kv[i+1], "unit": "u"}
	}
	line, err := json.Marshal(map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// can sets what one side's command prints last, and its exit status,
// for (workload, trace, seed).
func (s *scene) can(side int, workload string, trace, seed int, line string, exit int) {
	s.t.Helper()
	base := filepath.Join(s.dirs[side], "canned", fmt.Sprintf("%s.%d.%d", workload, trace, seed))
	if err := os.WriteFile(base, []byte(line+"\n"), 0o644); err != nil {
		s.t.Fatal(err)
	}
	if err := os.WriteFile(base+".exit", []byte(fmt.Sprint(exit)), 0o644); err != nil {
		s.t.Fatal(err)
	}
}

// series cans pair i+1 of workload with op_ms parent[i] and change[i],
// ten ops a run, none failed; work_per_s is 1000/op_ms.
func (s *scene) series(workload string, parent, change []float64) {
	for side, vals := range [2][]float64{parent, change} {
		for i, v := range vals {
			s.can(side, workload, 0, i+1, resultLine(10, 0, "op_ms", v, "work_per_s", 1000/v), 0)
		}
	}
}

func (s *scene) measure(pairs int, workloads []string, claim string) (ok bool, runs []run, report string) {
	s.t.Helper()
	var out, rep bytes.Buffer
	ok, err := measure(context.Background(), s.b, s.dirs, pairs, workloads, claim, &out, &rep)
	if err != nil {
		s.t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	for dec.More() {
		var r run
		if err := dec.Decode(&r); err != nil {
			s.t.Fatal(err)
		}
		runs = append(runs, r)
	}
	return ok, runs, rep.String()
}

func (s *scene) calls() []string {
	s.t.Helper()
	log, err := os.ReadFile(filepath.Join(s.root, "calls.log"))
	if err != nil {
		s.t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(log)), "\n")
}

// row returns the report's table row for metric.
func row(t *testing.T, report, metric string) string {
	t.Helper()
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(l, "| "+metric+" ") {
			return l
		}
	}
	t.Fatalf("no row for %s in:\n%s", metric, report)
	return ""
}

func wantIn(t *testing.T, s string, subs ...string) {
	t.Helper()
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			t.Errorf("want %q in:\n%s", sub, s)
		}
	}
}

// Odd pairs run the parent first, even pairs the change; both sides of
// pair i get seed i; the declared command, its own arguments and
// run_seconds are passed through; the traced passes come last; only the
// chosen workloads run.
func TestAlternationSeedsAndCommand(t *testing.T) {
	s := newScene(t)
	s.series("alpha", []float64{10, 10, 10, 10}, []float64{10, 10, 10, 10})
	ok, runs, _ := s.measure(4, []string{"alpha"}, "")
	if !ok {
		t.Error("identical sides: want ok")
	}
	want := []string{
		"parent plain alpha seed=1 seconds=1.5 trace=0", "change plain alpha seed=1 seconds=1.5 trace=0",
		"change plain alpha seed=2 seconds=1.5 trace=0", "parent plain alpha seed=2 seconds=1.5 trace=0",
		"parent plain alpha seed=3 seconds=1.5 trace=0", "change plain alpha seed=3 seconds=1.5 trace=0",
		"change plain alpha seed=4 seconds=1.5 trace=0", "parent plain alpha seed=4 seconds=1.5 trace=0",
		"parent plain alpha seed=1 seconds=1.5 trace=1", "change plain alpha seed=1 seconds=1.5 trace=1",
	}
	got := s.calls()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("calls:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(runs) != len(want) {
		t.Fatalf("%d JSON lines, want one per run (%d)", len(runs), len(want))
	}
	for i, r := range runs {
		line := fmt.Sprintf("%s plain %s seed=%d seconds=1.5 trace=%d", r.Side, r.Workload, r.Seed, r.Trace)
		if line != want[i] || (r.Trace == 0) != (r.Pair == r.Seed) || !r.Correct || r.Exit != 0 {
			t.Errorf("JSON line %d = %+v, want it to describe %q", i, r, want[i])
		}
	}
	if v := runs[0].Metrics["op_ms"]; v.Value != 10 || v.Unit != "u" {
		t.Errorf("op_ms of the first run = %+v, want the harness's value and unit", v)
	}
}

// Quartiles interpolate between closest ranks; a win is a pair the
// change is strictly better on, in the metric's own direction, so ties
// count for neither side.
func TestQuartilesAndWins(t *testing.T) {
	if q := quartiles([]float64{4, 1, 3, 2}); q != [3]float64{1.75, 2.5, 3.25} {
		t.Errorf("quartiles(4,1,3,2) = %v", q)
	}
	if q := quartiles([]float64{7}); q != [3]float64{7, 7, 7} {
		t.Errorf("quartiles(7) = %v", q)
	}
	s := newScene(t)
	// Pairs: tie, win, loss, win, tie.
	s.series("alpha", []float64{10, 20, 30, 40, 50}, []float64{10, 19, 31, 32, 50})
	_, _, report := s.measure(5, []string{"alpha"}, "")
	wantIn(t, report, "### alpha — 5 pairs, seeds 1–5, failed ops: parent 0/50, change 0/50")
	wantIn(t, row(t, report, "op_ms"), "| lower | 20 / 30 / 40 | 19 / 31 / 32 |", "| 2/5 |", "+3.3%")
	// work_per_s = 1000/op_ms is better when higher: same wins.
	wantIn(t, row(t, report, "work_per_s"), "| higher |", "| 2/5 |")
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "op_ms", Better: "lower", Bound: 0.25}
	higher := metric{Name: "work_per_s", Better: "higher", Bound: 0.25}
	tight := [3]float64{98, 100, 102}
	wide := [3]float64{85, 100, 111} // spread 0.26 of the median
	at := func(med float64) [3]float64 { return [3]float64{med, med, med} }
	for _, c := range []struct {
		name        string
		m           metric
		pq, cq      [3]float64
		wins, pairs int
		claimed     bool
		apart       bool // every run of the change better than every run of the parent
		want        string
		ok          bool
	}{
		{"within the bound", lower, tight, at(124), 0, 10, false, false, "no regression", true},
		{"past the bound", lower, tight, at(126), 0, 10, false, false, "**REGRESSED**", false},
		{"better", lower, tight, at(50), 10, 10, false, true, "no regression", true},
		{"higher is better: drop within the bound", higher, tight, at(76), 0, 10, false, false, "no regression", true},
		{"higher is better: drop past the bound", higher, tight, at(74), 0, 10, false, false, "**REGRESSED**", false},
		{"higher is better: rise", higher, tight, at(200), 10, 10, false, true, "no regression", true},
		{"parent spread wider than the bound", lower, wide, at(300), 0, 10, false, false, "unresolved", true},
		{"wide parent, change better in the median only", lower, wide, at(80), 7, 10, false, false, "unresolved", true},
		{"wide parent, every run of the change better", lower, wide, at(50), 10, 10, false, true, "no regression", true},
		{"wide parent, higher is better, every run better", higher, wide, at(200), 10, 10, false, true, "no regression", true},
		{"claim: 9/10 wins and clear of the spread", lower, tight, at(95), 9, 10, true, false, "**gain: claim met**", true},
		{"claim: higher is better", higher, tight, at(105), 10, 10, true, true, "**gain: claim met**", true},
		{"claim: 8/10 wins", lower, tight, at(50), 8, 10, true, false, "**gain: claim NOT met**", false},
		{"claim: 17/20 wins", lower, tight, at(50), 17, 20, true, false, "**gain: claim NOT met**", false},
		{"claim: inside the parent's spread", lower, tight, at(97), 10, 10, true, true, "**gain: claim NOT met**", false},
		{"claim: got worse", lower, tight, at(130), 0, 10, true, false, "**gain: claim NOT met**", false},
		{"claim: wide parent, every run better, clear of the spread", lower, wide, at(50), 10, 10, true, true, "**gain: claim met**", true},
		{"claim: wide parent, every run better, inside the spread", lower, wide, at(80), 10, 10, true, true, "**gain: claim NOT met**", false},
		{"nothing measured on the change", lower, tight, at(0), 0, 10, false, false, "**NO DATA**", false},
	} {
		if _, got, ok := verdict(c.m, c.pq, c.cq, c.wins, c.pairs, c.claimed, c.apart); got != c.want || ok != c.ok {
			t.Errorf("%s: verdict %q ok=%v, want %q ok=%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// Each verdict reaches the report and the status measure returns, and
// the claim applies to its one cell only.
func TestVerdictsEndToEnd(t *testing.T) {
	flat := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	slow := []float64{130, 130, 130, 130, 130, 130, 130, 130, 130, 130}
	fast := []float64{80, 80, 80, 80, 80, 80, 80, 80, 80, 100} // 9 wins, one tie
	wide := []float64{60, 60, 60, 100, 100, 100, 100, 140, 140, 140}

	s := newScene(t)
	s.series("alpha", flat, slow)
	ok, _, report := s.measure(10, []string{"alpha"}, "")
	if ok {
		t.Error("regression: want not ok")
	}
	wantIn(t, row(t, report, "op_ms"), "**REGRESSED**", "+30.0%", "| 0/10 |")

	s = newScene(t)
	s.series("alpha", wide, slow)
	ok, _, report = s.measure(10, []string{"alpha"}, "")
	if !ok {
		t.Error("unresolved is not a failure")
	}
	wantIn(t, row(t, report, "op_ms"), "unresolved")

	// The exception: no spread of the parent's explains a change whose
	// every run is better than the parent's best — in either direction
	// of better — while one overlapping run keeps the cell unresolved.
	s = newScene(t)
	s.series("alpha", wide, []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 59})
	_, _, report = s.measure(10, []string{"alpha"}, "")
	wantIn(t, row(t, report, "op_ms"), "no regression", "| 10/10 |")
	wantIn(t, row(t, report, "work_per_s"), "no regression", "| 10/10 |")
	s = newScene(t)
	s.series("alpha", wide, []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 60})
	_, _, report = s.measure(10, []string{"alpha"}, "")
	wantIn(t, row(t, report, "op_ms"), "unresolved")

	s = newScene(t)
	s.series("alpha", flat, fast)
	s.series("beta", flat, fast)
	ok, _, report = s.measure(10, []string{"alpha", "beta"}, "op_ms@beta")
	if !ok {
		t.Errorf("claim met: want ok\n%s", report)
	}
	alpha, beta, _ := strings.Cut(report, "### beta")
	wantIn(t, row(t, alpha, "op_ms"), "no regression", "| 9/10 |")
	wantIn(t, row(t, beta, "op_ms"), "**gain: claim met**", "| 9/10 |")
	wantIn(t, row(t, beta, "work_per_s"), "no regression")

	s = newScene(t)
	s.series("alpha", flat, append([]float64{100, 100}, fast[2:]...)) // 7 wins
	ok, _, report = s.measure(10, []string{"alpha"}, "op_ms@alpha")
	if ok {
		t.Error("claim with 7/10 wins: want not ok")
	}
	wantIn(t, row(t, report, "op_ms"), "**gain: claim NOT met**", "| 7/10 |")
}

// A run that exits non-zero, prints no result line or reports
// correct:false is counted as failed ops on its side, never dropped.
func TestFailedRunsCount(t *testing.T) {
	s := newScene(t)
	s.series("alpha", []float64{10, 10, 10}, []float64{10, 10, 10})
	s.can(1, "alpha", 0, 2, "crashed before the result line", 3)
	ok, runs, report := s.measure(3, []string{"alpha"}, "")
	if ok {
		t.Error("change crashed once, parent never: want not ok")
	}
	wantIn(t, report, "failed ops: parent 0/30, change 1/21", "**FAILED OPS")
	wantIn(t, row(t, report, "op_ms"), "| 10 / 10 / 10 | 10 / 10 / 10 |")
	crashed := runs[2] // pair 2 runs the change first
	if crashed.Side != "change" || crashed.Pair != 2 || crashed.Exit != 3 || crashed.Correct || crashed.Failed != 1 || crashed.Attempted != 1 {
		t.Errorf("JSON line of the crashed run = %+v", crashed)
	}

	// The harness's own count of failed ops, with its exit status 1.
	s = newScene(t)
	s.series("alpha", []float64{10, 10}, []float64{10, 10})
	s.can(1, "alpha", 0, 1, resultLine(10, 4, "op_ms", 10.0, "work_per_s", 100.0), 1)
	ok, _, report = s.measure(2, []string{"alpha"}, "")
	if ok {
		t.Error("4 failed ops on the change: want not ok")
	}
	wantIn(t, report, "parent 0/20, change 4/20")

	// correct:false without a count: every op of the run.
	s = newScene(t)
	s.series("alpha", []float64{10, 10}, []float64{10, 10})
	incorrect := strings.Replace(resultLine(10, 0, "op_ms", 10.0, "work_per_s", 100.0), `"correct":true`, `"correct":false`, 1)
	s.can(1, "alpha", 0, 1, incorrect, 0)
	_, _, report = s.measure(2, []string{"alpha"}, "")
	wantIn(t, report, "parent 0/20, change 10/20", "**FAILED OPS")

	// The same share on both sides is not the change's doing; a side
	// with nothing measured is still a failure.
	s = newScene(t)
	s.series("alpha", []float64{10, 10}, []float64{10, 10})
	for side := range s.dirs {
		s.can(side, "alpha", 0, 1, resultLine(10, 2, "op_ms", 10.0, "work_per_s", 100.0), 1)
	}
	if ok, _, report = s.measure(2, []string{"alpha"}, ""); !ok {
		t.Errorf("equal failed share: want ok\n%s", report)
	}
	s = newScene(t)
	ok, _, report = s.measure(2, []string{"alpha"}, "")
	if ok {
		t.Error("no result on either side: want not ok")
	}
	wantIn(t, report, "parent 2/2, change 2/2", "**NO DATA**")
}

// The traced passes' ratios are printed side by side with the harness's
// own [min, max]; one whose whole interval on the change is worse than
// the parent's is flagged, in the ratio's own direction.
func TestRatios(t *testing.T) {
	s := newScene(t)
	s.series("alpha", []float64{10}, []float64{10})
	s.can(0, "alpha", 1, 1, resultLine(1, 0, "layer.busy_ms", 3.0,
		"layer.fast_vs_slow", 1.3, "layer.fast_vs_slow_min", 1.25, "layer.fast_vs_slow_max", 1.35,
		"layer.cost_vs_base", 2.0, "layer.cost_vs_base_min", 1.9, "layer.cost_vs_base_max", 2.1,
		"other.idle_vs_busy", 0.0, "other.idle_vs_busy_min", 0.0, "other.idle_vs_busy_max", 0.0), 0)
	s.can(1, "alpha", 1, 1, resultLine(1, 0, "layer.busy_ms", 3.0,
		"layer.fast_vs_slow", 1.1, "layer.fast_vs_slow_min", 1.05, "layer.fast_vs_slow_max", 1.2,
		"layer.cost_vs_base", 2.05, "layer.cost_vs_base_min", 2.0, "layer.cost_vs_base_max", 2.3,
		"other.idle_vs_busy", 0.0, "other.idle_vs_busy_min", 0.0, "other.idle_vs_busy_max", 0.0), 0)
	ok, _, report := s.measure(1, []string{"alpha"}, "")
	if !ok {
		t.Error("a flagged ratio is a prompt to look, not a failure")
	}
	wantIn(t, report,
		"- `layer.fast_vs_slow` median [min, max]: parent 1.300 [1.250, 1.350], change 1.100 [1.050, 1.200] — **FLAG",
		"- `layer.cost_vs_base` median [min, max]: parent 2.000 [1.900, 2.100], change 2.050 [2.000, 2.300]\n")
	for _, absent := range []string{"idle_vs_busy", "busy_ms`", "fast_vs_slow_min`"} {
		if strings.Contains(report, absent) {
			t.Errorf("%s is not a measured ratio, yet the report lists it:\n%s", absent, report)
		}
	}

	// Lower is better: flagged when the change's interval lies above.
	s.can(1, "alpha", 1, 1, resultLine(1, 0,
		"layer.fast_vs_slow", 1.5, "layer.fast_vs_slow_min", 1.4, "layer.fast_vs_slow_max", 1.6,
		"layer.cost_vs_base", 2.5, "layer.cost_vs_base_min", 2.2, "layer.cost_vs_base_max", 2.6), 0)
	_, _, report = s.measure(1, []string{"alpha"}, "")
	wantIn(t, report, "change 1.500 [1.400, 1.600]\n", "change 2.500 [2.200, 2.600] — **FLAG")
}

func TestHeadlineLabelsSelfCompare(t *testing.T) {
	h := headline("HEAD", "abc1234", "abc1234", "")
	wantIn(t, h, "SELF-COMPARE", "parent abc1234 (HEAD)", "change abc1234")
	h = headline("main", "abc1234", "def5678", "3 files changed, 10 insertions(+)")
	wantIn(t, h, "parent abc1234 (main)", "change def5678", "3 files changed")
	if strings.Contains(h, "SELF-COMPARE") {
		t.Errorf("a real diff labelled SELF-COMPARE: %s", h)
	}
}

func TestLoadResolvesArguments(t *testing.T) {
	_, names, err := load("testdata/BENCHMARK.json", "", "work_per_s@beta")
	if err != nil || strings.Join(names, ",") != "alpha,beta" {
		t.Errorf("default workloads = %v, %v; want every declared one", names, err)
	}
	if _, names, err = load("testdata/BENCHMARK.json", "beta", ""); err != nil || len(names) != 1 || names[0] != "beta" {
		t.Errorf("-workloads beta = %v, %v", names, err)
	}
	for _, bad := range [][2]string{
		{"gamma", ""},              // not declared
		{"", "layer.busy_ms@beta"}, // not an end-to-end metric
		{"", "op_ms@gamma"},        // not a workload
		{"alpha", "op_ms@beta"},    // a workload this invocation does not run
		{"", "op_ms"},
	} {
		if _, _, err := load("testdata/BENCHMARK.json", bad[0], bad[1]); err == nil {
			t.Errorf("-workloads %q -claim %q: want an error", bad[0], bad[1])
		}
	}
}
