package main

import (
	"math"
	"strings"
	"testing"
)

// The checker must fail on the NaN divergence BENCH_trainer.json's
// configs run into, on a loss that does not come down, and on a run
// that drifts from the serial reference.
func TestCheckLosses(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	good := []float32{2.3, 2.1, 1.0, 0.6, 0.4, 0.2}
	for _, tc := range []struct {
		name   string
		losses []float32
		ref    []float32
		first  int
		want   string // substring of the violation; empty means none
	}{
		{"converging", good, good[:4], 2, ""},
		{"nan", []float32{2.3, 1.9, nan, nan}, nil, -1, "loss at step 2 is NaN"},
		{"inf", []float32{2.3, inf}, nil, -1, "loss at step 1 is +Inf"},
		{"diverging", []float32{2.3, 2.1, 2.5, 4.0, 9.5}, nil, 1, "not under half"},
		{"flat", []float32{2.3, 2.1, 1.2, 1.1}, nil, 1, "not under half"},
		{"halving skipped on a short run", []float32{2.3, 2.1, 2.5}, nil, -1, ""},
		{"drift from the reference", good, []float32{2.3, 2.1, 1.0000001}, -1, "serial reference"},
		{"fewer losses than the reference", good[:2], good[:4], -1, "only 2 losses"},
	} {
		bad := checkLosses(tc.losses, tc.ref, tc.first)
		switch {
		case tc.want == "" && len(bad) > 0:
			t.Errorf("%s: unexpected violations %q", tc.name, bad)
		case tc.want != "" && !strings.Contains(strings.Join(bad, "\n"), tc.want):
			t.Errorf("%s: violations %q do not mention %q", tc.name, bad, tc.want)
		}
	}
}

// A failed check fails the run: correct is false and an op counts as
// failed.
func TestProblemFailsRun(t *testing.T) {
	c := &runCtx{workload: wSwapLink, out: new(strings.Builder), metrics: map[string]float64{}, attempted: 3}
	for _, m := range endToEnd {
		c.emit(m.Name, 1)
	}
	c.problem("loss at step %d is NaN", 7)
	res, err := c.finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 3 {
		t.Errorf("result %+v: want incorrect with 1 of 3 ops failed", res)
	}
}
