package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{2, 0, false}, {99, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name string
		iv   []interval
		want float64
	}{
		{"empty", nil, 0},
		{"disjoint", []interval{{0, 1}, {2, 4}}, 3},
		{"overlapping", []interval{{0, 2}, {1, 3}}, 3},
		{"nested", []interval{{0, 10}, {2, 3}, {4, 5}}, 10},
		{"touching", []interval{{0, 1}, {1, 2}}, 2},
		{"unsorted", []interval{{5, 6}, {0, 1}, {0.5, 5.5}}, 6},
		{"zero width and inverted", []interval{{1, 1}, {3, 2}, {0, 1}}, 1},
	} {
		if got := unionLen(tc.iv); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: unionLen = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "setup", Start: 0, End: 10, Parent: -1},
		{Name: "NewTrainer", Start: 1, End: 3, Parent: 0},
		{Name: "warmup", Start: 3, End: 9, Parent: 0},
		{Name: "op", Start: 4, End: 6, Parent: 2},
	}}
	self := l.selfSeconds()
	for name, want := range map[string]float64{"setup": 2, "NewTrainer": 2, "warmup": 4, "op": 2} {
		if math.Abs(self[name]-want) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

func TestSpanParents(t *testing.T) {
	l := newSpanLog()
	endA := l.begin("a")
	endB := l.begin("b")
	endB()
	endC := l.begin("c")
	endC()
	endA()
	l.begin("d")()
	want := []int{-1, 0, 0, -1}
	for i, s := range l.spans {
		if s.Parent != want[i] || s.End < s.Start {
			t.Errorf("span %d (%s): parent %d, want %d; %v..%v", i, s.Name, s.Parent, want[i], s.Start, s.End)
		}
	}
	var off *spanLog
	off.begin("untraced")() // a nil log records nothing and does not panic
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"op_ms_p50", "exec.vm.ensure_hit_ns_2dev", "train-swap-link", "1st"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := "x"
	for len(long) <= 64 {
		long += "x"
	}
	for _, bad := range []string{"", "has space", "slash/name", "_leading", ".dot", "ünicode", long} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// The quietest window ignores a burst of interference wherever it
// falls, and keeps a periodic cost that every stretch contains.
func TestQuietest(t *testing.T) {
	// 100 ms ops, so the window is four ops; a slow op every fourth.
	calm := []float64{100, 100, 140, 100, 100, 100, 140, 100, 100, 100, 140, 100, 100, 100, 140, 100}
	burst := append([]float64(nil), calm...)
	for i := 4; i < 12; i++ {
		burst[i] *= 1.4
	}
	for name, ms := range map[string][]float64{"calm": calm, "burst": burst} {
		if got := quietest(ms, median); got != 100 {
			t.Errorf("%s: quietest median = %v, want 100", name, got)
		}
		if got := quietest(ms, mean); got != 110 {
			t.Errorf("%s: quietest mean = %v, want 110 (the periodic slow op counts)", name, got)
		}
	}
	if got := quietest([]float64{700, 500, 900}, median); got != 500 {
		t.Errorf("ops longer than the window: quietest = %v, want the fastest one", got)
	}
	if got := quietest([]float64{3, 5}, mean); got != 4 {
		t.Errorf("fewer ops than the window holds: quietest = %v, want their mean", got)
	}
}
