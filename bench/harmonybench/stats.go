package main

import (
	"math"
	"regexp"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0..1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// quietWindowMS is how long a stretch of ops the timing metrics are
// taken over.
const quietWindowMS = 400

// quietest slides a window of as many consecutive ops as fit in
// quietWindowMS at the fastest op's pace (at least one) over the ops in
// the order they ran and returns the lowest value of stat over it.
//
// The sandbox shares its cores with other tenants, whose load arrives
// in bursts of 0.3–5 s and slows the workload up to 2× while it lasts;
// between bursts the machine is quiet for 1–10 s. Over eleven 10 s
// stretches of one process the whole-run median of a 250 ms step moved
// by 21 % (quartile distance over median), the quietest quarter of the
// run by 8 %, the quietest 0.4 s by 3 %. A contiguous stretch, not the
// fastest ops wherever they fell, keeps what the program does
// periodically — a GC cycle every few steps — inside the statistic
// whenever an op is shorter than the window.
func quietest(ms []float64, stat func([]float64) float64) float64 {
	w := min(len(ms), max(1, int(quietWindowMS/slices.Min(ms))))
	best := math.Inf(1)
	for i := 0; i+w <= len(ms); i++ {
		best = min(best, stat(ms[i:i+w]))
	}
	return best
}

// tailPercentile is the highest of p90, p99 and p99.9 that still has
// at least ten of n samples beyond it — the only tail a run of that
// length can report honestly. ok is false below 100 samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []struct {
		p     float64
		oneIn int
	}{{0.999, 1000}, {0.99, 100}, {0.9, 10}} {
		if n >= 10*c.oneIn {
			return c.p, true
		}
	}
	return 0, false
}

// interval is a half-open span of time in seconds.
type interval struct{ lo, hi float64 }

// unionLen is the total length covered by the intervals, counting
// overlapping stretches once. A device lane's busy time is the union
// of its spans, not their sum: DMA spans of concurrent transfers
// overlap.
func unionLen(iv []interval) float64 {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total, end float64
	end = math.Inf(-1)
	for _, v := range s {
		if v.hi <= v.lo {
			continue
		}
		if v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a workload or a metric.
func validName(s string) bool { return nameRe.MatchString(s) }

var unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
