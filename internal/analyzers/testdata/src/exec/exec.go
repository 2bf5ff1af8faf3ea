// Package exec is the fixture for the determinism analyzer. Its import
// path ("exec") places it inside the deterministic core, so wall-clock
// reads and map iteration are flagged.
package exec

import (
	"sort"
	"time"
)

type buf struct{ hot bool }

// victimByMapRange is the regression that motivated the map-iteration
// rule: the eviction scan picked a victim by ranging over the buffer
// map, so the choice depended on Go's per-run range order.
func victimByMapRange(bufs map[int]*buf) *buf {
	for _, b := range bufs { // want "map iteration in the deterministic core"
		if b.hot {
			return b
		}
	}
	return nil
}

// victimSorted is the deterministic replacement: materialize and sort
// the keys, then scan in a stable order. The materializing range is
// order-insensitive and says so.
func victimSorted(bufs map[int]*buf) *buf {
	keys := make([]int, 0, len(bufs))
	//lint:allow determinism key materialization; sorted before use
	for k := range bufs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if bufs[k].hot {
			return bufs[k]
		}
	}
	return nil
}

func stamp() time.Time {
	return time.Now() // want "time.Now in the deterministic core"
}

func elapsed(since time.Time) time.Duration {
	return time.Since(since) // want "time.Since in the deterministic core"
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "time.Until in the deterministic core"
}

// durations and date construction are deterministic; only clock reads
// are banned.
func fixedTimes() (time.Duration, time.Time) {
	return 3 * time.Millisecond, time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
}

// recordSpan shows the allowlist escape hatch: trace recording is off
// the deterministic path, and says so.
func recordSpan() time.Time {
	//lint:allow determinism trace recording only; never feeds scheduling
	return time.Now()
}

// The rules hold over the whole file, package-level declarations
// included, not only inside function declarations.
var t0 = time.Now() // want "time.Now in the deterministic core"

var anyHot = func(bufs map[int]*buf) bool {
	for _, b := range bufs { // want "map iteration in the deterministic core"
		if b.hot {
			return true
		}
	}
	return false
}
