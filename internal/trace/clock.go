package trace

import (
	"sync/atomic"
	"time"
)

// Clock abstracts wall time for the deterministic core (internal/exec,
// internal/sched, internal/nn, internal/fault), which must never call
// time.Now directly — bit-exactness across goroutine interleavings is
// audited by the determinism analyzer (internal/analyzers). It has two
// consumers, neither of which feeds a scheduling or numeric decision:
// recording (timestamps for Gantt lanes and overlap counters) and the
// trainer's modeled links (exec/link.go), which read Now to place a
// reservation on a link's timeline and Sleep to make the caller wait
// for it. Both change when things happen, never what is computed.
type Clock interface {
	Now() time.Time
	// Sleep parks the caller for at least d. Never called with a mutex
	// held (the lockhold analyzer checks).
	Sleep(d time.Duration)
}

// WallClock is the production Clock: real wall time.
type WallClock struct{}

// Now returns the current wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// Sleep is time.Sleep.
func (WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// ManualClock is a Clock for tests that must not depend on real time:
// it stands still except when somebody sleeps on it, and a Sleep
// returns at once having moved Now forward by exactly d. The zero value
// reads the zero time. Safe for concurrent use; concurrent sleepers'
// waits add up instead of overlapping, so Now is an upper bound on the
// time a real clock would show, exact when one goroutine does all the
// sleeping.
type ManualClock struct {
	elapsed atomic.Int64 // nanoseconds slept since the zero time
}

// Now returns the zero time plus everything slept so far.
func (c *ManualClock) Now() time.Time { return time.Time{}.Add(time.Duration(c.elapsed.Load())) }

// Sleep advances Now by d (a negative d is no sleep at all).
func (c *ManualClock) Sleep(d time.Duration) {
	if d > 0 {
		c.elapsed.Add(int64(d))
	}
}
