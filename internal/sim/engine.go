// Package sim implements a deterministic discrete-event simulation
// engine. It is the timing substrate for every Harmony experiment: a
// virtual clock, an event heap ordered by (time, sequence), cooperative
// processes, and resource primitives (FIFO servers and bandwidth
// links) that model GPU compute streams, copy engines and PCIe links.
//
// The engine is deliberately free of wall-clock time and randomness so
// that every run of the same configuration produces an identical event
// trace; the property tests rely on this replay determinism. The
// package is part of harmonylint's deterministic core (DESIGN.md §10):
// the determinism analyzer rejects wall-clock reads, global rand state
// and map iteration here mechanically, not just by convention.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Infinity is a time later than any event the engine will schedule.
const Infinity = Time(math.MaxFloat64)

// event is a callback scheduled at a point in virtual time. Ties are
// broken by seq, the order in which events were scheduled, which makes
// the simulation fully deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap orders events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all callbacks run on the goroutine that calls
// Run.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped bool

	// Processed counts events executed; useful as a progress and
	// runaway-loop diagnostic.
	Processed uint64
	// Limit aborts the run when more than Limit events execute
	// (0 = no limit). A hard backstop against schedule bugs that
	// would otherwise spin forever.
	Limit uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past is
// a programming error and panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the heap is empty, Stop is
// called, or the event limit is exceeded. It returns the final virtual
// time.
func (e *Engine) Run() (Time, error) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		ev := heap.Pop(&e.events).(*event)
		if ev.at < e.now {
			return e.now, fmt.Errorf("sim: time went backwards: %v -> %v", e.now, ev.at)
		}
		e.now = ev.at
		e.Processed++
		if e.Limit > 0 && e.Processed > e.Limit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at t=%v", e.Limit, e.now)
		}
		ev.fn()
	}
	return e.now, nil
}
