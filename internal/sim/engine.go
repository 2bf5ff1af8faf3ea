// Package sim implements a deterministic discrete-event simulation
// engine. It is the timing substrate for every Harmony experiment: a
// virtual clock (Engine), an event heap held by value and ordered by
// (time, sequence), a FIFO server that models a GPU compute stream, a
// DMA copy engine or one direction of a link, and Chain, which holds
// several FIFOs for one transfer and completes at the slowest.
//
// Callbacks run as engine events on the goroutine that calls Run. A
// FIFO's done callback runs after the server has been marked idle and
// its statistics updated but before the next queued request is
// dispatched, so done may re-acquire the same FIFO: its request joins
// the back of the queue and the head of the queue goes into service.
//
// The engine is deliberately free of wall-clock time and randomness so
// that every run of the same configuration produces an identical event
// trace; the property tests rely on this replay determinism. (at, seq)
// is a total order — seq is unique — so the sequence of events popped
// does not depend on the shape of the heap. That requires every time to
// compare: a NaN time or service is rejected where it enters (At,
// After, FIFO.Acquire, Chain), like a negative one. The package is part
// of harmonylint's deterministic core (DESIGN.md §10): the determinism
// analyzer rejects wall-clock reads, global rand state and map
// iteration here mechanically, not just by convention.
package sim

import (
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

// before orders events by (at, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all callbacks run on the goroutine that calls
// Run.
type Engine struct {
	now Time
	seq uint64
	// events is a binary min-heap on (at, seq), held by value so that
	// scheduling an event allocates nothing once the slice has grown.
	events  []event
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

// At schedules fn to run at absolute time t. Scheduling in the past, or
// at a NaN time, is a programming error and panics: it would silently
// corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if !(t >= e.now) { // also true for NaN, which no comparison orders
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.push(event{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", d))
	}
	e.At(e.now+d, fn)
}

// push sifts ev up from a new leaf. The leaf is opened without a store
// (spare capacity is zero: pop zeroes what it vacates), so an event that
// stays at the leaf is written once.
func (e *Engine) push(ev event) {
	h := e.events
	i := len(h)
	if i < cap(h) {
		h = h[:i+1]
	} else {
		h = append(h, event{})
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes the earliest event. The vacated slot is zeroed so the
// backing array does not keep the callback's closure alive.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(&h[child]) {
				child = r
			}
			if !h[child].before(&last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	e.events = h
	return top
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the heap is empty, Stop is
// called, or the event limit is exceeded. It returns the final virtual
// time.
func (e *Engine) Run() (Time, error) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		ev := e.pop()
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
