package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestEngineOrderMatchesOracle drives the engine with seeded random
// programs — many exact ties, zero delays, callbacks that schedule more
// events and call Stop, re-Runs after Stop, a Limit that trips — and
// checks the executed sequence against the definition of the order: the
// scheduling order, stably sorted by time. The heap's shape is free to
// change; this sequence is not.
func TestEngineOrderMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		if seed%4 == 0 {
			e.Limit = uint64(20 + rng.Intn(200))
		}
		var at []Time // at[id], id = position in scheduling order
		var got []int
		budget := 300 + rng.Intn(1500)
		var schedule func()
		schedule = func() {
			if len(at) >= budget {
				return
			}
			id := len(at)
			// A coarse grid makes most events tie with several others.
			d := Time(rng.Intn(4)) * 0.5
			at = append(at, e.Now()+d)
			fn := func() {
				if e.Now() != at[id] {
					t.Fatalf("seed %d: event %d ran at %v, scheduled for %v", seed, id, e.Now(), at[id])
				}
				got = append(got, id)
				for k := rng.Intn(4); k > 0; k-- {
					schedule()
				}
				if rng.Intn(16) == 0 {
					e.Stop()
				}
			}
			if rng.Intn(2) == 0 {
				e.After(d, fn)
			} else {
				e.At(e.Now()+d, fn)
			}
		}
		for i := 0; i < 8; i++ {
			schedule()
		}
		limited := false
		for len(e.events) > 0 && !limited {
			if _, err := e.Run(); err != nil {
				if e.Limit == 0 || e.Processed != e.Limit+1 {
					t.Fatalf("seed %d: %v", seed, err)
				}
				limited = true
			}
		}
		want := make([]int, len(at))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
		if !limited && len(got) != len(want) {
			t.Fatalf("seed %d: ran %d of %d events", seed, len(got), len(want))
		}
		if limited && uint64(len(got)) != e.Limit {
			t.Fatalf("seed %d: ran %d events under Limit %d", seed, len(got), e.Limit)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d ran event %d (t=%v), oracle says %d (t=%v)",
					seed, i, got[i], at[got[i]], want[i], at[want[i]])
			}
		}
	}
}

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	fn()
}

// A NaN time compares false with everything, so the heap could not
// order it and `t < now` would not catch it: it is rejected on entry.
func TestNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	e := NewEngine()
	f := NewFIFO(e, "f")
	mustPanic(t, "At(NaN)", func() { e.At(nan, func() {}) })
	mustPanic(t, "After(NaN)", func() { e.After(nan, func() {}) })
	mustPanic(t, "Acquire(NaN)", func() { f.Acquire(nan, nil, nil) })
	mustPanic(t, "Chain(NaN) over a resource", func() { Chain(e, []*FIFO{f}, nan, func(Time) {}) })
	mustPanic(t, "Chain(NaN) over none", func() { Chain(e, nil, nan, func(Time) {}) })
	if len(e.events) != 0 || f.busy || len(f.queue) != 0 {
		t.Fatalf("a rejected request left state behind: %d events, busy=%v, %d queued", len(e.events), f.busy, len(f.queue))
	}
	// The clock stays usable.
	e.At(2, func() {})
	e.At(1, func() {})
	if end, err := e.Run(); err != nil || end != 2 {
		t.Fatalf("Run = %v, %v", end, err)
	}
}

// TestFIFODoneMayReacquire pins the re-entrancy contract: done runs
// with the server idle and its statistics updated, before the next
// queued request is dispatched; a request it adds goes to the back.
func TestFIFODoneMayReacquire(t *testing.T) {
	e := NewEngine()
	f := NewFIFO(e, "f")
	var log []string
	note := func(s string) func(Time) {
		return func(at Time) { log = append(log, fmt.Sprintf("%s@%v", s, at)) }
	}
	f.Acquire(1, note("startA"), func(at Time) {
		if f.Served != 1 || f.BusyTime != 1 || f.busy {
			t.Errorf("in done: Served=%d BusyTime=%v busy=%v, want 1, 1, false", f.Served, f.BusyTime, f.busy)
		}
		log = append(log, fmt.Sprintf("doneA@%v", at))
		f.Acquire(1, note("startC"), note("doneC"))
		// B was queued first, so it — not C — went into service, inside
		// this callback.
		if !f.busy || len(log) == 0 || log[len(log)-1] != "startB@1" {
			t.Errorf("after re-acquire: busy=%v log=%v, want B started at 1", f.busy, log)
		}
	})
	f.Acquire(1, note("startB"), note("doneB"))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"startA@0", "doneA@1", "startB@1", "doneB@2", "startC@2", "doneC@3"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	if f.Served != 3 || f.BusyTime != 3 {
		t.Fatalf("Served=%d BusyTime=%v, want 3 and 3", f.Served, f.BusyTime)
	}
}

// TestFIFOQueueStaysBounded: the queue's array is reused, both when the
// FIFO drains between requests and when it never does.
func TestFIFOQueueStaysBounded(t *testing.T) {
	const cycles = 100_000
	e := NewEngine()
	drained := NewFIFO(e, "drained")
	for i := 0; i < 3; i++ {
		drained.Acquire(1, nil, nil)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		drained.Acquire(1, nil, nil)
		drained.Acquire(1, nil, nil)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if drained.Served != 2*cycles+3 || drained.BusyTime != 2*cycles+3 {
		t.Fatalf("drained and refilled: Served=%d BusyTime=%v, want %d", drained.Served, drained.BusyTime, 2*cycles+3)
	}
	if c := cap(drained.queue); c > 8 {
		t.Fatalf("cap(queue) = %d after %d drain cycles of depth 2", c, cycles)
	}

	// Never drained: five requests stay outstanding, each completion
	// adding one.
	busy := NewFIFO(e, "busy")
	left := cycles
	var again func(Time)
	again = func(Time) {
		if left--; left > 0 {
			busy.Acquire(1, nil, again)
		}
	}
	for i := 0; i < 5; i++ {
		busy.Acquire(1, nil, again)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if busy.Served != cycles+4 {
		t.Fatalf("Served = %d, want %d", busy.Served, cycles+4)
	}
	if c := cap(busy.queue); c > 32 {
		t.Fatalf("cap(queue) = %d after %d cycles with 5 outstanding", c, cycles)
	}
}

// TestChainCallsDoneOnceAtSlowest: over no resource, one, and several
// with unequal backlogs.
func TestChainCallsDoneOnceAtSlowest(t *testing.T) {
	for _, backlogs := range [][]Time{nil, {0}, {4}, {0, 3, 1}, {2, 2, 7, 0}} {
		e := NewEngine()
		var res []*FIFO
		slowest := Time(0)
		for _, b := range backlogs {
			f := NewFIFO(e, "r")
			if b > 0 {
				f.Acquire(b, nil, nil)
			}
			if b > slowest {
				slowest = b
			}
			res = append(res, f)
		}
		calls := 0
		var doneAt Time
		Chain(e, res, 2, func(at Time) { calls++; doneAt = at })
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || doneAt != slowest+2 {
			t.Errorf("backlogs %v: done called %d times, last at %v; want once at %v", backlogs, calls, doneAt, slowest+2)
		}
		for i, f := range res {
			if f.busy || f.head != len(f.queue) {
				t.Errorf("backlogs %v: resource %d not idle afterwards", backlogs, i)
			}
		}
	}
}

// The allocation guards: the loop the whole simulator runs on stays
// free of per-event garbage.
func TestSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	tick := func() {}
	// Grow the heap once.
	for i := 0; i < 64; i++ {
		e.After(Time(i), tick)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(Time(i%7), tick)
		}
		e.Run()
	}); n != 0 {
		t.Errorf("Engine.After+Run of a bound func: %v allocs per 64 events, want 0", n)
	}

	f := NewFIFO(e, "f")
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			f.Acquire(1, nil, nil)
		}
		e.Run()
	}); n != 0 {
		t.Errorf("FIFO.Acquire+drain: %v allocs per 16 requests, want 0", n)
	}

	res := []*FIFO{NewFIFO(e, "a"), NewFIFO(e, "b"), NewFIFO(e, "c")}
	done := func(Time) {}
	if n := testing.AllocsPerRun(100, func() {
		Chain(e, res, 1, done)
		e.Run()
	}); n != 1 {
		t.Errorf("Chain over 3 resources: %v allocs, want 1 (the join)", n)
	}
}
