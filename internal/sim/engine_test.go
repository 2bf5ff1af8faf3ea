package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{3, 1, 2, 0.5, 2} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 3 {
		t.Fatalf("end time = %v, want 3", end)
	}
	want := []Time{0.5, 1, 2, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(10, func() {
		e.After(5, func() { fired = e.Now() })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 15 {
		t.Fatalf("After fired at %v, want 15", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt)", count)
	}
	// Remaining event still queued and runnable.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count after resume = %d, want 2", count)
	}
}

func TestEngineLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 10
	var spin func()
	spin = func() { e.After(1, spin) }
	e.After(1, spin)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected event-limit error")
	}
}

// Property: for any set of non-negative delays, the engine processes
// events in non-decreasing time order and ends at the max time.
func TestEngineMonotonicClockProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		e := NewEngine()
		var last Time = -1
		mono := true
		var maxAt Time
		for _, d := range delaysRaw {
			at := Time(d) / 100
			if at > maxAt {
				maxAt = at
			}
			e.At(at, func() {
				if e.Now() < last {
					mono = false
				}
				last = e.Now()
			})
		}
		end, err := e.Run()
		if err != nil {
			return false
		}
		if len(delaysRaw) == 0 {
			return end == 0
		}
		return mono && end == maxAt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO resource never overlaps service periods and its
// total busy time equals the sum of service times.
func TestFIFOSerializationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewFIFO(e, "res")
		var total Time
		inService := 0
		ok := true
		count := int(n%20) + 1
		for i := 0; i < count; i++ {
			svc := Time(rng.Float64())
			total += svc
			at := Time(rng.Float64() * 3)
			e.At(at, func() {
				r.Acquire(svc, func(Time) {
					inService++
					if inService > 1 {
						ok = false
					}
				}, func(Time) {
					inService--
				})
			})
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		return ok && almostEq(float64(r.BusyTime), float64(total)) && r.Served == uint64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+b)
}

func TestFIFOQueueing(t *testing.T) {
	e := NewEngine()
	r := NewFIFO(e, "link")
	var starts []Time
	for i := 0; i < 3; i++ {
		r.Acquire(2, func(at Time) { starts = append(starts, at) }, nil)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 2, 4}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}
	if r.BusyTime != 6 {
		t.Fatalf("BusyTime = %v, want 6", r.BusyTime)
	}
}

func TestChainCompletesAtSlowest(t *testing.T) {
	e := NewEngine()
	a := NewFIFO(e, "a")
	b := NewFIFO(e, "b")
	// Pre-load b so the chained transfer queues behind 3s of work.
	b.Acquire(3, nil, nil)
	var doneAt Time
	Chain(e, []*FIFO{a, b}, 2, func(at Time) { doneAt = at })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 5 {
		t.Fatalf("chain done at %v, want 5 (queued behind b)", doneAt)
	}
}

func TestChainEmptyIsPureDelay(t *testing.T) {
	e := NewEngine()
	var doneAt Time
	Chain(e, nil, 1.5, func(at Time) { doneAt = at })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 1.5 {
		t.Fatalf("done at %v, want 1.5", doneAt)
	}
}

func TestNegativeServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	NewFIFO(e, "x").Acquire(-1, nil, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().After(-1, func() {})
}
