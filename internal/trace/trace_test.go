package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"harmony/internal/hw"
	"harmony/internal/sim"
)

func TestAddAndSpan(t *testing.T) {
	var tr Trace
	tr.Add(0, Compute, "F[L0]", 1, 2)
	tr.Add(1, SwapIn, "I W[L1]", 0.5, 1.5)
	lo, hi := tr.Span()
	if lo != 0.5 || hi != 2 {
		t.Fatalf("span = %v..%v", lo, hi)
	}
}

func TestEmptySpan(t *testing.T) {
	var tr Trace
	lo, hi := tr.Span()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty span = %v..%v", lo, hi)
	}
	if tr.Gantt(80) != "" {
		t.Fatal("empty gantt should be empty")
	}
}

func TestInvertedSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tr Trace
	tr.Add(0, Compute, "x", 2, 1)
}

func TestGanttRendering(t *testing.T) {
	var tr Trace
	tr.Add(0, Compute, "F[L0,mb0]", 0, 5)
	tr.Add(0, Compute, "B[L0,mb0]", 5, 10)
	tr.Add(1, SwapIn, "I W[L1]", 0, 3)
	g := tr.Gantt(20)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("gantt rows = %d:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], "gpu0") || !strings.Contains(lines[1], "compute") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[1], "F") || !strings.Contains(lines[1], "B") {
		t.Fatalf("compute row should show F and B: %q", lines[1])
	}
	if !strings.Contains(lines[2], "I") {
		t.Fatalf("swap row should show I: %q", lines[2])
	}
}

// Property: every event lands in the gantt with at least one cell,
// and gantt width is respected.
func TestGanttCoversEveryEvent(t *testing.T) {
	f := func(startsRaw []uint16) bool {
		var tr Trace
		for i, s := range startsRaw {
			if i >= 12 {
				break
			}
			start := sim.Time(s) / 100
			tr.Add(hw.DeviceID(i%3), Lane(i%4), string(rune('a'+i)), start, start+1)
		}
		if len(tr.Events) == 0 {
			return true
		}
		g := tr.Gantt(40)
		for _, e := range tr.Events {
			if !strings.Contains(g, string(e.Label[0])) {
				return false
			}
		}
		for _, line := range strings.Split(g, "\n") {
			if len(line) > 120 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUsageSparkline(t *testing.T) {
	points := []UsagePoint{
		{At: 0, Bytes: 0},
		{At: 1, Bytes: 500},
		{At: 2, Bytes: 1000},
		{At: 3, Bytes: 1500}, // over capacity
		{At: 4, Bytes: 200},
	}
	s := UsageSparkline(points, 20, 1000)
	if s == "" {
		t.Fatal("empty sparkline")
	}
	if !strings.Contains(s, "!") {
		t.Fatalf("over-capacity marker missing: %q", s)
	}
	runes := []rune(s)
	if len(runes) != 20 {
		t.Fatalf("width = %d, want 20", len(runes))
	}
	// Empty inputs degrade gracefully.
	if UsageSparkline(nil, 10, 100) != "" {
		t.Fatal("nil points should render empty")
	}
	if UsageSparkline(points, 0, 100) != "" {
		t.Fatal("zero width should render empty")
	}
}

func TestUsageSparklineMonotoneHeights(t *testing.T) {
	// A rising staircase should produce non-decreasing glyph levels.
	var points []UsagePoint
	for i := 0; i <= 8; i++ {
		points = append(points, UsagePoint{At: sim.Time(i), Bytes: int64(i * 100)})
	}
	s := []rune(UsageSparkline(points, 9, 0))
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("sparkline not monotone: %q", string(s))
		}
	}
}

func TestChromeTrace(t *testing.T) {
	var tr Trace
	tr.Add(0, Compute, "F[L0,mb0]", 0.001, 0.002)
	tr.Add(1, SwapIn, "I W[L1]", 0, 0.0005)
	out, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(out, &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0]["ph"] != "X" || evs[0]["name"] != "F[L0,mb0]" {
		t.Fatalf("event 0 = %v", evs[0])
	}
	if evs[0]["dur"].(float64) != 1000 { // 1 ms in µs
		t.Fatalf("dur = %v", evs[0]["dur"])
	}
}

func TestCommOverlapFraction(t *testing.T) {
	var empty Trace
	if f := empty.CommOverlapFraction(); f != 0 {
		t.Fatalf("empty trace overlap = %v", f)
	}

	// Comms [0,4) on dev 0; compute [1,2) on dev 1 and [3,6) on dev 0:
	// 2 of 4 comm seconds overlap compute somewhere.
	var tr Trace
	tr.Add(0, Comms, "AR[L0]#0", 0, 4)
	tr.Add(1, Compute, "B[L1]", 1, 2)
	tr.Add(0, Compute, "B[L0]", 3, 6)
	if f := tr.CommOverlapFraction(); f != 0.5 {
		t.Fatalf("overlap = %v, want 0.5", f)
	}

	// Fully covered comms, including overlapping comm spans that must
	// be unioned rather than double counted.
	var full Trace
	full.Add(0, Comms, "c", 0, 2)
	full.Add(1, Comms, "c", 1, 3)
	full.Add(2, Compute, "b", 0, 3)
	if f := full.CommOverlapFraction(); f != 1 {
		t.Fatalf("covered overlap = %v, want 1", f)
	}

	// No compute at all: monolithic barrier shape.
	var bare Trace
	bare.Add(0, Comms, "c", 0, 1)
	if f := bare.CommOverlapFraction(); f != 0 {
		t.Fatalf("bare overlap = %v, want 0", f)
	}
}

func TestCommsLaneName(t *testing.T) {
	if Comms.String() != "comms" {
		t.Fatalf("Comms lane renders as %q", Comms.String())
	}
}

// The manual clock moves only when slept on, by exactly what was asked,
// however many goroutines ask at once.
func TestManualClockAdvancesOnlyBySleeping(t *testing.T) {
	var c ManualClock
	var clk Clock = &c
	if !clk.Now().IsZero() {
		t.Fatalf("zero value reads %v", clk.Now())
	}
	clk.Sleep(-time.Second)
	clk.Sleep(0)
	if !clk.Now().IsZero() {
		t.Fatalf("a non-positive sleep moved the clock to %v", clk.Now())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				clk.Sleep(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := clk.Now().Sub(time.Time{}); got != 800*time.Microsecond {
		t.Fatalf("800 sleeps of 1 µs moved the clock %v", got)
	}
}
