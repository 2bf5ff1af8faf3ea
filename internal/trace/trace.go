// Package trace records execution timelines (compute spans, swaps,
// p2p moves) and renders them as text Gantt charts and Chrome trace
// JSON — the mechanism behind the Fig. 4 schedule visualization.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"harmony/internal/hw"
	"harmony/internal/sim"
)

// Lane distinguishes parallel activity rows within one device.
type Lane int

const (
	// Compute is the kernel stream.
	Compute Lane = iota
	// SwapIn is host→device DMA.
	SwapIn
	// SwapOut is device→host DMA.
	SwapOut
	// P2P is device→device DMA (attributed to the receiving device).
	P2P
	// Fault marks an injected fault firing (zero-width span at the
	// injection instant; the label says which op and mode).
	Fault
	// Retry marks the retry layer re-attempting a faulted operation.
	Retry
	// Prefetch is host→device DMA issued ahead of demand by the async
	// swap engine (exec.VM.EnsureAsync); kept distinct from SwapIn so
	// overlap with the compute lane is visible at a glance.
	Prefetch
	// Comms is the gradient-collective stream: one span per chunk
	// reduction (or per whole collective on the monolithic path),
	// attributed to the device worker that executed the reduction.
	// Kept distinct from Compute so collective/compute overlap is
	// visible at a glance and measurable (CommOverlapFraction).
	Comms
)

var laneNames = [...]string{"compute", "swap-in", "swap-out", "p2p", "fault", "retry", "prefetch", "comms"}

func (l Lane) String() string {
	if int(l) < len(laneNames) {
		return laneNames[l]
	}
	return fmt.Sprintf("Lane(%d)", int(l))
}

// Event is one timeline span.
type Event struct {
	Dev        hw.DeviceID
	Lane       Lane
	Label      string
	Start, End sim.Time
}

// Trace accumulates events. Zero value is ready to use.
type Trace struct {
	Events []Event
}

// Add appends an event. Inverted spans are a programming error.
func (tr *Trace) Add(dev hw.DeviceID, lane Lane, label string, start, end sim.Time) {
	if end < start {
		panic(fmt.Sprintf("trace: inverted span %v..%v for %s", start, end, label))
	}
	tr.Events = append(tr.Events, Event{Dev: dev, Lane: lane, Label: label, Start: start, End: end})
}

// Span returns the earliest start and latest end across all events.
func (tr *Trace) Span() (sim.Time, sim.Time) {
	if len(tr.Events) == 0 {
		return 0, 0
	}
	lo, hi := tr.Events[0].Start, tr.Events[0].End
	for _, e := range tr.Events {
		if e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
	}
	return lo, hi
}

// Gantt renders the trace as a text chart of the given width: one row
// per (device, lane) pair that has events, columns are time buckets.
// Each cell shows the first letter of the label of the event covering
// that bucket ('.' when idle).
func (tr *Trace) Gantt(width int) string {
	if width <= 0 || len(tr.Events) == 0 {
		return ""
	}
	lo, hi := tr.Span()
	if hi == lo {
		hi = lo + 1
	}
	scale := sim.Time(width) / (hi - lo)

	type key struct {
		dev  hw.DeviceID
		lane Lane
	}
	rows := map[key][]byte{}
	var keys []key
	for _, e := range tr.Events {
		k := key{e.Dev, e.Lane}
		if _, ok := rows[k]; !ok {
			row := make([]byte, width)
			for i := range row {
				row[i] = '.'
			}
			rows[k] = row
			keys = append(keys, k)
		}
		c := byte('?')
		if len(e.Label) > 0 {
			c = e.Label[0]
		}
		s := int(float64((e.Start - lo) * scale))
		if s >= width {
			// Zero-width events at the exact right edge still get a cell.
			s = width - 1
		}
		f := int(float64((e.End - lo) * scale))
		if f <= s {
			f = s + 1
		}
		if f > width {
			f = width
		}
		for i := s; i < f; i++ {
			rows[k][i] = c
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dev != keys[j].dev {
			return keys[i].dev < keys[j].dev
		}
		return keys[i].lane < keys[j].lane
	})
	var b strings.Builder
	fmt.Fprintf(&b, "time: %.6fs .. %.6fs (%d buckets)\n", float64(lo), float64(hi), width)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-6s %-8s |%s|\n", k.dev, k.lane, rows[k])
	}
	return b.String()
}

// UsagePoint is one sample of a device's resident bytes.
type UsagePoint struct {
	At    sim.Time
	Bytes int64
}

// UsageSparkline renders a memory-usage timeline as a fixed-width
// text sparkline (the "Mem Usage" bars of Fig. 2(c)). Each bucket
// shows the maximum usage within it, scaled against max(peak,
// capacity); buckets whose usage exceeds capacity render as '!'.
func UsageSparkline(points []UsagePoint, width int, capacity int64) string {
	if width <= 0 || len(points) == 0 {
		return ""
	}
	lo, hi := points[0].At, points[len(points)-1].At
	if hi == lo {
		hi = lo + 1
	}
	buckets := make([]int64, width)
	// Usage is a step function: carry each sample forward to the next.
	for i, p := range points {
		start := int(float64(p.At-lo) / float64(hi-lo) * float64(width))
		end := width
		if i+1 < len(points) {
			end = int(float64(points[i+1].At-lo) / float64(hi-lo) * float64(width))
		}
		if start >= width {
			start = width - 1
		}
		if end > width {
			end = width
		}
		if end <= start {
			end = start + 1
		}
		for b := start; b < end && b < width; b++ {
			if p.Bytes > buckets[b] {
				buckets[b] = p.Bytes
			}
		}
	}
	scale := capacity
	for _, b := range buckets {
		if b > scale {
			scale = b
		}
	}
	if scale == 0 {
		scale = 1
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, b := range buckets {
		if capacity > 0 && b > capacity {
			sb.WriteRune('!')
			continue
		}
		idx := int(float64(b) / float64(scale) * float64(len(levels)))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		if b > 0 && idx == 0 {
			idx = 1
		}
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}

// laneUnion returns the merged, sorted interval union of all spans on
// the given lane across every device.
func (tr *Trace) laneUnion(lane Lane) [][2]sim.Time {
	var iv [][2]sim.Time
	for _, e := range tr.Events {
		if e.Lane == lane && e.End > e.Start {
			iv = append(iv, [2]sim.Time{e.Start, e.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]sim.Time
	for _, v := range iv {
		if n := len(out); n > 0 && v[0] <= out[n-1][1] {
			if v[1] > out[n-1][1] {
				out[n-1][1] = v[1]
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// CommOverlapFraction measures how much of the gradient-collective
// work was hidden behind compute: the fraction of the Comms lane's
// busy time (interval union across devices) during which at least one
// device's Compute lane was also busy. A monolithic rendezvous — all
// workers parked while the last arriver reduces — scores ~0; chunked
// collectives that let finished workers continue their compute stream
// score higher. Returns 0 when the trace has no Comms spans.
func (tr *Trace) CommOverlapFraction() float64 {
	comms := tr.laneUnion(Comms)
	if len(comms) == 0 {
		return 0
	}
	compute := tr.laneUnion(Compute)
	var total, overlap sim.Time
	j := 0
	for _, c := range comms {
		total += c[1] - c[0]
		for ; j < len(compute) && compute[j][1] <= c[0]; j++ {
		}
		for k := j; k < len(compute) && compute[k][0] < c[1]; k++ {
			lo, hi := compute[k][0], compute[k][1]
			if lo < c[0] {
				lo = c[0]
			}
			if hi > c[1] {
				hi = c[1]
			}
			if hi > lo {
				overlap += hi - lo
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(overlap) / float64(total)
}

// chromeEvent is one "complete" event in the Chrome tracing format
// (chrome://tracing, Perfetto). Durations are microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// ChromeTrace serializes the trace in the Chrome tracing JSON array
// format: load the output in chrome://tracing or Perfetto to inspect
// schedules interactively. Devices map to processes and lanes to
// threads.
func (tr *Trace) ChromeTrace() ([]byte, error) {
	evs := make([]chromeEvent, 0, len(tr.Events))
	for _, e := range tr.Events {
		pid := int(e.Dev)
		if e.Dev == hw.Host {
			pid = 9999
		}
		evs = append(evs, chromeEvent{
			Name: e.Label,
			Cat:  e.Lane.String(),
			Ph:   "X",
			Ts:   float64(e.Start) * 1e6,
			Dur:  float64(e.End-e.Start) * 1e6,
			PID:  pid,
			TID:  int(e.Lane),
		})
	}
	return json.Marshal(evs)
}
