package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bench-owned interval around a call into the program:
// name, start, end, and the span that was open when it began.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into the span list, -1 at the root
}

// spanLog keeps spans in memory until the run ends. The harness is
// single-threaded between calls into the program, so a stack of open
// spans gives each new span its parent. A nil log records nothing:
// untraced runs pay one nil check per span.
type spanLog struct {
	epoch time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.epoch).Seconds(), Parent: parent})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].End = time.Since(l.epoch).Seconds()
		l.open = l.open[:len(l.open)-1]
	}
}

// selfSeconds sums, per span name, each span's duration minus the
// part of it its child spans cover.
func (l *spanLog) selfSeconds() map[string]float64 {
	children := make(map[int][]interval)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for i, s := range l.spans {
		self[s.Name] += (s.End - s.Start) - unionLen(children[i])
	}
	return self
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
