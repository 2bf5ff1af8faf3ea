package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The declaration must stay inside the driver's limits.
func TestDeclarationLimits(t *testing.T) {
	seen := make(map[string]bool)
	name := func(kind, s string) {
		if !validName(s) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, s)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(runners) != len(workloads) {
		t.Errorf("%d runners for %d workloads", len(runners), len(workloads))
	}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range perLayer {
		name("per-layer metric", m.Name)
		if len(m.On) == 0 {
			t.Errorf("%s is measured on no workload", m.Name)
		}
		for _, w := range m.On {
			if runners[w] == nil {
				t.Errorf("%s is declared on unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// BENCHMARK.json is what the driver reads and spec.go is what the
// harness emits; they must say the same thing.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(declare())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the harness's declaration; regenerate it with: go run -C bench ./harmonybench -declare > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}
