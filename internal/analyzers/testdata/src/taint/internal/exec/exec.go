// Package exec is the in-core half of the determinism taint fixture:
// its import path suffix puts it in the deterministic core, so
// summary-based taint flowing in from clockutil is reported here. The
// package body itself is lexically clean — every finding below exists
// only at call-graph depth, which is exactly what the PR-4 lexical
// pass could not see.
package exec

import "clockutil"

// schedule calls a directly-tainted helper.
func schedule() int64 {
	return clockutil.Stamp() // want `call to clockutil\.Stamp reaches time\.Now at some call depth`
}

// plan calls a helper whose taint is itself one call deep; the witness
// names the hop.
func plan() int64 {
	return clockutil.Jitter() // want `call to clockutil\.Jitter reaches time\.Now via clockutil\.Stamp at some call depth`
}

// retuneWindow is an adaptation decision; the core covers all of
// internal/exec, so it gets the same rule as every other caller.
func retuneWindow() int64 {
	return clockutil.Stamp() // want `call to clockutil\.Stamp reaches time\.Now at some call depth`
}

// tick calls only clean helpers.
func tick() int64 {
	return clockutil.Fixed()
}

// stamped routes timing through the interface boundary; interface
// calls do not propagate taint — that is the sanctioned pattern.
func stamped(c clockutil.Clock) int64 {
	return c.Stamp()
}
