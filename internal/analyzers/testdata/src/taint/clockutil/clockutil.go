// Package clockutil is the out-of-core half of the determinism taint
// fixture: helpers that reach the wall clock at varying call depths.
// Nothing here is flagged — the package is outside the deterministic
// core — but calling into it from the core is.
package clockutil

import "time"

// Stamp reads the wall clock directly.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Jitter reaches the wall clock one call deep.
func Jitter() int64 {
	return Stamp() + 1
}

// Fixed is clean at every depth.
func Fixed() int64 {
	return 42
}

// Clock is the sanctioned injection boundary, mirroring trace.Clock:
// interface calls do not propagate taint.
type Clock interface {
	Stamp() int64
}
