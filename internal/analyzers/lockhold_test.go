package analyzers

import "testing"

func TestLockhold(t *testing.T) {
	diags := runFixture(t, "lockhold", Lockhold)
	// Regression pins: the failure class that motivated the pass and the
	// claim-settle wait on the blocking list must be present, not just
	// matched by some want.
	mustDiag(t, diags, "lockhold", `channel receive while mu is held`)
	mustDiag(t, diags, "lockhold", `waitSettle \(blocks on claim settle\) while mu is held`)
}
