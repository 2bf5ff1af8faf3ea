package analyzers

import "testing"

func TestDeterminism(t *testing.T) {
	diags := runFixture(t, "exec", Determinism)
	// Regression pin: the map-range victim scan is the exact pattern
	// waitableInFlight had before moving to the LRU-list walk.
	mustDiag(t, diags, "determinism", `map iteration in the deterministic core`)
	mustDiag(t, diags, "determinism", `time\.Now in the deterministic core`)
}

// TestDeterminismScope confirms the analyzer keeps quiet outside the
// deterministic core: the same violations in an out-of-scope package
// produce no findings.
func TestDeterminismScope(t *testing.T) {
	if inDeterministicCore("harmony/internal/trace") {
		t.Fatal("internal/trace must be outside the deterministic core")
	}
	for _, p := range []string{
		"harmony/internal/sched", "harmony/internal/exec",
		"harmony/internal/nn", "harmony/internal/fault",
		"harmony/internal/sim", "harmony/internal/collective",
		"harmony/internal/graph", "harmony/internal/schedcheck", "harmony/internal/hw",
		"exec", "sched",
	} {
		if !inDeterministicCore(p) {
			t.Errorf("%s should be in the deterministic core", p)
		}
	}
	for _, p := range []string{
		"harmony/internal/tuner", "harmony/internal/trace", "harmony/cmd/harmonylint", "execution",
		// The golden figures pin every byte the simulator's memory
		// manager and executor order.
		"harmony/internal/memory", "harmony/internal/runtime",
	} {
		if inDeterministicCore(p) {
			t.Errorf("%s should be outside the deterministic core", p)
		}
	}
}

// TestDeterminismTaint exercises the whole-program upgrade: taint
// entering a core package from an out-of-core helper at various call
// depths, an adapt/retune-named caller getting the same core rule as
// any other, and the two sanctioned escapes (clean helpers,
// interface-routed timing).
func TestDeterminismTaint(t *testing.T) {
	diags := runProjectFixture(t, "taint", projectFixtures["taint"], Determinism)
	mustDiag(t, diags, "determinism", `reaches time\.Now via clockutil\.Stamp`)
}
