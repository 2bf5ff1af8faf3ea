package analyzers

import "testing"

func TestLockorder(t *testing.T) {
	diags := runFixture(t, "lockorder", Lockorder)
	// Regression pins: one per rule.
	mustDiag(t, diags, "lockorder", `lock-order cycle`)
	mustDiag(t, diags, "lockorder", `recursive acquisition`)
	mustDiag(t, diags, "lockorder", `second shard lock \S+ acquired \(inside`)
	mustDiag(t, diags, "lockorder", `second shard lock \S+ acquired while`)
}
