package analyzers

import "testing"

func TestLockorder(t *testing.T) {
	diags := runFixture(t, "lockorder", Lockorder)
	// Regression pins: one per rule.
	mustDiag(t, diags, "lockorder", `lock-order cycle`)
	mustDiag(t, diags, "lockorder", `nested acquisition of \S+ \(inside \S+\) while a lock of the same class is held`)
	mustDiag(t, diags, "lockorder", `nested acquisition of \S+ while a lock of the same class is held`)
}
