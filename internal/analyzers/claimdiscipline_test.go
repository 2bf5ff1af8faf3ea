package analyzers

import "testing"

func TestClaimDiscipline(t *testing.T) {
	diags := runFixture(t, "claimdisc", ClaimDiscipline)
	// Regression pins: the ad-hoc word store (the exact pattern the
	// CAS helpers replaced in the VM), a raw store smuggled inside a
	// helper, and the uncommitted-claim LRU publication must all be
	// caught.
	mustDiag(t, diags, "claimdiscipline", `mutation of buffer\.word outside the claim state-machine helpers`)
	mustDiag(t, diags, "claimdiscipline", `non-CAS mutation of buffer\.word \(Store\) inside a transition helper`)
	mustDiag(t, diags, "claimdiscipline", `published to the LRU under an uncommitted claim`)
}
