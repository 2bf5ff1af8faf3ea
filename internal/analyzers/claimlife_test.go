package analyzers

import "testing"

func TestClaimlife(t *testing.T) {
	diags := runFixture(t, "claimlife", Claimlife)
	// Regression pins: the error-return leak and the one-arm commit.
	mustDiag(t, diags, "claimlife", `claim on b taken at .* neither committed nor settled on an error path`)
	mustDiag(t, diags, "claimlife", `claim on b taken at .* neither committed nor settled on a path ending at the function exit`)
}
