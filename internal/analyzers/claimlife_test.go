package analyzers

import "testing"

func TestClaimlife(t *testing.T) {
	diags := runProjectFixture(t, "claimlife", projectFixtures["claimlife"], Claimlife)
	// Regression pins: the error-return leak and the one-arm commit.
	mustDiag(t, diags, "claimlife", `claim on b taken at .* neither committed nor settled on an error path`)
	mustDiag(t, diags, "claimlife", `claim on b taken at .* neither committed nor settled on a path ending at the function exit`)
}

// TestClaimDiscipline pins the claim discipline's publication rule:
// no buffer reaches a shard's LRU under an uncommitted claim. The
// discipline's other two rules need no pass — only claimword.Cell can
// touch the claim word (the compiler refuses anything else), and its
// one CAS loop is held by claimword's TestCellUnderContention.
func TestClaimDiscipline(t *testing.T) {
	diags := runProjectFixture(t, "claimlife", projectFixtures["claimlife"], Claimlife)
	mustDiag(t, diags, "claimlife", `published to the LRU under an uncommitted claim`)
}
