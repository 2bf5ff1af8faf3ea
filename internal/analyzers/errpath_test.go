package analyzers

import "testing"

func TestErrpath(t *testing.T) {
	diags := runFixture(t, "errpath", Errpath)
	// Regression pins: plain mutex, shard lock, read lock — each leaked
	// on an error return, with a concrete path.
	mustDiag(t, diags, "errpath", `lock on s\.mu taken at .* is still held on an error path.*path: `)
	mustDiag(t, diags, "errpath", `lock on sh\.mu taken at .* is still held on an error path`)
	mustDiag(t, diags, "errpath", `lock on s\.rw taken at .* is still held on an error path`)
	// And an exit no error marks: a plain early return.
	mustDiag(t, diags, "errpath", `lock on s\.mu taken at .* is still held on a path ending at the return`)
}
