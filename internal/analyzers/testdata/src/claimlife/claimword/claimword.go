// Package claimword mirrors the executor's claim cell: the fixture's
// buffers embed Cell, and claimlife knows a claim by the type its
// methods are declared on, not by their names alone.
package claimword

// Cell is the claim word; only its methods change it.
type Cell struct{ word uint32 }

func (c *Cell) Claim(committed bool, need int) bool {
	if c.word != 0 {
		return false
	}
	c.word = 1
	if committed {
		c.word |= 2
	}
	return true
}

func (c *Cell) Commit(prefetched bool) { c.word |= 2 }

func (c *Cell) Settle(resident bool, pinDelta int) { c.word = 0 }
