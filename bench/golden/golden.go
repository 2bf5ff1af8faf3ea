// Package golden holds the benchmark's checked-in reference outputs.
package golden

import _ "embed"

// SimSweep is the simulated statistics of every sim-sweep cell and the
// tuner's winning candidate. Regenerate it, after a change that is
// meant to move a simulated number, with
//
//	go run -C bench ./harmonybench -workload sim-sweep -update-golden golden/sim-sweep.json
//
//go:embed sim-sweep.json
var SimSweep []byte
