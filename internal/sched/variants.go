package sched

// OptionVariants enumerates every queue-shaping option profile Build
// can emit for a mode — the lattice of toggles that change task order,
// grouping, partitioning or collective placement. It exists for
// exhaustive property sweeps (schedcheck verifies every variant of
// every mode, and the weave tests weave them) and deliberately
// excludes the runtime policies that leave the plan as it is: Prefetch,
// DeferBlockedUpdates, LookaheadEviction and P2P change how a plan is
// run, never Build, Weave or schedcheck.Check
// (TestBuildIgnoresRuntimePolicy in internal/schedcheck holds that).
//
// microbatches bounds the GroupSize axis: group sizes beyond m
// collapse to one wave of all m, so only {all, 1, 2} are distinct. Each
// group smaller than all runs plain and interleaved; a group of one
// interleaved is the baselines' wave shape.
func OptionVariants(mode Mode, microbatches int) []Options {
	groupSizes := []int{0}
	if microbatches > 2 {
		groupSizes = []int{0, 1, 2}
	} else if microbatches > 1 {
		groupSizes = []int{0, 1}
	}
	var out []Options
	for _, jit := range []bool{false, true} {
		for _, dirty := range []bool{false, true} {
			for _, gs := range groupSizes {
				o := Options{
					Mode:          mode,
					GroupSize:     gs,
					JIT:           jit,
					DirtyTracking: dirty,
				}
				out = append(out, o)
				if gs > 0 {
					o.WaveInterleave = true
					out = append(out, o)
				}
			}
		}
	}
	if mode.IsPipeline() {
		// Packing changes the stage partition, another plan shape.
		packed := make([]Options, 0, 2*len(out))
		for _, o := range out {
			packed = append(packed, o)
			p := o
			p.Packing = true
			packed = append(packed, p)
		}
		out = packed
	}
	// Chunked collectives restructure the rendezvous, and bucketing
	// additionally regroups JIT updates — both are plan shapes the
	// checker must prove (sharded modes reject the knobs; pipeline
	// plans have no gradient collectives, so they would be no-ops).
	if !mode.IsPipeline() && !mode.IsSharded() {
		for _, o := range out {
			if o.JIT && o.DirtyTracking && o.GroupSize == 0 {
				c := o
				c.CommChunks = 4
				b := o
				b.CommChunks = 4
				b.CommBucketBytes = 1 << 20 // covers every layer: one multi-member bucket
				out = append(out, c, b)
				break
			}
		}
	}
	return out
}
