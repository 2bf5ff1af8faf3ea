package sched

// OptionVariants enumerates every queue-shaping option profile Build
// can emit for a mode — the lattice of toggles that change task order,
// grouping, partitioning or collective placement. It exists for
// exhaustive property sweeps (schedcheck verifies every variant of
// every mode) and deliberately excludes knobs that do not alter the
// plan shape itself (P2P, LookaheadEviction: runtime policies carried
// on MemPolicy but identical queues).
//
// microbatches bounds the GroupSize axis: group sizes beyond m
// collapse to full grouping, so only {full, 1, 2} are distinct.
func OptionVariants(mode Mode, microbatches int) []Options {
	groupSizes := []int{0}
	if microbatches > 2 {
		groupSizes = []int{0, 1, 2}
	} else if microbatches > 1 {
		groupSizes = []int{0, 1}
	}
	var out []Options
	for _, grouping := range []bool{false, true} {
		for _, jit := range []bool{false, true} {
			for _, dirty := range []bool{false, true} {
				for _, prefetch := range []bool{false, true} {
					base := Options{
						Mode:          mode,
						Grouping:      grouping,
						JIT:           jit,
						DirtyTracking: dirty,
						Prefetch:      prefetch,
					}
					if !grouping {
						out = append(out, base)
						continue
					}
					for _, gs := range groupSizes {
						o := base
						o.GroupSize = gs
						out = append(out, o)
						if mode.IsPipeline() && gs > 0 {
							w := o
							w.WaveInterleave = true
							out = append(out, w)
						}
					}
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
	// DeferBlockedUpdates does not reorder queues, but it changes how
	// the executor treats update heads; include it on the canonical
	// Harmony profile so the sweep covers both executor paths.
	for _, o := range out {
		if o.Grouping && o.JIT && o.DirtyTracking && o.GroupSize == 0 {
			d := o
			d.DeferBlockedUpdates = true
			out = append(out, d)
		}
	}
	// AdaptivePrefetch does not reorder queues either, but it raises
	// the residency bound schedcheck must verify (maximum admissible
	// window, not the static one); include it on the canonical
	// prefetching Harmony profile so the sweep proves that bound.
	for _, o := range out {
		if o.Grouping && o.JIT && o.DirtyTracking && o.Prefetch && o.GroupSize == 0 && !o.DeferBlockedUpdates {
			a := o
			a.AdaptivePrefetch = true
			out = append(out, a)
		}
	}
	// Chunked collectives restructure the rendezvous, and bucketing
	// additionally regroups JIT updates — both are plan shapes the
	// checker must prove (sharded modes reject the knobs; pipeline
	// plans have no gradient collectives, so they would be no-ops).
	if !mode.IsPipeline() && !mode.IsSharded() {
		for _, o := range out {
			if o.Grouping && o.JIT && o.DirtyTracking && !o.Prefetch && o.GroupSize == 0 && !o.DeferBlockedUpdates {
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
