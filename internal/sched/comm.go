// Chunked, bucketed gradient collectives. The monolithic AllReduce
// rendezvous serializes communication against backward compute: every
// device worker parks and the last arriver reduces the whole layer
// gradient. This file computes a plan-time refinement — DDP-style
// byte-budgeted buckets of consecutive reverse-order layers, each
// split into fixed chunks reduced by deterministically assigned
// workers — so reduce work spreads across workers and finished workers
// resume compute while other chunks still reduce.
//
// Everything here is a pure function of the plan: bucket membership
// (greedy packing of per-layer gradient bytes in reverse layer order),
// chunk boundaries (even element split, never crossing a member
// boundary), and reducer assignment (global chunk index modulo NGPUs).
// Arrival order never enters, which is what keeps the chunked path
// bit-exact with the monolithic and serial paths.
package sched

import "harmony/internal/graph"

// commElemBytes is the element size of gradient payloads; the compute
// kernels operate on float32 throughout.
const commElemBytes = 4

// CommChunk is one independent chunk rendezvous: the element range
// [Lo, Hi) of one bucket member's gradient, reduced across all
// replicas by device worker Reducer. A member with no elements has
// exactly one chunk, the empty [0, 0); no other chunk is empty.
type CommChunk struct {
	// Member indexes CommBucket.Members.
	Member int
	// Lo and Hi bound the float32 element range [Lo, Hi) within the
	// member collective's per-replica gradient.
	Lo, Hi int
	// Reducer is the device worker that executes this chunk's
	// reduction, and the device whose link carries its link time, which
	// the trainer books when the member becomes ready, not when the
	// reducer gets to it: the global chunk index modulo NGPUs, fixed at
	// plan time.
	Reducer int
}

// CommBucket is one rendezvous shared by one or more collectives.
// Members are indices into Schedule.Collectives, in plan order
// (ascending index = descending layer, mirroring backward completion
// order); chunks never cross member boundaries.
type CommBucket struct {
	Members []int
	// Bytes is the total per-replica payload of all members.
	Bytes int64
	// Chunks covers every member's full element range exactly once,
	// ordered member-major then ascending Lo; every member has at
	// least one.
	Chunks []CommChunk
}

// FusedUpdate reports whether the plan's reductions apply its weight
// updates: a chunked plan (Comm) whose optimizer keeps no state (plain
// SGD, OptStateParamsFactor 0). Data-parallel replicas hold the same
// weights, and after the reduction the same mean gradient, so the update
// w -= lr·mean is the same on every replica: the worker that reduces a
// chunk computes it once and stores it into every replica's weights, the
// reduce-scatter, sharded update and all-gather of ZeRO in shared
// memory. Each replica's Update keeps its place, its dependencies and
// its footprint and runs no kernel. The executor and schedcheck both
// read this one predicate: the executor to fuse, the verifier to count
// the weights a reduction then pins and dirties.
func (s *Schedule) FusedUpdate() bool {
	return s.Comm != nil && s.Graph.Cfg.Model.OptStateParamsFactor == 0
}

// commLayerBuckets partitions layers into buckets by walking layers in
// reverse order (the order gradients become ready during backward) and
// greedily packing consecutive layers while the summed per-replica
// gradient bytes stay within budget. budget <= 0 means one bucket per
// layer. Each bucket lists its layers in descending order; buckets are
// returned in reverse layer order (deepest first).
func commLayerBuckets(g *graph.Graph, budget int64) [][]int {
	R := g.Layers()
	var buckets [][]int
	for l := R - 1; l >= 0; {
		layers := []int{l}
		total := g.AR[l].CommBytes
		l--
		for budget > 0 && l >= 0 && total+g.AR[l].CommBytes <= budget {
			layers = append(layers, l)
			total += g.AR[l].CommBytes
			l--
		}
		buckets = append(buckets, layers)
	}
	return buckets
}

// commUpdateGroups returns, for JIT placement in queue, the layers
// whose updates are emitted right after layer l's last backward.
// Without a comm plan this is the identity — layer l's own update.
//
// With a comm plan (chunked and/or bucketed collectives), each
// bucket's updates are deferred past the NEXT bucket's deepest
// backward (the last bucket's past layer 0's backward). The executor
// anchors a chunked rendezvous at the earliest point its member
// gradients exist, so the entries following it in the stream are the
// next bucket's backwards — compute a worker can run while other
// workers still reduce. Placing updates directly behind the
// rendezvous would stall early finishers on member completion
// instead; deferring them by one bucket is what turns the chunked
// plan's early departure into actual overlap.
func (s *Schedule) commUpdateGroups() [][]int {
	R := s.Graph.Layers()
	updAfter := make([][]int, R)
	if s.Opts.CommChunks > 0 && s.Graph.AR != nil {
		buckets := commLayerBuckets(s.Graph, s.Opts.CommBucketBytes)
		for bi, layers := range buckets {
			at := 0 // last bucket: after the final backward
			if bi+1 < len(buckets) {
				next := buckets[bi+1]
				at = next[len(next)-1]
			}
			updAfter[at] = append(updAfter[at], layers...)
		}
		return updAfter
	}
	self := make([]int, R)
	for l := range self {
		self[l] = l
		updAfter[l] = self[l : l+1]
	}
	return updAfter
}

// buildComm fills Schedule.Comm from the already-built Collectives
// list. Called only for data-parallel plans with gradient AllReduces
// (Collectives[ci] = AR[R-1-ci]).
func (s *Schedule) buildComm() {
	g := s.Graph
	R := g.Layers()
	chunks := s.Opts.CommChunks
	nextReducer := 0
	for _, layers := range commLayerBuckets(g, s.Opts.CommBucketBytes) {
		b := CommBucket{}
		for _, l := range layers {
			b.Members = append(b.Members, R-1-l)
			b.Bytes += g.AR[l].CommBytes
		}
		// Even element split across the bucket: target chunk size is
		// ceil(total/chunks), and each member is sliced independently
		// at that grain so no chunk crosses a member boundary.
		totalFloats := int(b.Bytes / commElemBytes)
		target := (totalFloats + chunks - 1) / chunks
		if target < 1 {
			target = 1
		}
		for mi, ci := range b.Members {
			floats := int(s.Collectives[ci].CommBytes / commElemBytes)
			// A member with no elements (a weightless layer's gradient)
			// still gets one chunk, [0, 0): the worker that reduces it is
			// the one that retires the member and releases its updates.
			for lo := 0; lo < floats || lo == 0; lo += target {
				hi := min(lo+target, floats)
				b.Chunks = append(b.Chunks, CommChunk{
					Member:  mi,
					Lo:      lo,
					Hi:      hi,
					Reducer: nextReducer % s.NGPUs,
				})
				nextReducer++
			}
		}
		s.Comm = append(s.Comm, b)
	}
}
