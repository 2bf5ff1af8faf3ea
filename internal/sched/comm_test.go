package sched

import (
	"reflect"
	"strings"
	"testing"

	"harmony/internal/graph"
)

// commOpts is the canonical Harmony-DP profile with the comm knobs on.
func commOpts(chunks int, bucket int64) Options {
	o := DefaultOptions(HarmonyDP)
	o.CommChunks = chunks
	o.CommBucketBytes = bucket
	return o
}

func TestCommKnobValidation(t *testing.T) {
	g := dpGraph(4, 2, 2)
	if _, err := Build(g, commOpts(-1, 0), 2); err == nil {
		t.Fatal("negative CommChunks accepted")
	}
	if _, err := Build(g, commOpts(0, -1), 2); err == nil {
		t.Fatal("negative CommBucketBytes accepted")
	}
	neg := DefaultOptions(HarmonyDP)
	neg.GroupSize = -3
	if _, err := Build(g, neg, 2); err == nil || !strings.Contains(err.Error(), "GroupSize") {
		t.Fatalf("negative GroupSize: got %v, want an error naming GroupSize", err)
	}
	tp := graph.MustBuild(graph.Config{
		Model:          dpGraph(4, 2, 1).Cfg.Model,
		MicrobatchSize: 2, Microbatches: 2, Replicas: 1, OpShards: 2,
	})
	o := DefaultOptions(HarmonyTP)
	o.CommChunks = 4
	if _, err := Build(tp, o, 2); err == nil {
		t.Fatal("sharded mode accepted CommChunks")
	}
	// Bucketing alone implies one chunk per bucket.
	s := MustBuild(g, commOpts(0, 1<<20), 2)
	if s.Opts.CommChunks != 1 {
		t.Fatalf("CommBucketBytes alone should normalize CommChunks to 1, got %d", s.Opts.CommChunks)
	}
	// Pipeline plans have no gradient collectives: knob is a no-op.
	po := DefaultOptions(HarmonyPP)
	po.CommChunks = 4
	ps := MustBuild(ppGraph(8, 4), po, 4)
	if ps.Comm != nil {
		t.Fatalf("pipeline plan built a comm plan: %+v", ps.Comm)
	}
}

// checkCommCover verifies the structural invariants of a comm plan:
// every collective appears in exactly one bucket, every member's full
// element range is covered exactly once by chunks that never cross a
// member boundary, and reducers follow the global k mod N assignment.
func checkCommCover(t *testing.T, s *Schedule) {
	t.Helper()
	if len(s.Comm) == 0 {
		t.Fatal("no comm plan built")
	}
	seen := make(map[int]bool)
	k := 0
	for bi, b := range s.Comm {
		var total int64
		for _, ci := range b.Members {
			if ci < 0 || ci >= len(s.Collectives) {
				t.Fatalf("bucket %d member %d out of range", bi, ci)
			}
			if seen[ci] {
				t.Fatalf("collective %d in two buckets", ci)
			}
			seen[ci] = true
			total += s.Collectives[ci].CommBytes
		}
		if b.Bytes != total {
			t.Fatalf("bucket %d Bytes=%d, members sum to %d", bi, b.Bytes, total)
		}
		next := make([]int, len(b.Members))
		mi := 0
		for _, c := range b.Chunks {
			if c.Member < mi {
				t.Fatalf("bucket %d chunks not member-major", bi)
			}
			mi = c.Member
			if c.Lo != next[c.Member] || c.Hi <= c.Lo {
				t.Fatalf("bucket %d member %d chunk [%d,%d) not contiguous from %d",
					bi, c.Member, c.Lo, c.Hi, next[c.Member])
			}
			next[c.Member] = c.Hi
			if c.Reducer != k%s.NGPUs {
				t.Fatalf("chunk %d reducer %d, want %d", k, c.Reducer, k%s.NGPUs)
			}
			k++
		}
		for i, ci := range b.Members {
			floats := int(s.Collectives[ci].CommBytes) / commElemBytes
			if next[i] != floats {
				t.Fatalf("bucket %d member %d covered to %d of %d floats", bi, i, next[i], floats)
			}
		}
	}
	for ci := range s.Collectives {
		if !seen[ci] {
			t.Fatalf("collective %d in no bucket", ci)
		}
	}
}

func TestCommChunkedPerLayer(t *testing.T) {
	// 4 layers x 1000 params (4000 B gradients), no bucketing: one
	// bucket per layer in reverse layer order, 4 chunks of 250 floats.
	s := MustBuild(dpGraph(4, 2, 2), commOpts(4, 0), 2)
	checkCommCover(t, s)
	if len(s.Comm) != 4 {
		t.Fatalf("want 4 single-layer buckets, got %d", len(s.Comm))
	}
	for bi, b := range s.Comm {
		if len(b.Members) != 1 || b.Members[0] != bi {
			t.Fatalf("bucket %d members %v, want [%d]", bi, b.Members, bi)
		}
		if len(b.Chunks) != 4 {
			t.Fatalf("bucket %d has %d chunks, want 4", bi, len(b.Chunks))
		}
		if b.Chunks[0].Hi-b.Chunks[0].Lo != 250 {
			t.Fatalf("bucket %d chunk size %d, want 250", bi, b.Chunks[0].Hi-b.Chunks[0].Lo)
		}
	}
	// Reducers alternate globally: 16 chunks over 2 devices.
	if s.Comm[0].Chunks[0].Reducer != 0 || s.Comm[0].Chunks[1].Reducer != 1 {
		t.Fatalf("reducers not k mod N: %+v", s.Comm[0].Chunks[:2])
	}
}

func TestCommBucketing(t *testing.T) {
	// Budget of two layers' gradients: buckets {L3,L2} and {L1,L0},
	// in reverse layer order (collective indices ascending).
	s := MustBuild(dpGraph(4, 2, 2), commOpts(2, 8000), 2)
	checkCommCover(t, s)
	if len(s.Comm) != 2 {
		t.Fatalf("want 2 buckets, got %d", len(s.Comm))
	}
	if !reflect.DeepEqual(s.Comm[0].Members, []int{0, 1}) ||
		!reflect.DeepEqual(s.Comm[1].Members, []int{2, 3}) {
		t.Fatalf("bucket members %v / %v, want [0 1] / [2 3]", s.Comm[0].Members, s.Comm[1].Members)
	}
	// Chunks never cross a member boundary even though the even split
	// of 2000 floats over 2 chunks lands exactly on it here; force a
	// misaligned case too.
	s3 := MustBuild(dpGraph(4, 2, 2), commOpts(3, 8000), 2)
	checkCommCover(t, s3)

	// A single gradient larger than the budget still gets its own
	// bucket rather than being rejected.
	tiny := MustBuild(dpGraph(4, 2, 2), commOpts(2, 1), 2)
	checkCommCover(t, tiny)
	if len(tiny.Comm) != 4 {
		t.Fatalf("undersized budget should fall back to per-layer buckets, got %d", len(tiny.Comm))
	}
}

// Bucketed JIT plans regroup updates: the whole bucket's updates run
// after the bucket's deepest member finishes backward, in descending
// layer order, so the single rendezvous anchors before any of them.
func TestCommBucketUpdateRegrouping(t *testing.T) {
	s := MustBuild(dpGraph(4, 2, 2), commOpts(2, 8000), 2)
	checkCover(t, s)
	checkQueueOrder(t, s)
	for d, q := range s.Queues {
		var upds []int
		lastBwd := make(map[int]int)
		for i, task := range q {
			switch task.Kind {
			case graph.Update:
				upds = append(upds, task.Layer)
			case graph.Backward:
				lastBwd[task.Layer] = i
			}
		}
		want := []int{3, 2, 1, 0}
		if !reflect.DeepEqual(upds, want) {
			t.Fatalf("dev %d update layer order %v, want %v", d, upds, want)
		}
		// Updates of bucket {3,2} must come after BWD of layer 2 (the
		// bucket's deepest member), not between BWD 3 and BWD 2.
		pos := make(map[int]int)
		for i, task := range q {
			if task.Kind == graph.Update {
				pos[task.Layer] = i
			}
		}
		if pos[3] < lastBwd[2] {
			t.Fatalf("dev %d: UPD[3] at %d precedes last BWD[2] at %d; bucket regrouping missing",
				d, pos[3], lastBwd[2])
		}
	}
}

func TestCommPlanDeterministic(t *testing.T) {
	a := MustBuild(dpGraph(5, 3, 2), commOpts(8, 6000), 2)
	b := MustBuild(dpGraph(5, 3, 2), commOpts(8, 6000), 2)
	if !reflect.DeepEqual(a.Comm, b.Comm) {
		t.Fatal("comm plan not deterministic across builds")
	}
}
