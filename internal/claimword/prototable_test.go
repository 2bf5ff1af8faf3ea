package claimword_test

// prototable_test.go declares the claim/commit/settle/pin transition
// table as an independent specification: it re-states the machine from
// DESIGN.md §9/§12 with its own constants and its own logic,
// deliberately NOT calling claimword. Two gates stand on it.
//
// TestProtoTableMatchesClaimword pins the spec to the code: it applies
// the compiled claimword transitions over the whole bounded domain and
// diffs them against the spec. Edit claimword without editing the spec
// and it trips; edit the spec without editing claimword and it trips.
//
// TestEveryReachableWordIsWaitable proves the invariant on the spec:
// a breadth-first search from the zero word over every transition the
// table grants reaches no word that violation rejects. Since the table
// is the compiled machine, no sequence of claimword transitions the
// executor can apply reaches one either — for every plan at once.

import (
	"fmt"
	"strings"
	"testing"

	"harmony/internal/claimword"
)

// protoEntry is one row of the declared transition table: applying op
// with args to the observed word in must yield (out, ok).
type protoEntry struct {
	op   string
	args []int64 // op-specific; see protoOps
	in   uint64
	out  uint64
	ok   bool
}

// protoOp names one transition function and the argument tuples
// (positions after the word parameter; booleans are 0/1) the bounded
// domain exercises it with.
type protoOp struct {
	name      string
	argTuples [][]int64
}

// Spec constants: claimword's word layout, restated. These mirror —
// and must not be imported from — internal/claimword.
const (
	specClaimed    uint64 = 1 << 0
	specCommitted  uint64 = 1 << 1
	specResident   uint64 = 1 << 2
	specPrefetched uint64 = 1 << 3
	specPinShift          = 8
	specPinLimit   int64  = 1 << 20
)

func specPins(w uint64) int64 { return int64(w >> specPinShift & (uint64(specPinLimit) - 1)) }

func specWithPins(w uint64, n int64) uint64 {
	mask := (uint64(specPinLimit) - 1) << specPinShift
	return w&^mask | uint64(n)<<specPinShift&mask
}

// protoDomain enumerates the bounded word domain the table covers:
// every combination of the four flags, pin counts 0–2. 48 words. Below
// the pin limit every guard reads the pin count only as zero or not,
// so counts above 2 behave as 2 does.
func protoDomain() []uint64 {
	var words []uint64
	for flags := uint64(0); flags < 16; flags++ {
		for pins := uint64(0); pins <= 2; pins++ {
			words = append(words, flags|pins<<specPinShift)
		}
	}
	return words
}

// protoOps lists the six transitions and the argument tuples explored
// for each: Claim takes (committed, need), Commit (prefetched), Settle
// (resident, pinDelta), the rest nothing. Claim covers every need
// level; Settle both outcomes and both pin deltas.
func protoOps() []protoOp {
	var claims, settles [][]int64
	for a := int64(0); a <= 1; a++ {
		for b := int64(0); b <= 1; b++ {
			claims = append(claims, []int64{a, b})
			settles = append(settles, []int64{a, b})
		}
	}
	none := [][]int64{nil}
	return []protoOp{
		{name: "Claim", argTuples: claims},
		{name: "Commit", argTuples: [][]int64{{0}, {1}}},
		{name: "Settle", argTuples: settles},
		{name: "Pin", argTuples: none},
		{name: "Unpin", argTuples: none},
		{name: "ConsumePrefetch", argTuples: none},
	}
}

// protoTable materializes the full declared table in deterministic
// order: ops as listed by protoOps, argument tuples in enumeration
// order, words in domain order.
func protoTable() []protoEntry {
	var table []protoEntry
	domain := protoDomain()
	for _, op := range protoOps() {
		for _, args := range op.argTuples {
			for _, w := range domain {
				out, ok := specApply(op.name, w, args)
				table = append(table, protoEntry{op: op.name, args: args, in: w, out: out, ok: ok})
			}
		}
	}
	return table
}

func specApply(op string, w uint64, args []int64) (uint64, bool) {
	switch op {
	case "Claim":
		return specClaim(w, args[0] == 1, args[1])
	case "Commit":
		return specCommit(w, args[0] == 1)
	case "Settle":
		return specSettle(w, args[0] == 1, args[1])
	case "Pin":
		return specPin(w)
	case "Unpin":
		return specUnpin(w)
	case "ConsumePrefetch":
		return specConsumePrefetch(w)
	}
	panic("unknown proto op " + op)
}

// --- the declared machine (DESIGN.md §9/§12, restated) ---

// specClaim: only an idle, unpinned word is claimable, and a resident
// one only by a committed claimant; need=1 additionally requires
// non-resident and non-prefetched. The claim sets claimed and replaces
// the committed flag with the claimant's.
func specClaim(w uint64, committed bool, need int64) (uint64, bool) {
	if w&specClaimed != 0 || specPins(w) > 0 {
		return w, false
	}
	if w&specResident != 0 && !committed {
		return w, false
	}
	if need == 1 && w&(specResident|specPrefetched) != 0 {
		return w, false
	}
	n := w&^specCommitted | specClaimed
	if committed {
		n |= specCommitted
	}
	return n, true
}

// specCommit: any claimed word gains resident+committed in one step,
// and the prefetched mark when the commit is a prefetch's. Unclaimed
// words are rejected.
func specCommit(w uint64, prefetched bool) (uint64, bool) {
	if w&specClaimed == 0 {
		return w, false
	}
	n := w | specResident | specCommitted
	if prefetched {
		n |= specPrefetched
	}
	return n, true
}

// specSettle: a claimed word returns to idle with committed cleared;
// residency is forced to the outcome, and losing residency also drops
// the prefetched mark; pinDelta adjusts pins within [0, pinLimit).
func specSettle(w uint64, resident bool, pinDelta int64) (uint64, bool) {
	if w&specClaimed == 0 {
		return w, false
	}
	pins := specPins(w) + pinDelta
	if pins < 0 || pins >= specPinLimit {
		return w, false
	}
	n := w &^ (specClaimed | specCommitted)
	if resident {
		n |= specResident
	} else {
		n &^= specResident | specPrefetched
	}
	return specWithPins(n, pins), true
}

// specPin: one pin on an idle resident word, below the pin limit.
func specPin(w uint64) (uint64, bool) {
	if w&specClaimed != 0 || w&specResident == 0 {
		return w, false
	}
	if specPins(w)+1 >= specPinLimit {
		return w, false
	}
	return specWithPins(w, specPins(w)+1), true
}

// specUnpin: releases one pin; rejects underflow.
func specUnpin(w uint64) (uint64, bool) {
	if specPins(w) == 0 {
		return w, false
	}
	return specWithPins(w, specPins(w)-1), true
}

// specConsumePrefetch: clears the prefetched mark exactly once.
func specConsumePrefetch(w uint64) (uint64, bool) {
	if w&specPrefetched == 0 {
		return w, false
	}
	return w &^ specPrefetched, true
}

// --- the compiled machine, and the diff ---

// applyCompiled runs the real claimword transition named op on (w,
// args) — the same dispatch specApply performs on the spec side.
func applyCompiled(op string, w uint64, args []int64) (uint64, bool) {
	cw := claimword.Word(w)
	var n claimword.Word
	var ok bool
	switch op {
	case "Claim":
		n, ok = claimword.Claim(cw, args[0] == 1, claimword.Need(args[1]))
	case "Commit":
		n, ok = claimword.Commit(cw, args[0] == 1)
	case "Settle":
		n, ok = claimword.Settle(cw, args[0] == 1, int(args[1]))
	case "Pin":
		n, ok = claimword.Pin(cw)
	case "Unpin":
		n, ok = claimword.Unpin(cw)
	case "ConsumePrefetch":
		n, ok = claimword.ConsumePrefetch(cw)
	default:
		panic("unknown proto op " + op)
	}
	return uint64(n), ok
}

// diffProtoTable applies the compiled transitions to every entry of
// table and returns one line per entry whose result differs from the
// declared one.
func diffProtoTable(table []protoEntry) []string {
	var diffs []string
	for _, e := range table {
		out, ok := applyCompiled(e.op, e.in, e.args)
		if out != e.out || ok != e.ok {
			diffs = append(diffs, fmt.Sprintf("%s(word %#x, args %v): compiled (%#x, %v), spec (%#x, %v)",
				e.op, e.in, e.args, out, ok, e.out, e.ok))
		}
	}
	return diffs
}

// TestProtoTableMatchesClaimword diffs the independent spec table
// against the COMPILED claimword transitions over the whole bounded
// domain. It is the only gate between claimword and the machine
// DESIGN.md declares, so editing claimword without this spec — or this
// spec without claimword — must fail here.
func TestProtoTableMatchesClaimword(t *testing.T) {
	table := protoTable()
	if len(table) == 0 {
		t.Fatal("empty proto table")
	}
	diffs := diffProtoTable(table)
	for i, d := range diffs {
		if i == 5 {
			t.Errorf("... and %d more mismatches (of %d transitions)", len(diffs)-5, len(table))
			break
		}
		t.Error(d)
	}
}

// TestProtoTableDiffCatchesPerturbedEntry proves the gate above trips:
// for each op, one declared entry is bent the way a plausible claimword
// regression would bend the compiled side, and the diff must report
// exactly that entry.
func TestProtoTableDiffCatchesPerturbedEntry(t *testing.T) {
	for _, tc := range []struct {
		op, regression string
		pick           func(protoEntry) bool
		bend           func(*protoEntry)
	}{
		{"Claim", "NeedUnpinned tolerates a pin",
			func(e protoEntry) bool { return !e.ok && e.args[0] == 1 && e.args[1] == 0 && e.in == 1<<specPinShift },
			func(e *protoEntry) { e.out, e.ok = e.in|specClaimed|specCommitted, true }},
		{"Commit", "commit drops the committed flag",
			func(e protoEntry) bool { return e.ok },
			func(e *protoEntry) { e.out &^= specCommitted }},
		{"Settle", "settle keeps prefetched on residency loss",
			func(e protoEntry) bool { return e.ok && e.args[0] == 0 && e.in&specPrefetched != 0 },
			func(e *protoEntry) { e.out |= specPrefetched }},
		{"Pin", "pin adds two",
			func(e protoEntry) bool { return e.ok },
			func(e *protoEntry) { e.out = specWithPins(e.out, specPins(e.out)+1) }},
		{"Unpin", "unpin underflows instead of rejecting",
			func(e protoEntry) bool { return !e.ok },
			func(e *protoEntry) { e.ok = true }},
		{"ConsumePrefetch", "consume leaves the mark set",
			func(e protoEntry) bool { return e.ok },
			func(e *protoEntry) { e.out |= specPrefetched }},
	} {
		t.Run(tc.op, func(t *testing.T) {
			table := protoTable()
			var bent *protoEntry
			for i := range table {
				if table[i].op == tc.op && tc.pick(table[i]) {
					bent = &table[i]
					break
				}
			}
			if bent == nil {
				t.Fatalf("no %s entry to perturb for %q", tc.op, tc.regression)
			}
			tc.bend(bent)
			diffs := diffProtoTable(table)
			want := fmt.Sprintf("%s(word %#x, args %v)", bent.op, bent.in, bent.args)
			if len(diffs) != 1 || !strings.HasPrefix(diffs[0], want) {
				t.Errorf("%s: want exactly one mismatch at %s, got %d: %v", tc.regression, want, len(diffs), diffs)
			}
		})
	}
}

// TestProtoDomainShape pins the domain the table covers, so a future
// edit cannot silently shrink the cross-checked surface.
func TestProtoDomainShape(t *testing.T) {
	if n := len(protoDomain()); n != 16*3 {
		t.Errorf("protoDomain has %d words, want %d", n, 16*3)
	}
	wantTuples := map[string]int{
		"Claim": 2 * 2, "Commit": 2, "Settle": 2 * 2,
		"Pin": 1, "Unpin": 1, "ConsumePrefetch": 1,
	}
	total := 0
	for _, op := range protoOps() {
		if got := len(op.argTuples); got != wantTuples[op.name] {
			t.Errorf("%s explores %d argument tuples, want %d", op.name, got, wantTuples[op.name])
		}
		total += len(op.argTuples)
	}
	if n := len(protoTable()); n != total*16*3 {
		t.Errorf("protoTable has %d entries, want %d", n, total*16*3)
	}
}

// --- the invariant, over every reachable word ---

// violation reports why w breaks the claim machine's invariant
// (DESIGN.md §9), or "" if it does not.
func violation(w uint64) string {
	claimed := w&specClaimed != 0
	resident := w&specResident != 0
	if resident && claimed && w&specCommitted == 0 {
		return "resident buffer holds an uncommitted claim: eviction cannot wait on it"
	}
	if !resident && w&specPrefetched != 0 {
		return "non-resident buffer marked prefetched: its next landing could count a stale hit"
	}
	if claimed && specPins(w) > 0 {
		return "claimed buffer is pinned: the claim holder would move or read a copy a task is using"
	}
	return ""
}

// reach runs a breadth-first search from the zero word over every
// transition table grants. It returns each reached word with the entry
// that first reached it, and, at the first reached word violation
// rejects, that word, the reason and the transitions leading to it.
func reach(table []protoEntry) (map[uint64]protoEntry, string) {
	grants := make(map[uint64][]protoEntry)
	for _, e := range table {
		if e.ok {
			grants[e.in] = append(grants[e.in], e)
		}
	}
	via := map[uint64]protoEntry{0: {}}
	for queue := []uint64{0}; len(queue) > 0; queue = queue[1:] {
		w := queue[0]
		if v := violation(w); v != "" {
			var path []string
			for at := w; at != 0; at = via[at].in {
				e := via[at]
				path = append([]string{fmt.Sprintf("%s%v → %#x", e.op, e.args, e.out)}, path...)
			}
			return via, fmt.Sprintf("word %#x: %s; reached by %s", w, v, strings.Join(path, ", "))
		}
		for _, e := range grants[w] {
			if _, seen := via[e.out]; !seen {
				via[e.out] = e
				queue = append(queue, e.out)
			}
		}
	}
	return via, ""
}

// TestEveryReachableWordIsWaitable proves the invariant for every word
// any sequence of transitions can produce from a fresh buffer — every
// resident claim is waitable and no claimed word is pinned — and
// requires the search to reach resident claims, uncommitted claims,
// prefetched words and pinned words, so the proof is not vacuous.
func TestEveryReachableWordIsWaitable(t *testing.T) {
	via, bad := reach(protoTable())
	if bad != "" {
		t.Fatal(bad)
	}
	var resident, uncommitted, prefetched, pinned int
	for w := range via {
		if specPins(w) > 0 {
			pinned++
		}
		if w&specPrefetched != 0 {
			prefetched++
		}
		if w&specClaimed != 0 {
			if w&specResident != 0 {
				resident++
			}
			if w&specCommitted == 0 {
				uncommitted++
			}
		}
	}
	if resident == 0 || uncommitted == 0 || prefetched == 0 || pinned == 0 {
		t.Errorf("reached %d resident claims, %d uncommitted claims, %d prefetched words and %d pinned words, want some of each", resident, uncommitted, prefetched, pinned)
	}
	t.Logf("%d words reachable from the zero word, none violating", len(via))
}

// TestReachabilityCatchesPerturbedMachine proves the search above has
// teeth: each case bends the declared table the way a plausible
// claimword regression would, and the search must name a violating
// word.
func TestReachabilityCatchesPerturbedMachine(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		bend       func(*protoEntry)
	}{
		{"ClaimGuardRemoved", "uncommitted claim", func(e *protoEntry) {
			// Grant an uncommitted claim wherever the same claim,
			// committed, is granted.
			if e.op != "Claim" || e.ok || e.args[0] == 1 {
				return
			}
			if out, ok := specClaim(e.in, true, e.args[1]); ok {
				e.out, e.ok = out&^specCommitted, true
			}
		}},
		{"CommitDropsCommitted", "uncommitted claim", func(e *protoEntry) {
			if e.op == "Commit" && e.ok {
				e.out &^= specCommitted
			}
		}},
		{"ClaimToleratesPins", "claimed buffer is pinned", func(e *protoEntry) {
			// Grant a committed claim on a pinned word wherever the same
			// claim on the unpinned word is granted.
			if e.op != "Claim" || e.ok || specPins(e.in) == 0 {
				return
			}
			if out, ok := specClaim(specWithPins(e.in, 0), e.args[0] == 1, e.args[1]); ok {
				e.out, e.ok = specWithPins(out, specPins(e.in)), true
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			table := protoTable()
			for i := range table {
				tc.bend(&table[i])
			}
			_, bad := reach(table)
			if !strings.HasPrefix(bad, "word ") || !strings.Contains(bad, tc.want) {
				t.Errorf("perturbed machine: search reported %q, want a violating word", bad)
			}
			t.Log(bad)
		})
	}
}

// TestViolation: the predicate flags exactly the three broken shapes.
func TestViolation(t *testing.T) {
	for _, tc := range []struct {
		w   uint64
		bad bool
	}{
		{0, false},
		{specClaimed | specResident, true}, // resident claim, uncommitted
		{specClaimed | specResident | specCommitted, false},
		{specClaimed, false}, // uncommitted claim on a host-only buffer: nothing to evict
		{specPrefetched, true},
		{specResident | specPrefetched, false},
		{specClaimed | specResident | specCommitted | 1<<specPinShift, true}, // a claim under a pin
		{specResident | 1<<specPinShift, false},
	} {
		if got := violation(tc.w) != ""; got != tc.bad {
			t.Errorf("violation(%#x) = %q, want flagged=%v", tc.w, violation(tc.w), tc.bad)
		}
	}
}
