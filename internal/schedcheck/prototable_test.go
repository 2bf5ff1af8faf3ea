package schedcheck

// prototable_test.go declares the claim/commit/settle/pin transition
// table the DMA model explores, as an independent specification, and
// checks the compiled machine against it. The model itself
// (dmamodel.go) applies internal/claimword's compiled transitions
// directly, which is what makes its exploration honest — but it also
// means the model alone cannot notice claimword changing, because the
// model changes with it. The spec below breaks that coupling: it
// re-states the machine from DESIGN.md §9/§12 with its own constants
// and its own logic, deliberately NOT calling claimword.
//
// TestProtoTableMatchesClaimword is the one gate that pins the two
// together: it applies the compiled claimword transitions over the
// whole bounded domain and diffs them against the spec, so the table
// the model explores is exactly the table declared here. Edit
// claimword without editing the spec and it trips; edit the spec
// without editing claimword and it trips. That is the point.

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
	specStateMask  uint64 = 0x3
	specAsync      uint64 = 1 << 2
	specCommitted  uint64 = 1 << 3
	specResident   uint64 = 1 << 4
	specPrefetched uint64 = 1 << 5
	specPinShift          = 8
	specPinLimit   int64  = 1 << 20
)

func specPins(w uint64) int64 { return int64(w >> specPinShift & (uint64(specPinLimit) - 1)) }

func specWithPins(w uint64, n int64) uint64 {
	mask := (uint64(specPinLimit) - 1) << specPinShift
	return w&^mask | uint64(n)<<specPinShift&mask
}

// protoDomain enumerates the bounded word domain the table covers:
// every DMA state (idle, swap-in, swap-out), every combination of the
// four flags, pin counts 0–2. 144 words; the model's reachable states
// are a subset.
func protoDomain() []uint64 {
	var words []uint64
	for st := uint64(0); st <= 2; st++ {
		for flags := uint64(0); flags < 16; flags++ {
			for pins := uint64(0); pins <= 2; pins++ {
				words = append(words, st|flags<<2|pins<<specPinShift)
			}
		}
	}
	return words
}

// protoOps lists the six transitions and the argument tuples explored
// for each: Claim takes (st, async, committed, need), Settle
// (resident, pinDelta), the rest nothing. Claim includes the invalid
// target states 0 and 3 so the table pins their rejection, and every
// need level; Settle covers both outcomes and both pin deltas.
func protoOps() []protoOp {
	var claims [][]int64
	for st := int64(0); st <= 3; st++ {
		for async := int64(0); async <= 1; async++ {
			for committed := int64(0); committed <= 1; committed++ {
				for need := int64(0); need <= 2; need++ {
					claims = append(claims, []int64{st, async, committed, need})
				}
			}
		}
	}
	var settles [][]int64
	for resident := int64(0); resident <= 1; resident++ {
		for delta := int64(0); delta <= 1; delta++ {
			settles = append(settles, []int64{resident, delta})
		}
	}
	none := [][]int64{nil}
	return []protoOp{
		{name: "Claim", argTuples: claims},
		{name: "Commit", argTuples: none},
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
		return specClaim(w, args[0], args[1] == 1, args[2] == 1, args[3])
	case "Commit":
		return specCommit(w)
	case "Settle":
		return specSettle(w, args[0] == 1, args[1])
	case "Pin":
		return specPin(w)
	case "Unpin":
		return specUnpin(w)
	case "ConsumePrefetch":
		return specConsumePrefetch(w)
	}
	panic("schedcheck: unknown proto op " + op)
}

// --- the declared machine (DESIGN.md §9/§12, restated) ---

// specClaim: only swap-in (1) and swap-out (2) are claimable targets,
// only from idle; need=1 additionally requires unpinned, need=2
// unpinned, non-resident and non-prefetched. The claim sets the state
// and replaces the async/committed flags with the claimant's.
func specClaim(w uint64, st int64, async, committed bool, need int64) (uint64, bool) {
	if st != 1 && st != 2 {
		return w, false
	}
	if w&specStateMask != 0 {
		return w, false
	}
	switch need {
	case 1:
		if specPins(w) > 0 {
			return w, false
		}
	case 2:
		if specPins(w) > 0 || w&specResident != 0 || w&specPrefetched != 0 {
			return w, false
		}
	}
	n := w &^ (specStateMask | specAsync | specCommitted)
	n |= uint64(st)
	if async {
		n |= specAsync
	}
	if committed {
		n |= specCommitted
	}
	return n, true
}

// specCommit: any claimed word gains resident+committed in one step;
// an async claim additionally gains the prefetched mark. Unclaimed
// words are rejected.
func specCommit(w uint64) (uint64, bool) {
	if w&specStateMask == 0 {
		return w, false
	}
	n := w | specResident | specCommitted
	if w&specAsync != 0 {
		n |= specPrefetched
	}
	return n, true
}

// specSettle: a claimed word returns to idle with async/committed
// cleared; residency is forced to the outcome, and losing residency
// also drops the prefetched mark; pinDelta adjusts pins within
// [0, pinLimit).
func specSettle(w uint64, resident bool, pinDelta int64) (uint64, bool) {
	if w&specStateMask == 0 {
		return w, false
	}
	pins := specPins(w) + pinDelta
	if pins < 0 || pins >= specPinLimit {
		return w, false
	}
	n := w &^ (specStateMask | specAsync | specCommitted)
	if resident {
		n |= specResident
	} else {
		n &^= specResident | specPrefetched
	}
	return specWithPins(n, pins), true
}

// specPin: one pin on an idle resident word, below the pin limit.
func specPin(w uint64) (uint64, bool) {
	if w&specStateMask != 0 || w&specResident == 0 {
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
		n, ok = claimword.Claim(cw, claimword.State(args[0]), args[1] == 1, args[2] == 1, claimword.Need(args[3]))
	case "Commit":
		n, ok = claimword.Commit(cw)
	case "Settle":
		n, ok = claimword.Settle(cw, args[0] == 1, int(args[1]))
	case "Pin":
		n, ok = claimword.Pin(cw)
	case "Unpin":
		n, ok = claimword.Unpin(cw)
	case "ConsumePrefetch":
		n, ok = claimword.ConsumePrefetch(cw)
	default:
		panic("schedcheck: unknown proto op " + op)
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
// DESIGN.md declares: the DMA model explores whatever claimword
// compiles to, so editing claimword without this spec — or this spec
// without claimword — must fail here.
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
			func(e protoEntry) bool { return !e.ok && e.args[0] == 1 && e.args[3] == 1 && e.in == 1<<specPinShift },
			func(e *protoEntry) { e.out, e.ok = e.in|1, true }},
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
	if n := len(protoDomain()); n != 3*16*3 {
		t.Errorf("protoDomain has %d words, want %d", n, 3*16*3)
	}
	wantTuples := map[string]int{
		"Claim": 4 * 2 * 2 * 3, "Commit": 1, "Settle": 2 * 2,
		"Pin": 1, "Unpin": 1, "ConsumePrefetch": 1,
	}
	total := 0
	for _, op := range protoOps() {
		if got := len(op.argTuples); got != wantTuples[op.name] {
			t.Errorf("%s explores %d argument tuples, want %d", op.name, got, wantTuples[op.name])
		}
		total += len(op.argTuples)
	}
	if n := len(protoTable()); n != total*3*16*3 {
		t.Errorf("protoTable has %d entries, want %d", n, total*3*16*3)
	}
}
