package claimword

import "testing"

func must(t *testing.T, w Word, ok bool, what string) Word {
	t.Helper()
	if !ok {
		t.Fatalf("%s: transition refused on %v", what, w)
	}
	return w
}

func refuse(t *testing.T, w Word, ok bool, what string) {
	t.Helper()
	if ok {
		t.Fatalf("%s: transition allowed, got %v", what, w)
	}
}

// TestDemandSwapInLifecycle walks the canonical demand-miss path:
// claim → commit → settle(+pin) → unpin, checking every intermediate
// word.
func TestDemandSwapInLifecycle(t *testing.T) {
	var w Word
	if w.Claimed() || w.Resident() || w.Pins() != 0 {
		t.Fatalf("zero word not empty-idle: %v", w)
	}
	w2, ok := Claim(w, false, NeedEmpty)
	w = must(t, w2, ok, "claim")
	if !w.Claimed() || w.Committed() || w.Resident() || w.Waitable() {
		t.Fatalf("after claim: %v", w)
	}
	w2, ok = Commit(w, false)
	w = must(t, w2, ok, "commit")
	if !w.Resident() || !w.Committed() || !w.Waitable() || w.Prefetched() {
		t.Fatalf("after commit: %v", w)
	}
	w2, ok = Settle(w, true, +1)
	w = must(t, w2, ok, "settle")
	if w.Claimed() || !w.Resident() || w.Committed() || w.Pins() != 1 {
		t.Fatalf("after settle: %v", w)
	}
	w2, ok = Unpin(w)
	w = must(t, w2, ok, "unpin")
	if w.Pins() != 0 {
		t.Fatalf("after unpin: %v", w)
	}
}

// TestPrefetchLifecycle checks the prefetch path: claim → commit
// (prefetched) sets resident+prefetched, settle keeps the mark, a
// demand hit consumes it exactly once.
func TestPrefetchLifecycle(t *testing.T) {
	var w Word
	w2, ok := Claim(w, false, NeedEmpty)
	w = must(t, w2, ok, "claim")
	w2, ok = Commit(w, true)
	w = must(t, w2, ok, "commit")
	if !w.Prefetched() || !w.Resident() || !w.Waitable() {
		t.Fatalf("prefetch commit lost marks: %v", w)
	}
	w2, ok = Settle(w, true, 0)
	w = must(t, w2, ok, "settle")
	if !w.Prefetched() || w.Claimed() {
		t.Fatalf("settle mishandled prefetch mark: %v", w)
	}
	w2, ok = Pin(w)
	w = must(t, w2, ok, "pin")
	w2, ok = ConsumePrefetch(w)
	w = must(t, w2, ok, "consume")
	if w.Prefetched() {
		t.Fatalf("consume left mark: %v", w)
	}
	_, ok = ConsumePrefetch(w)
	refuse(t, w, ok, "double consume")
}

// TestClaimPreconditions exercises every Need level and the
// double-claim refusal.
func TestClaimPreconditions(t *testing.T) {
	var w Word
	resident := settleResident(t)

	if _, ok := Claim(resident, true, NeedEmpty); ok {
		t.Fatal("NeedEmpty claimed a resident buffer")
	}
	pinned, ok := Pin(resident)
	pinned = must(t, pinned, ok, "pin")
	for _, need := range []Need{NeedUnpinned, NeedEmpty} {
		if _, ok := Claim(pinned, true, need); ok {
			t.Fatalf("need %d claimed a pinned buffer", need)
		}
	}
	claimed, ok := Claim(w, false, NeedEmpty)
	claimed = must(t, claimed, ok, "claim")
	if _, ok := Claim(claimed, true, NeedUnpinned); ok {
		t.Fatal("double claim allowed")
	}
}

// TestPinRules: pins need idle+resident; unpin underflow refuses.
func TestPinRules(t *testing.T) {
	var w Word
	if _, ok := Pin(w); ok {
		t.Fatal("pinned a non-resident buffer")
	}
	claimed, _ := Claim(w, false, NeedEmpty)
	committed, _ := Commit(claimed, false)
	if _, ok := Pin(committed); ok {
		t.Fatal("pinned a claimed buffer")
	}
	if _, ok := Unpin(w); ok {
		t.Fatal("unpin underflow allowed")
	}
	resident := settleResident(t)
	w2, ok := Pin(resident)
	w2 = must(t, w2, ok, "pin")
	if w2.Pins() != 1 {
		t.Fatalf("pin count: %v", w2)
	}
}

// TestCommittedAtClaim: write-back-style claims pass committed=true
// and are waitable from their very first visible word.
func TestCommittedAtClaim(t *testing.T) {
	resident := settleResident(t)
	w, ok := Claim(resident, true, NeedUnpinned)
	w = must(t, w, ok, "claim")
	if !w.Waitable() {
		t.Fatalf("committed claim not waitable: %v", w)
	}
	w2, ok := Settle(w, false, 0)
	w2 = must(t, w2, ok, "settle")
	if w2.Resident() || w2.Prefetched() {
		t.Fatalf("settle kept residency: %v", w2)
	}
}

// TestClaimRefusesUnwaitableResident: an uncommitted claim on a
// resident buffer is the one word eviction could find and not wait on,
// so Claim refuses it; committed, the same claim is granted. Pinned,
// the buffer refuses every claim.
func TestClaimRefusesUnwaitableResident(t *testing.T) {
	resident := settleResident(t)
	pinned, ok := Pin(resident)
	pinned = must(t, pinned, ok, "pin")
	if n, ok := Claim(resident, false, NeedUnpinned); ok {
		t.Errorf("uncommitted claim on %v granted: %v", resident, n)
	}
	if _, ok := Claim(resident, true, NeedUnpinned); !ok {
		t.Errorf("committed claim on %v refused", resident)
	}
	for _, committed := range []bool{false, true} {
		if n, ok := Claim(pinned, committed, NeedUnpinned); ok {
			t.Errorf("claim on %v granted with committed=%v: %v", pinned, committed, n)
		}
	}
}

// TestSettleGuards: settle refuses unclaimed words and pin underflow.
func TestSettleGuards(t *testing.T) {
	if _, ok := Settle(0, false, 0); ok {
		t.Fatal("settled an unclaimed word")
	}
	claimed, _ := Claim(0, false, NeedEmpty)
	if _, ok := Settle(claimed, false, -1); ok {
		t.Fatal("settle pin underflow allowed")
	}
}

// settleResident builds an idle resident unpinned word via the public
// transitions only.
func settleResident(t *testing.T) Word {
	t.Helper()
	w, ok := Claim(0, false, NeedEmpty)
	if !ok {
		t.Fatal("setup claim refused")
	}
	w, ok = Commit(w, false)
	if !ok {
		t.Fatal("setup commit refused")
	}
	w, ok = Settle(w, true, 0)
	if !ok {
		t.Fatal("setup settle refused")
	}
	return w
}
