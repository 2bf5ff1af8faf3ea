package collective

import (
	"errors"
	"testing"
	"testing/quick"

	"harmony/internal/hw"
	"harmony/internal/sim"
)

func box(t *testing.T, n int, p2p bool) (*sim.Engine, *hw.Topology) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := hw.Commodity1080TiBox(n)
	cfg.P2P = p2p
	top, err := hw.NewBox(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, top
}

func gpus(n int) []hw.DeviceID {
	out := make([]hw.DeviceID, n)
	for i := range out {
		out[i] = hw.DeviceID(i)
	}
	return out
}

func TestAllReduceSingleDeviceIsFree(t *testing.T) {
	eng, top := box(t, 1, true)
	fired := false
	if err := RingAllReduce(top, gpus(1), 1<<20, func(sim.Time) { fired = true }, nil); err != nil {
		t.Fatal(err)
	}
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || end != 0 {
		t.Fatalf("fired=%v end=%v, want immediate completion", fired, end)
	}
}

func TestAllReduceCompletesAndScalesWithPayload(t *testing.T) {
	eng, top := box(t, 4, true)
	var small, large sim.Time
	if err := RingAllReduce(top, gpus(4), 12e6, func(at sim.Time) { small = at }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	base := eng.Now()
	if err := RingAllReduce(top, gpus(4), 120e6, func(at sim.Time) { large = at }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	large -= base
	if small <= 0 || large <= 0 {
		t.Fatalf("durations small=%v large=%v", small, large)
	}
	ratio := float64(large) / float64(small)
	if ratio < 5 || ratio > 15 {
		t.Fatalf("10x payload took %.1fx time, want ≈10x", ratio)
	}
}

func TestAllReduceMatchesEstimateUncontended(t *testing.T) {
	eng, top := box(t, 4, true)
	est, err := AllReduceTime(top, gpus(4), 48e6)
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Time
	if err := RingAllReduce(top, gpus(4), 48e6, func(at sim.Time) { got = at }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The barrier-per-step simulation can only be ≥ the uncontended
	// estimate, and shouldn't exceed it wildly on an idle ring. Ring
	// edges differ (same-switch vs cross-switch), so allow 2x.
	if got < est {
		t.Fatalf("simulated %v < estimate %v", got, est)
	}
	if got > 2*est {
		t.Fatalf("simulated %v >> estimate %v", got, est)
	}
}

func TestAllReduceWithoutP2PBouncesThroughHost(t *testing.T) {
	engP2P, topP2P := box(t, 4, true)
	var withP2P, without sim.Time
	if err := RingAllReduce(topP2P, gpus(4), 48e6, func(at sim.Time) { withP2P = at }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := engP2P.Run(); err != nil {
		t.Fatal(err)
	}
	engNo, topNo := box(t, 4, false)
	if err := RingAllReduce(topNo, gpus(4), 48e6, func(at sim.Time) { without = at }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := engNo.Run(); err != nil {
		t.Fatal(err)
	}
	if without <= withP2P {
		t.Fatalf("host-bounced all-reduce (%v) should be slower than p2p (%v)", without, withP2P)
	}
}

func TestAllReduceValidation(t *testing.T) {
	_, top := box(t, 2, true)
	if err := RingAllReduce(top, nil, 10, func(sim.Time) {}, nil); err == nil {
		t.Fatal("empty device list accepted")
	}
	if err := RingAllReduce(top, gpus(2), -1, func(sim.Time) {}, nil); err == nil {
		t.Fatal("negative payload accepted")
	}
	if err := RingAllReduce(top, []hw.DeviceID{0, hw.Host}, 10, func(sim.Time) {}, nil); err == nil {
		t.Fatal("host participant accepted")
	}
	if err := RingAllReduce(top, []hw.DeviceID{0, 0}, 10, func(sim.Time) {}, nil); err == nil {
		t.Fatal("duplicate device accepted")
	}
}

// Property: all-reduce duration grows with device count for a fixed
// payload (more steps), for both p2p and host-bounced rings.
func TestAllReduceMonotoneInDevices(t *testing.T) {
	f := func(p2p bool) bool {
		var prev sim.Time
		for n := 2; n <= 4; n++ {
			eng := sim.NewEngine()
			cfg := hw.Commodity1080TiBox(n)
			cfg.P2P = p2p
			top, err := hw.NewBox(eng, cfg)
			if err != nil {
				return false
			}
			var dur sim.Time
			if err := RingAllReduce(top, gpus(n), 48e6, func(at sim.Time) { dur = at }, nil); err != nil {
				return false
			}
			if _, err := eng.Run(); err != nil {
				return false
			}
			if dur <= prev {
				return false
			}
			prev = dur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherCompletes(t *testing.T) {
	eng, top := box(t, 4, true)
	var dur sim.Time
	if err := RingAllGather(top, gpus(4), 48e6, func(at sim.Time) { dur = at }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("all-gather took no time")
	}
	// All-gather is N−1 steps vs all-reduce's 2(N−1): roughly half.
	eng2, top2 := box(t, 4, true)
	var ar sim.Time
	if err := RingAllReduce(top2, gpus(4), 48e6, func(at sim.Time) { ar = at }, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(ar) / float64(dur)
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("all-reduce should cost ~2x an all-gather, got %.2fx", ratio)
	}
}

func TestAllGatherValidation(t *testing.T) {
	_, top := box(t, 2, true)
	if err := RingAllGather(top, nil, 10, func(sim.Time) {}, nil); err == nil {
		t.Fatal("empty device list accepted")
	}
	if err := RingAllGather(top, gpus(2), -1, func(sim.Time) {}, nil); err == nil {
		t.Fatal("negative payload accepted")
	}
	if err := RingAllGather(top, []hw.DeviceID{0, hw.Host}, 10, func(sim.Time) {}, nil); err == nil {
		t.Fatal("host participant accepted")
	}
	if err := RingAllGather(top, []hw.DeviceID{1, 1}, 10, func(sim.Time) {}, nil); err == nil {
		t.Fatal("duplicate device accepted")
	}
}

func TestAllGatherSingleDeviceFree(t *testing.T) {
	eng, top := box(t, 1, true)
	fired := false
	if err := RingAllGather(top, gpus(1), 1<<20, func(sim.Time) { fired = true }, nil); err != nil {
		t.Fatal(err)
	}
	end, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || end != 0 {
		t.Fatalf("fired=%v end=%v", fired, end)
	}
}

// -------------------------------------------------- async error path

// TestSendChunkSecondHopFailureCallsFail drives the host-bounce second
// hop into a routing error (Host->Host transfers to itself) and checks
// the error reaches the aborter instead of panicking mid-simulation —
// the contract injected faults rely on.
func TestSendChunkSecondHopFailureCallsFail(t *testing.T) {
	eng, top := box(t, 2, false)
	var got error
	ab := &aborter{fail: func(err error) { got = err }}
	// dst == Host forces the bounce's second hop to be Host->Host,
	// which the topology rejects — but only after the first hop's
	// engine event completes.
	if err := sendChunk(top, 0, hw.Host, 1<<10, func(sim.Time) {
		t.Fatal("done fired after failed second hop")
	}, ab); err != nil {
		t.Fatalf("first hop refused: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("second-hop failure not delivered to fail")
	}
	if !ab.aborted {
		t.Fatal("aborter not latched")
	}
}

// TestAborterLatchesOnce checks at-most-once delivery and nil-fail
// safety.
func TestAborterLatchesOnce(t *testing.T) {
	calls := 0
	ab := &aborter{fail: func(error) { calls++ }}
	ab.abort(errors.New("dummy"))
	ab.abort(errors.New("dummy"))
	if calls != 1 {
		t.Fatalf("fail called %d times, want 1", calls)
	}
	nilAb := &aborter{}
	nilAb.abort(errors.New("dummy")) // must not panic
	if !nilAb.aborted {
		t.Fatal("nil-fail aborter did not latch")
	}
}
