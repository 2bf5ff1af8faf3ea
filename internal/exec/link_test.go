package exec

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"harmony/internal/memory"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// sleepLog is a trace.ManualClock that remembers every sleep.
type sleepLog struct {
	trace.ManualClock
	mu    sync.Mutex
	slept []time.Duration
}

func (c *sleepLog) Sleep(d time.Duration) {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.mu.Unlock()
	c.ManualClock.Sleep(d)
}

func (c *sleepLog) sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

// linkVM is a VM on a manual clock whose links move bps bytes a second.
func linkVM(devices int, bps int64, pol memory.Policy) (*VM, *sleepLog) {
	clk := &sleepLog{}
	vm := NewVM(devices, 1<<20, pol)
	vm.clk = clk
	vm.SetLinkBandwidth(bps)
	return vm, clk
}

// The old bytes·1e9/bps wrapped past 9.2 GB and a negative duration
// made the link free.
func TestLinkTimeDoesNotOverflow(t *testing.T) {
	for _, tc := range []struct {
		bytes, bps int64
		want       time.Duration
	}{
		{0, 1 << 30, 0},
		{1 << 20, 0, 0},
		{1 << 20, 1 << 30, time.Second >> 10},
		{3, 2, 1500 * time.Millisecond},
		{10 << 30, 1 << 30, 10 * time.Second}, // 1.07e19 byte·ns: past int64
		{6 * (10 << 30), 1 << 30, time.Minute},
		{math.MaxInt64, math.MaxInt64, time.Second},
		{math.MaxInt64, 1, math.MaxInt64}, // does not fit: saturates, never negative
		{1 << 40, 100, math.MaxInt64},
	} {
		if got := linkTime(tc.bytes, tc.bps); got != tc.want {
			t.Errorf("linkTime(%d, %d) = %v, want %v", tc.bytes, tc.bps, got, tc.want)
		}
	}
}

// TestLinkConservation drives a seeded random sequence of transfers of
// every kind over several lanes and checks the model's invariants after
// each one: a reservation lasts exactly bytes/bps and starts no earlier
// than its lane and every link on its path are free, reservations on one
// link never overlap, and per lane slept + debt = Σ owed with debt below
// the quantum — so Σ slept ∈ (Σ owed − quantum, Σ owed] — and no sleep is
// shorter than the quantum.
func TestLinkConservation(t *testing.T) {
	const devices, bps = 3, 1 << 30
	for seed := int64(1); seed <= 4; seed++ {
		vm, clk := linkVM(devices, bps, memory.Policy{})
		rng := rand.New(rand.NewSource(seed))
		lanes := devices * int(laneKinds)
		owed := make([]time.Duration, lanes)
		slept := make([]time.Duration, lanes)
		busy := make([]time.Duration, devices+1)
		lastEnd := make([]time.Time, devices+1)
		for i := 0; i < 3000; i++ {
			dev, kind := rng.Intn(devices), laneKind(rng.Intn(int(laneKinds)))
			peer, path := noPeer, []int{dev}
			if kind != laneCollective {
				peer, path = overUplink, []int{dev, devices}
				if rng.Intn(3) == 0 {
					peer = (dev + 1 + rng.Intn(devices-1)) % devices
					path = []int{dev, peer}
				}
			}
			// 1 µs to 4 ms: most transfers are far below the quantum, a few
			// cross it on their own.
			bytes := int64(1) << (10 + rng.Intn(13))
			bytes += rng.Int63n(bytes)
			lane := dev*int(laneKinds) + int(kind)
			now, debt, nSleeps := clk.Now(), vm.link.debt[lane], len(clk.sleeps())

			start, end := vm.charge(bps, kind, dev, peer, bytes)

			if got, want := end.Sub(start), linkTime(bytes, bps); got != want {
				t.Fatalf("seed %d op %d: reservation lasts %v, want %v", seed, i, got, want)
			}
			if free := now.Add(debt); start.Before(free) {
				t.Fatalf("seed %d op %d: starts %v before its lane is free", seed, i, free.Sub(start))
			}
			for _, l := range path {
				if start.Before(lastEnd[l]) {
					t.Fatalf("seed %d op %d: overlaps link %d's last reservation by %v", seed, i, l, lastEnd[l].Sub(start))
				}
				lastEnd[l] = end
				busy[l] += end.Sub(start)
			}
			owed[lane] += end.Sub(now.Add(debt))
			if s := clk.sleeps()[nSleeps:]; len(s) > 1 {
				t.Fatalf("seed %d op %d: %d sleeps for one transfer", seed, i, len(s))
			} else if len(s) == 1 {
				if s[0] < linkQuantum {
					t.Fatalf("seed %d op %d: slept %v, below the %v quantum", seed, i, s[0], linkQuantum)
				}
				slept[lane] += s[0]
			}
			if d := vm.link.debt[lane]; d < 0 || d >= linkQuantum || slept[lane]+d != owed[lane] {
				t.Fatalf("seed %d op %d: lane %d slept %v + debt %v, owed %v", seed, i, lane, slept[lane], d, owed[lane])
			}
		}
		st := vm.LinkStats()
		for l, want := range busy {
			got := st.Uplink
			if l < devices {
				got = st.Device[l]
			}
			if got != want {
				t.Errorf("seed %d: link %d busy %v, reserved %v", seed, l, got, want)
			}
		}
		var total time.Duration
		for _, s := range slept {
			total += s
		}
		if got := clk.Now().Sub(time.Time{}); got != total || len(clk.sleeps()) == 0 {
			t.Errorf("seed %d: clock moved %v over %d sleeps, lanes slept %v", seed, got, len(clk.sleeps()), total)
		}
	}
}

// TestLinkExclusivity is Fig. 1's box as the trainer models it: lanes
// that swap share the one host uplink, so N of them finish in N× the
// time one takes, while p2p moves between disjoint pairs of devices and
// reductions on distinct devices each have their links to themselves
// and finish in 1×. Everything stays below the quantum, so the clock
// never moves and every time is exact.
func TestLinkExclusivity(t *testing.T) {
	const (
		n, rounds = 4, 3
		bps       = 1 << 30
		bytes     = 100 << 10 // ≈ 95 µs a transfer
	)
	one := linkTime(bytes, bps)
	// makespan runs `rounds` round-robin passes over the lanes and
	// returns when the last reservation ends.
	makespan := func(devices, lanes int, kind laneKind, path func(i int) (dev, peer int)) time.Duration {
		vm, clk := linkVM(devices, bps, memory.Policy{})
		var last time.Time
		for r := 0; r < rounds; r++ {
			for i := 0; i < lanes; i++ {
				dev, peer := path(i)
				if _, end := vm.charge(bps, kind, dev, peer, bytes); end.After(last) {
					last = end
				}
			}
		}
		if len(clk.sleeps()) != 0 {
			t.Fatalf("sub-quantum lanes slept %v", clk.sleeps())
		}
		return last.Sub(time.Time{})
	}
	swap := func(i int) (int, int) { return i, overUplink }
	for _, tc := range []struct {
		name           string
		devices, lanes int
		kind           laneKind
		path           func(int) (int, int)
		want           time.Duration
	}{
		{"one lane swapping", 1, 1, laneDemand, swap, rounds * one},
		{"n lanes swapping share the uplink", n, n, laneDemand, swap, n * rounds * one},
		{"n DMA lanes swapping share it too", n, n, laneDMA, swap, n * rounds * one},
		{"n disjoint p2p pairs", 2 * n, n, laneDemand, func(i int) (int, int) { return 2 * i, 2*i + 1 }, rounds * one},
		{"two p2p moves out of one device", 3, 2, laneDemand, func(i int) (int, int) { return 2 * i, 1 }, 2 * rounds * one},
		{"n reducers on distinct devices", n, n, laneCollective, func(i int) (int, int) { return i, noPeer }, rounds * one},
	} {
		if got := makespan(tc.devices, tc.lanes, tc.kind, tc.path); got != tc.want {
			t.Errorf("%s: finished at %v, want %v", tc.name, got, tc.want)
		}
	}
}

// page is one 4 KiB tensor with a host copy.
func page(vm *VM, reg *tensor.Registry, name string) *tensor.Tensor {
	ts := reg.New(name, tensor.Activation, 4<<10, 0, 0)
	vm.HostAlloc(ts)
	return ts
}

// TestLinkPathsAndSpans drives each kind of transfer through the VM's
// own API and reads off which links it occupied — the uplink is shared
// by swaps only — and that the span it records and the time it reports
// are the reservation, not the memcpy.
func TestLinkPathsAndSpans(t *testing.T) {
	const ms = time.Millisecond
	const bps = 4096000 // a 4 KiB page holds a link for exactly 1 ms
	type span struct {
		dev        int
		lane       trace.Lane
		start, end time.Duration
	}
	var spans []span
	var mu sync.Mutex
	record := func(vm *VM) {
		vm.SetRecorder(func(dev int, lane trace.Lane, _ string, start, end time.Time) {
			mu.Lock()
			spans = append(spans, span{dev, lane, start.Sub(time.Time{}), end.Sub(time.Time{})})
			mu.Unlock()
		})
	}
	busy := func(vm *VM) [3]time.Duration {
		st := vm.LinkStats()
		return [3]time.Duration{st.Device[0], st.Device[1], st.Uplink}
	}
	expect := func(vm *VM, what string, want [3]time.Duration) {
		t.Helper()
		if got := busy(vm); got != want {
			t.Fatalf("after %s: links (gpu0, gpu1, uplink) busy %v, want %v", what, got, want)
		}
	}
	unpin := func(vm *VM, ts *tensor.Tensor) {
		t.Helper()
		if err := vm.Unpin(ts); err != nil {
			t.Fatal(err)
		}
	}
	ensure := func(vm *VM, dev int, ts *tensor.Tensor) {
		t.Helper()
		if _, err := vm.Ensure(dev, ts); err != nil {
			t.Fatal(err)
		}
	}

	reg := tensor.NewRegistry()
	vm, clk := linkVM(2, bps, memory.Policy{DirtyTracking: true, P2P: true})
	record(vm)
	a, b := page(vm, reg, "a"), page(vm, reg, "b")

	ensure(vm, 0, a) // demand swap-in
	expect(vm, "swap-in", [3]time.Duration{1 * ms, 0, 1 * ms})
	unpin(vm, a)
	ensure(vm, 1, a) // p2p: both devices' links, never the uplink
	expect(vm, "p2p", [3]time.Duration{2 * ms, 1 * ms, 1 * ms})
	if err := vm.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	unpin(vm, a)
	if _, err := vm.Host(a); err != nil { // demand write-back
		t.Fatal(err)
	}
	expect(vm, "write-back", [3]time.Duration{2 * ms, 2 * ms, 2 * ms})

	vm.StartEngine(0)
	defer vm.Close()
	vm.EnsureAsync(0, b) // prefetch, on gpu0's DMA lane
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	expect(vm, "prefetch", [3]time.Duration{3 * ms, 2 * ms, 3 * ms})
	if got := vm.StatsSnapshot().AsyncDMANanos; got != ms.Nanoseconds() {
		t.Errorf("AsyncDMANanos %d after one prefetch, want the modeled %d", got, ms.Nanoseconds())
	}

	vm.chargeReduce(1, 4, 4<<10) // 2·(4-1) slices over the reducer's link
	expect(vm, "reduction", [3]time.Duration{3 * ms, 8 * ms, 3 * ms})

	// The swap-in's 1 ms stayed on gpu0's demand lane as debt. The p2p
	// move queued behind it on gpu0's link, so gpu1's lane owed 2 ms and
	// slept them; its write-back's 1 ms is debt again. The prefetch waited
	// for the uplink — 2 ms on gpu0's DMA lane — and the reduction's 6 ms
	// were slept at once.
	if got, want := clk.sleeps(), []time.Duration{2 * ms, 2 * ms, 6 * ms}; !slices.Equal(got, want) {
		t.Errorf("sleeps %v, want %v", got, want)
	}
	if got, want := vm.link.debt, []time.Duration{1 * ms, 0, 0, 1 * ms, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("lane debts %v, want %v", got, want)
	}
	want := []span{
		{0, trace.SwapIn, 0, 1 * ms},
		{1, trace.P2P, 1 * ms, 2 * ms},
		{1, trace.SwapOut, 2 * ms, 3 * ms},
		{0, trace.Prefetch, 3 * ms, 4 * ms},
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(spans, want) {
		t.Errorf("spans %v, want %v", spans, want)
	}

	// With p2p off a page changes devices through the host: out over the
	// source's link and the uplink, in over the destination's and the
	// uplink again.
	vm2, _ := linkVM(2, bps, memory.Policy{DirtyTracking: true})
	c := page(vm2, reg, "c")
	ensure(vm2, 0, c)
	if err := vm2.MarkDirty(c); err != nil {
		t.Fatal(err)
	}
	unpin(vm2, c)
	ensure(vm2, 1, c)
	expect(vm2, "bounce", [3]time.Duration{2 * ms, 1 * ms, 3 * ms})
}

// A VM with no bandwidth modeled reserves nothing and sleeps nothing;
// its spans are the wall interval of the copy.
func TestLinkOffReservesNothing(t *testing.T) {
	vm, clk := linkVM(2, 0, memory.Policy{DirtyTracking: true, P2P: true})
	var spans int
	vm.SetRecorder(func(_ int, _ trace.Lane, _ string, start, end time.Time) {
		spans++
		if !start.Equal(end) {
			t.Errorf("span [%v, %v) on a clock that never moved", start, end)
		}
	})
	a := page(vm, tensor.NewRegistry(), "a")
	for _, dev := range []int{0, 1} { // swap-in, then p2p
		if _, err := vm.Ensure(dev, a); err != nil {
			t.Fatal(err)
		}
		if err := vm.Unpin(a); err != nil {
			t.Fatal(err)
		}
	}
	vm.chargeReduce(0, 4, 1<<30)
	if st := vm.LinkStats(); st.Uplink != 0 || st.Device[0] != 0 || st.Device[1] != 0 {
		t.Errorf("links busy %+v with no bandwidth modeled", st)
	}
	for lane, d := range vm.link.debt {
		if d != 0 {
			t.Errorf("lane %d owes %v with no bandwidth modeled", lane, d)
		}
	}
	if len(clk.sleeps()) != 0 || !clk.Now().IsZero() || spans != 2 {
		t.Errorf("slept %v, clock at %v, %d spans; want no sleep, the zero time, 2 spans", clk.sleeps(), clk.Now(), spans)
	}
}

// TestConcurrentLinkLanes runs every kind of lane at once on the wall
// clock — demand swaps and prefetches through the VM, p2p reservations
// and reductions against the model — with transfers a fraction of the
// quantum long, so lanes cross it at different moments. Under -race this
// is the link model's concurrency test; the accounting it checks holds
// under any interleaving: every link's busy time is exactly what was
// reserved on it, no lane is left owing a quantum, and the time was
// really paid — the wall clock is past the uplink's last reservation,
// give or take one lane's debt.
func TestConcurrentLinkLanes(t *testing.T) {
	const (
		devices = 4
		rounds  = 24
		pages   = 6
		bps     = 4096 * 4000 // a 4 KiB page: 250 µs
	)
	one := linkTime(4<<10, bps)
	pol := memory.Policy{DirtyTracking: true}
	vm := NewVM(devices, 4*(4<<10), pol) // four of a device's six pages fit
	vm.SetLinkBandwidth(bps)
	vm.StartEngine(0)
	defer vm.Close()
	reg := tensor.NewRegistry()
	sets := make([][]*tensor.Tensor, devices)
	for d := range sets {
		for i := 0; i < pages; i++ {
			sets[d] = append(sets[d], page(vm, reg, tName("p", d, i)))
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(3)
		go func(d int) { // the device worker: demand swaps, prefetch hints
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ts := sets[d][i%pages]
				vm.EnsureAsync(d, sets[d][(i+1)%pages])
				if _, err := vm.Ensure(d, ts); err != nil {
					t.Error(err)
					return
				}
				if err := vm.Unpin(ts); err != nil {
					t.Error(err)
					return
				}
			}
		}(d)
		go func(d int) { // its reductions
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				vm.chargeReduce(d, 2, 2<<10)
			}
		}(d)
		go func(d int) { // p2p moves into it, on the link model alone
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				vm.charge(bps, laneDemand, d, (d+1)%devices, 4<<10)
			}
		}(d)
	}
	wg.Wait()
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	st, links := vm.StatsSnapshot(), vm.LinkStats()
	swaps := time.Duration(st.SwapIns+st.SwapOuts) * one
	if st.SwapIns < devices*pages || links.Uplink != swaps {
		t.Errorf("uplink busy %v, want %d swap-ins + %d write-backs × %v", links.Uplink, st.SwapIns, st.SwapOuts, one)
	}
	var perDevice time.Duration
	for _, busy := range links.Device {
		perDevice += busy
	}
	// Each device link also carried its reductions, the p2p moves into it
	// and the ones out of it.
	if want := swaps + devices*3*rounds*one; perDevice != want {
		t.Errorf("device links busy %v in all, want %v", perDevice, want)
	}
	for lane, d := range vm.link.debt {
		if d < 0 || d >= linkQuantum {
			t.Errorf("lane %d left owing %v", lane, d)
		}
	}
	if wall < links.Uplink-linkQuantum {
		t.Errorf("finished after %v of wall time with %v reserved on the uplink", wall, links.Uplink)
	}
}
