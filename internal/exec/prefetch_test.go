package exec

import (
	"fmt"
	"runtime"
	"testing"

	"harmony/internal/fault"
	"harmony/internal/memory"
	"harmony/internal/nn"
	"harmony/internal/sched"
)

// ------------------------------------------- async DMA engine (unit)

// TestEnsureAsyncPrefetchLifecycle walks the happy path of the state
// machine: an async swap-in lands the tensor on the device, the first
// demand Ensure is a hit (no second copy), and the counters agree.
func TestEnsureAsyncPrefetchLifecycle(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	vm := NewVM(1, 500, memory.Policy{DirtyTracking: true})
	vm.StartEngine(400)
	defer vm.Close()
	host := vm.HostAlloc(a)
	for i := range host {
		host[i] = float32(i)
	}
	vm.EnsureAsync(0, a)
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if vm.Used(0) != 400 {
		t.Fatalf("prefetched tensor not resident: used = %d", vm.Used(0))
	}
	dev, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if dev[7] != 7 {
		t.Fatalf("prefetched copy wrong: %v", dev[:8])
	}
	st := vm.StatsSnapshot()
	if st.SwapIns != 1 || st.PrefetchIssued != 1 || st.PrefetchHits != 1 {
		t.Fatalf("stats = %+v, want one prefetch, one hit, one swap-in total", st)
	}
}

// TestEnsureRidesInFlightPrefetch arms a delay fault so the async
// swap-in is still in flight when the demand Ensure arrives: Ensure
// must wait for the DMA to settle and reuse it, not copy again.
func TestEnsureRidesInFlightPrefetch(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	inj, err := fault.Parse("op=swap-in,mode=delay,delay=20ms,count=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(1, 500, memory.Policy{DirtyTracking: true})
	vm.SetFaultInjection(inj, 3, nil)
	vm.StartEngine(400)
	defer vm.Close()
	vm.HostAlloc(a)
	vm.EnsureAsync(0, a) // DMA worker sleeps 20ms before copying
	dev, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if dev == nil {
		t.Fatal("no device slice")
	}
	st := vm.StatsSnapshot()
	if st.SwapIns != 1 {
		t.Fatalf("demand Ensure double-copied an in-flight prefetch: %+v", st)
	}
	if st.PrefetchHits != 1 {
		t.Fatalf("riding an in-flight prefetch must count as a hit: %+v", st)
	}
}

// TestEnsureAsyncRespectsBudgetAndPins: prefetch must refuse work
// over the async byte budget and must never evict — it fills spare
// capacity only, so a full device (even of clean droppable pages)
// makes it a no-op until the demand path frees room.
func TestEnsureAsyncRespectsBudgetAndPins(t *testing.T) {
	_, a, b, c := vmTensors(t)
	vm := NewVM(1, 900, memory.Policy{DirtyTracking: true})
	vm.StartEngine(400) // budget: one 400-byte tensor outstanding
	defer vm.Close()
	vm.HostAlloc(a)
	vm.HostAlloc(b)
	vm.HostAlloc(c)
	// Pin a — 400 of 900 bytes used and unevictable.
	if _, err := vm.Ensure(0, a); err != nil {
		t.Fatal(err)
	}
	vm.EnsureAsync(0, b) // fits (400 outstanding = budget)
	vm.EnsureAsync(0, c) // over budget AND over capacity: must no-op
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	st := vm.StatsSnapshot()
	if st.PrefetchIssued != 1 {
		t.Fatalf("issued = %d, want only b prefetched", st.PrefetchIssued)
	}
	if vm.Used(0) != 800 {
		t.Fatalf("used = %d, want a+b resident", vm.Used(0))
	}
	// b consumed: the budget frees up, but the device is still full
	// (800+400 > 900) and prefetch never evicts — even though clean
	// unpinned b would be a legal demand-path victim.
	if _, err := vm.Ensure(0, b); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(b); err != nil {
		t.Fatal(err)
	}
	vm.EnsureAsync(0, c)
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if st := vm.StatsSnapshot(); st.Drops != 0 || st.PrefetchIssued != 1 || st.PrefetchHits != 1 {
		t.Fatalf("stats = %+v, want full device to veto c's prefetch", st)
	}
	// Once the demand path frees room, the same request goes through
	// (pinned a still untouched).
	if err := vm.Free(b); err != nil {
		t.Fatal(err)
	}
	vm.EnsureAsync(0, c)
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if st := vm.StatsSnapshot(); st.PrefetchIssued != 2 || vm.Used(0) != 800 {
		t.Fatalf("stats = %+v used = %d, want c prefetched beside pinned a", st, vm.Used(0))
	}
}

// TestCleanAheadMakesPagesDroppable: a proactive write-back turns a
// dirty resident page clean, so the next eviction drops it instead of
// stalling on a synchronous swap-out.
func TestCleanAheadMakesPagesDroppable(t *testing.T) {
	_, a, b, _ := vmTensors(t)
	vm := NewVM(1, 500, memory.Policy{DirtyTracking: true})
	vm.StartEngine(0)
	defer vm.Close()
	host := vm.HostAlloc(a)
	host[3] = 9
	dev, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	dev[3] = 42
	if err := vm.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	vm.CleanAhead(0, 4)
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if got, err := vm.Host(a); err != nil || got[3] != 42 {
		t.Fatalf("clean-ahead did not land on host: %v %v", got[:4], err)
	}
	// Evicting a now finds it clean: drop, not swap-out.
	vm.HostAlloc(b)
	if _, err := vm.Ensure(0, b); err != nil {
		t.Fatal(err)
	}
	st := vm.StatsSnapshot()
	if st.CleanAheads != 1 || st.Drops != 1 || st.SwapOuts != 1 {
		t.Fatalf("stats = %+v, want 1 clean-ahead write-back then a drop", st)
	}
}

// TestWaitIdleSurfacesFatalAsyncFault: a fatal fault that hits a DMA
// worker (no demand access ever trips over it) must still surface at
// the step boundary.
func TestWaitIdleSurfacesFatalAsyncFault(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	inj, err := fault.Parse("op=swap-in,mode=fatal,count=1", 3)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(1, 500, memory.Policy{DirtyTracking: true})
	vm.SetFaultInjection(inj, 3, nil)
	vm.StartEngine(400)
	defer vm.Close()
	vm.HostAlloc(a)
	vm.EnsureAsync(0, a)
	err = vm.WaitIdle()
	if err == nil {
		t.Fatal("fatal async fault vanished")
	}
	if _, fatal := fault.AsFatal(err); !fatal {
		t.Fatalf("want fatal error, got: %v", err)
	}
	// The failed prefetch must have rolled its reservation back.
	if vm.Used(0) != 0 {
		t.Fatalf("used = %d after failed prefetch", vm.Used(0))
	}
	// And a second WaitIdle reports clean.
	if err := vm.WaitIdle(); err != nil {
		t.Fatalf("latched error not cleared: %v", err)
	}
}

// --------------------------------------- bit-exactness matrix (e2e)

// TestPrefetchBitExactMatrix is the tentpole guarantee: the serial
// reference, the synchronous parallel executor, and the parallel
// executor with prefetch at several depths and with the adaptive
// controller all produce bit-identical losses and weights, under both
// optimizers, in DP on one and two devices and in PP. Prefetch and
// eviction may change data movement, never math.
//
// The reference each variant is held to runs on a device so large that
// nothing is ever evicted: whatever the VM believes about a page (clean,
// dirty, known-zero), no page there is ever rebuilt from that belief, so
// a wrong known-zero mark — a gradient dropped while it still held
// something — cannot hide in the reference. The variants run on a device
// too small for W + dW and must have refilled a gradient from its mark.
// (Checked by mutation: a MarkDirty that keeps the known-zero mark fails
// every cell at step 1.)
func TestPrefetchBitExactMatrix(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 6
	plans := []struct {
		mode    sched.Mode
		devices []int
	}{
		{sched.HarmonyDP, []int{1, 2}},
		{sched.HarmonyPP, []int{2}},
	}
	variants := []struct {
		name     string
		serial   bool
		depth    int
		adaptive bool
	}{
		{"serial", true, 0, false},
		{"sync", false, -1, false},
		{"depth1", false, 1, false},
		{"depth2", false, 2, false},
		{"depth4", false, 4, false},
		{"adaptive", false, 4, true},
	}
	run := func(t *testing.T, base TrainerConfig) {
		ref := base
		ref.Serial = true
		ref.DeviceBytes = 1 << 30
		a, lossA := runTrainer(t, ref, steps)
		defer a.Close()
		nDW := len(a.layers) * a.Replicas()
		if st := a.Stats(); st.Drops != 0 || st.SwapOuts != 0 || st.ZeroFills != nDW {
			t.Fatalf("the reference device evicted, or filled more than each gradient's first touch: %+v", st)
		}
		for _, v := range variants {
			cfg := base
			cfg.Serial, cfg.PrefetchDepth, cfg.AdaptivePrefetch = v.serial, v.depth, v.adaptive
			b, lossB := runTrainer(t, cfg, steps)
			assertSameRun(t, a, b, lossA, lossB)
			st := b.Stats()
			prefetches := !v.serial && v.depth > 0
			if !prefetches && st.PrefetchIssued != 0 {
				t.Fatalf("%s: prefetch ran while disabled: %+v", v.name, st)
			}
			if prefetches && st.PrefetchIssued == 0 {
				t.Fatalf("%s: prefetch never fired under memory pressure", v.name)
			}
			if st.ZeroFills <= nDW || st.Drops == 0 {
				t.Fatalf("%s: no gradient was dropped and refilled from its mark: %+v", v.name, st)
			}
			b.Close()
		}
	}
	for _, p := range plans {
		t.Run(p.mode.String(), func(t *testing.T) {
			for _, devices := range p.devices {
				for _, opt := range []Optimizer{SGD, Adam} {
					base := trainerConfig(p.mode, devices)
					base.Widths = []int{16, 32, 32, 32, 4} // W + dW = 22304 bytes
					base.Optimizer = opt
					// Two waves of two microbatches: a layer's gradient sits
					// half-accumulated while every other layer runs, so it is
					// evicted dirty within a step as well as known-zero between
					// steps — a mark that outlived a write would lose it there.
					opts := sched.DefaultOptions(p.mode)
					opts.GroupSize = 2
					base.Options = &opts
					if opt == Adam {
						// One layer's update pins W + dW + two moments (16.9 KB).
						base.DeviceBytes, base.LR = 20<<10, 0.005
					}
					t.Run(fmt.Sprintf("%ddev/opt%d", devices, opt), func(t *testing.T) { run(t, base) })
				}
			}
		})
	}
}

// TestPrefetchBitExactUnderDelayFaults stresses the state machine's
// interleavings: injected delays on every op class shift which DMAs
// are in flight when demands arrive, and the math must not move.
func TestPrefetchBitExactUnderDelayFaults(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			a, lossA := runTrainer(t, ref, 3)
			cfg := faultyConfig(t, mode, "op=any,mode=delay,delay=300us,count=60", false)
			cfg.PrefetchDepth = 3
			b, lossB := runTrainer(t, cfg, 3)
			assertSameRun(t, a, b, lossA, lossB)
			if st := b.Stats(); st.PrefetchIssued == 0 {
				t.Fatalf("prefetch never fired: %+v", st)
			}
			b.Close()
		})
	}
}

// TestPrefetchBitExactUnderRecovery runs the end-to-end recovery
// scenario with the async engine at full depth: the fatal fault lands
// while DMAs may be in flight, runStep drains them, recovery rebuilds
// the VM (closing the old engine), and the result still matches the
// fault-free serial reference bit for bit.
func TestPrefetchBitExactUnderRecovery(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 4
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP} {
		t.Run(mode.String(), func(t *testing.T) {
			ref := trainerConfig(mode, 2)
			ref.Serial = true
			ref.DeviceBytes = 32 << 10
			a, lossA := runTrainer(t, ref, steps)
			cfg := faultyConfig(t, mode, "op=kernel,mode=fatal,dev=1,step=3", true)
			cfg.DeviceBytes = 32 << 10
			cfg.PrefetchDepth = 4
			b, lossB := runTrainer(t, cfg, steps)
			assertSameRun(t, a, b, lossA, lossB)
			if got := b.Recoveries(); got != 1 {
				t.Fatalf("recoveries = %d, want 1", got)
			}
			b.Close()
		})
	}
}
