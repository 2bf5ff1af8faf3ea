package exec

import (
	"fmt"
	"math"
	"testing"

	"harmony/internal/claimword"
	"harmony/internal/fault"
	"harmony/internal/memory"
	"harmony/internal/sched"
	"harmony/internal/tensor"
)

// Known-zero pages (VM.MarkZero, DESIGN.md §9). None of the checks below
// asks the VM what it believes about a page: they read the floats.

var tracking = memory.Policy{DirtyTracking: true}

// bitZero reports the first element of xs that is not +0.
func bitZero(xs []float32) (int, bool) {
	for i, v := range xs {
		if math.Float32bits(v) != 0 {
			return i, false
		}
	}
	return -1, true
}

// zeroedPage makes t resident on dev the way an Update leaves a
// gradient: written, reset to zeros by its writer, marked, unpinned.
func zeroedPage(t *testing.T, vm *VM, dev int, ts *tensor.Tensor) {
	t.Helper()
	vm.ZeroAlloc(ts)
	buf, err := vm.Ensure(dev, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = float32(i + 1)
	}
	if err := vm.MarkDirty(ts); err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if err := vm.MarkZero(ts); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(ts); err != nil {
		t.Fatal(err)
	}
}

// evictAll pushes everything unpinned off dev by pinning a page as large
// as the device, then frees that page again.
func evictAll(t *testing.T, vm *VM, dev int) {
	t.Helper()
	filler := &tensor.Tensor{ID: 1 << 20, Name: "filler", Kind: tensor.Workspace, Bytes: vm.capacity}
	if _, err := vm.Alloc(dev, filler); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(filler); err != nil {
		t.Fatal(err)
	}
	if err := vm.Free(filler); err != nil {
		t.Fatal(err)
	}
}

// TestStepLeavesGradientsBitZero is the mark's premise checked on the
// bytes: on devices large enough that nothing is ever evicted — so no
// page is ever rebuilt from its mark — every dW device buffer is +0 from
// end to end after each Step, under both optimizers, with and without a
// collective in between.
func TestStepLeavesGradientsBitZero(t *testing.T) {
	for _, opt := range []Optimizer{SGD, Adam} {
		for _, devices := range []int{1, 2} {
			cfg := trainerConfig(sched.HarmonyDP, devices)
			cfg.Optimizer = opt
			cfg.LR = 0.005
			cfg.DeviceBytes = 1 << 30
			tr, _ := runTrainer(t, cfg, 3)
			if st := tr.Stats(); st.Drops != 0 || st.SwapOuts != 0 {
				t.Fatalf("opt %d, %d devices: the roomy device evicted: %+v", opt, devices, st)
			}
			for r := range tr.g.DW {
				for _, dw := range tr.g.DW[r] {
					b, ok := tr.vm.lookup(dw.ID)
					if !ok || !b.load().Resident() {
						t.Fatalf("%s is not resident on a device nothing is evicted from", dw)
					}
					if len(b.dev) != int(dw.Bytes/4) {
						t.Fatalf("%s: device copy has %d floats, tensor %d", dw, len(b.dev), dw.Bytes/4)
					}
					if i, ok := bitZero(b.dev); !ok {
						t.Fatalf("opt %d, %d devices: %s[%d] = %v after Step; the optimizer did not reset it", opt, devices, dw, i, b.dev[i])
					}
				}
			}
			tr.Close()
		}
	}
}

// TestZeroPageEvictionMovesNothing: evicting a known-zero page is a
// drop — no link bytes, no write-back stall for clean-ahead to arm on —
// that returns the page's prefetch-budget charge and leaves no host copy
// behind, not even the stale one an earlier write-back made.
func TestZeroPageEvictionMovesNothing(t *testing.T) {
	_, a, b, _ := vmTensors(t)
	vm := NewVM(1, 500, tracking)
	vm.StartEngine(400)
	defer vm.Close()

	// a: written back once mid-accumulation (so a host copy exists),
	// refetched, then reset and marked.
	vm.ZeroAlloc(a)
	buf, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	buf[5] = 5
	if err := vm.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	evictAll(t, vm, 0)
	ab, _ := vm.lookup(a.ID)
	if ab.host == nil || ab.host[5] != 5 {
		t.Fatal("set-up: the dirty eviction should have written a host copy")
	}
	vm.EnsureAsync(0, a) // back in through the prefetch lane: charged to the budget
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if got := vm.shards[0].pfBytes; got != 400 {
		t.Fatalf("set-up: prefetch charge = %d, want 400", got)
	}
	before := vm.StatsSnapshot()
	if before.SwapIns != 1 || before.SwapOuts != 1 {
		t.Fatalf("set-up: %+v, want one write-back and one copy in", before)
	}
	// The prefetched copy is never demanded: a mark set by whoever holds
	// the pin is what the test is about, so pin without consuming it.
	if !vm.pin(ab, ab.load()) {
		t.Fatal("pin failed")
	}
	clear(ab.dev)
	if err := vm.MarkZero(a); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}

	vm.HostAlloc(b)
	if _, err := vm.Ensure(0, b); err != nil { // 400 + 400 > 500: a must go
		t.Fatal(err)
	}
	st := vm.StatsSnapshot()
	if st.SwapOutBytes != before.SwapOutBytes || st.SwapOuts != before.SwapOuts {
		t.Fatalf("a known-zero page crossed the link on eviction: %+v", st)
	}
	if st.Drops != before.Drops+1 || st.DropBytes != before.DropBytes+400 {
		t.Fatalf("the eviction is not counted as a drop: %+v", st)
	}
	sh := vm.shards[0]
	if sh.pfBytes != 0 {
		t.Fatalf("prefetch budget still charged %d bytes for an evicted page", sh.pfBytes)
	}
	if sh.syncOuts != 1 {
		t.Fatalf("syncOuts = %d: a drop must not read as a write-back stall", sh.syncOuts)
	}
	if ab.host != nil || ab.dev != nil {
		t.Fatal("an evicted known-zero page still holds memory")
	}
}

// TestZeroPageReadsAsZeros: however a known-zero page that has left its
// device is next reached — demand Ensure, prefetch then Ensure, Host, a
// p2p move, a bounce through the host — the reader sees +0 everywhere,
// and only the p2p move (a real copy of the resident zeros) uses a link.
func TestZeroPageReadsAsZeros(t *testing.T) {
	p2p := memory.Policy{DirtyTracking: true, P2P: true}
	for _, tc := range []struct {
		name  string
		pol   memory.Policy
		evict bool
		read  func(*VM, *tensor.Tensor) ([]float32, error)
		fills int // zero-fills beyond the set-up's one
	}{
		{"ensure", tracking, true, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Ensure(0, ts) }, 1},
		{"prefetch", tracking, true, func(vm *VM, ts *tensor.Tensor) ([]float32, error) {
			vm.EnsureAsync(0, ts)
			if err := vm.WaitIdle(); err != nil {
				return nil, err
			}
			if st := vm.StatsSnapshot(); st.PrefetchIssued != 1 || st.ZeroFills != 2 {
				return nil, fmt.Errorf("the prefetch lane did not fill the known-zero page: %+v", st)
			}
			return vm.Ensure(0, ts)
		}, 1},
		{"host-evicted", tracking, true, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Host(ts) }, 0},
		{"host-resident", tracking, false, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Host(ts) }, 0},
		{"p2p", p2p, false, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Ensure(1, ts) }, 0},
		{"bounce", tracking, false, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Ensure(1, ts) }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a, _, _ := vmTensors(t)
			vm := NewVM(2, 500, tc.pol)
			vm.StartEngine(400)
			defer vm.Close()
			zeroedPage(t, vm, 0, a)
			if tc.evict {
				evictAll(t, vm, 0)
			}
			got, err := tc.read(vm, a)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 100 {
				t.Fatalf("read %d floats, want 100", len(got))
			}
			if i, ok := bitZero(got); !ok {
				t.Fatalf("element %d reads %v", i, got[i])
			}
			st := vm.StatsSnapshot()
			if st.SwapIns != 0 || st.SwapOuts != 0 || st.SwapInBytes != 0 || st.SwapOutBytes != 0 {
				t.Fatalf("host link used: %+v", st)
			}
			if st.ZeroFills != 1+tc.fills || st.ZeroFillBytes != int64(1+tc.fills)*400 {
				t.Fatalf("zero-fills = %d (%d bytes), want %d", st.ZeroFills, st.ZeroFillBytes, 1+tc.fills)
			}
			if wantP2P := tc.pol.P2P; (st.P2PMoves == 1) != wantP2P {
				t.Fatalf("p2p moves = %d", st.P2PMoves)
			}
		})
	}
}

// TestHostAllocOfZeroPage: HostAlloc hands out a slice its caller may
// write, so on a known-zero page it must neither return the stale copy an
// earlier write-back left nor leave the page marked.
func TestHostAllocOfZeroPage(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	vm := NewVM(1, 500, tracking)
	vm.HostAlloc(a)[3] = 3
	buf, err := vm.Ensure(0, a)
	if err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if err := vm.MarkZero(a); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	host := vm.HostAlloc(a)
	if i, ok := bitZero(host); !ok {
		t.Fatalf("HostAlloc returned stale element %d = %v", i, host[i])
	}
	host[3] = 4
	if err := vm.Invalidate(a); err != nil {
		t.Fatal(err)
	}
	if buf, err = vm.Ensure(0, a); err != nil {
		t.Fatal(err)
	}
	if buf[3] != 4 {
		t.Fatalf("a write through HostAlloc's slice was lost to the mark: %v", buf[3])
	}
}

// TestFillZeroesWhateverItIsHanded pins fill's contract apart from the
// allocator's: the memset is fill's, not a property of the slice it was
// given. (Every device copy is fresh from make today, so without this a
// fill that skipped the memset would pass everything else.)
func TestFillZeroesWhateverItIsHanded(t *testing.T) {
	_, a, _, _ := vmTensors(t)
	vm := NewVM(1, 500, tracking)
	zeroedPage(t, vm, 0, a)
	b, _ := vm.lookup(a.ID)
	if !vm.claim(b, claimword.SwapIn, false, true, claimword.NeedUnpinned) {
		t.Fatal("claim failed")
	}
	for i := range b.dev {
		b.dev[i] = float32(math.NaN())
	}
	if err := vm.fill(xferIn, 0, b); err != nil {
		t.Fatal(err)
	}
	vm.settle(b, true, 0)
	if i, ok := bitZero(b.dev); !ok {
		t.Fatalf("fill left element %d = %v", i, b.dev[i])
	}
}

// TestMarkDirtyAndInvalidateClearZero: the mark lasts until the next
// write. After MarkDirty the page is written back and read back like any
// dirty page; after Invalidate the (externally overwritten) host copy
// wins. In both cases a VM that still believed the mark would hand back
// zeros.
func TestMarkDirtyAndInvalidateClearZero(t *testing.T) {
	t.Run("MarkDirty", func(t *testing.T) {
		_, a, _, _ := vmTensors(t)
		vm := NewVM(1, 500, tracking)
		zeroedPage(t, vm, 0, a)
		buf, err := vm.Ensure(0, a)
		if err != nil {
			t.Fatal(err)
		}
		buf[9] = 9
		if err := vm.MarkDirty(a); err != nil {
			t.Fatal(err)
		}
		if err := vm.Unpin(a); err != nil {
			t.Fatal(err)
		}
		evictAll(t, vm, 0)
		if st := vm.StatsSnapshot(); st.SwapOuts != 1 || st.Drops != 0 {
			t.Fatalf("a re-dirtied page was not written back: %+v", st)
		}
		buf, err = vm.Ensure(0, a)
		if err != nil {
			t.Fatal(err)
		}
		if buf[9] != 9 {
			t.Fatalf("the write after the mark was lost: %v", buf[9])
		}
	})
	t.Run("Invalidate", func(t *testing.T) {
		_, a, _, _ := vmTensors(t)
		vm := NewVM(1, 500, tracking)
		host := vm.HostAlloc(a)
		buf, err := vm.Ensure(0, a)
		if err != nil {
			t.Fatal(err)
		}
		clear(buf)
		if err := vm.MarkZero(a); err != nil {
			t.Fatal(err)
		}
		if err := vm.Unpin(a); err != nil {
			t.Fatal(err)
		}
		host[9] = 9
		if err := vm.Invalidate(a); err != nil {
			t.Fatal(err)
		}
		if buf, err = vm.Ensure(0, a); err != nil {
			t.Fatal(err)
		}
		if buf[9] != 9 {
			t.Fatalf("the host copy did not win after Invalidate: %v", buf[9])
		}
		if st := vm.StatsSnapshot(); st.ZeroFills != 0 || st.SwapIns != 2 {
			t.Fatalf("stats = %+v, want two real copies in and no zero-fill", st)
		}
	})
}

// TestVictimPrefersZeroPages: a known-zero page goes before an older
// clean one — it is the only victim that costs no transfer now and none
// later — even after a prefetch window has looked at it, unless a task
// holds it or a DMA has claimed it.
func TestVictimPrefersZeroPages(t *testing.T) {
	_, a, b, _ := vmTensors(t)
	vm := NewVM(1, 1000, tracking)
	vm.StartEngine(0)
	defer vm.Close()
	vm.HostAlloc(a)
	if _, err := vm.Ensure(0, a); err != nil { // older, clean
		t.Fatal(err)
	}
	if err := vm.Unpin(a); err != nil {
		t.Fatal(err)
	}
	zeroedPage(t, vm, 0, b) // newer, known zero
	ba, _ := vm.lookup(a.ID)
	bb, _ := vm.lookup(b.ID)
	sh := vm.shards[0]
	pick := func() *buffer {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		v, _ := vm.victim(sh)
		return v
	}
	if got := pick(); got != bb {
		t.Fatalf("victim = %v, want the known-zero page over the older clean one", got.t)
	}
	vm.EnsureAsync(0, a) // both resident: bumps a, must leave b where it is
	vm.EnsureAsync(0, b)
	if got := pick(); got != bb {
		t.Fatalf("victim = %v after a prefetch touch, want the known-zero page still", got.t)
	}
	if _, err := vm.Ensure(0, b); err != nil {
		t.Fatal(err)
	}
	if got := pick(); got != ba {
		t.Fatalf("victim = %v while the known-zero page is pinned", got.t)
	}
	if err := vm.Unpin(b); err != nil {
		t.Fatal(err)
	}
	if !vm.claim(bb, claimword.SwapOut, true, false, claimword.NeedUnpinned) {
		t.Fatal("claim failed")
	}
	if got := pick(); got != ba {
		t.Fatalf("victim = %v while the known-zero page is claimed", got.t)
	}
	vm.settle(bb, true, 0)
	// With no zero page left the order is plain LRU again.
	if _, err := vm.Ensure(0, b); err != nil {
		t.Fatal(err)
	}
	if err := vm.MarkDirty(b); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(b); err != nil {
		t.Fatal(err)
	}
	if got := pick(); got != ba {
		t.Fatalf("victim = %v, want the least-recently-used page", got.t)
	}
}

// TestZeroFillIsNotAFaultSite: a fault rule fires where a copy runs. The
// rule here is aimed at every swap of layer 3's gradient; in step 1 the
// buffer is evicted dirty in mid-accumulation and copied back (the rule
// fires on both copies), in step 2 it is evicted and refilled as a
// known-zero page (no copy, so nothing for the rule to fire on).
func TestZeroFillIsNotAFaultSite(t *testing.T) {
	reg := tensor.NewRegistry()
	dw := reg.New("dW3", tensor.WeightGrad, 400, 3, -1)
	inj, err := fault.Parse("op=swap-out,layer=3,mode=delay,delay=1us,count=0;op=swap-in,layer=3,mode=delay,delay=1us,count=0", 1)
	if err != nil {
		t.Fatal(err)
	}
	var fired []fault.Event
	inj.Observe(func(e fault.Event) { fired = append(fired, e) })
	step := 1
	vm := NewVM(1, 500, tracking)
	vm.SetFaultInjection(inj, 3, func() int { return step })

	vm.ZeroAlloc(dw)
	buf, err := vm.Ensure(0, dw) // born zero: a fill, not a copy
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 1 // the first microbatch accumulates
	if err := vm.MarkDirty(dw); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(dw); err != nil {
		t.Fatal(err)
	}
	evictAll(t, vm, 0)
	if buf, err = vm.Ensure(0, dw); err != nil { // the second comes back for it
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0].Op != fault.SwapOut || fired[1].Op != fault.SwapIn || fired[1].Step != 1 {
		t.Fatalf("step 1's dirty eviction and refetch fired %+v, want one swap-out and one swap-in", fired)
	}
	clear(buf) // the update
	if err := vm.MarkZero(dw); err != nil {
		t.Fatal(err)
	}
	if err := vm.Unpin(dw); err != nil {
		t.Fatal(err)
	}

	step = 2
	evictAll(t, vm, 0)
	if buf, err = vm.Ensure(0, dw); err != nil {
		t.Fatal(err)
	}
	if _, ok := bitZero(buf); !ok {
		t.Fatal("zero-fill is not zeros")
	}
	if len(fired) != 2 {
		t.Fatalf("a rule fired on a zero-fill or a drop: %+v", fired[2:])
	}
	if st := vm.StatsSnapshot(); st.ZeroFills != 2 || st.SwapIns != 1 || st.SwapOuts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBaselineMovesEveryByteItDid pins the naive per-GPU virtualization
// the paper measures against: with DirtyTracking off no page is ever
// known-zero, nothing is elided and victims go in plain LRU order, so a
// fixed-seed run on the serial executor moves exactly the bytes, in
// exactly as many copies, as it did before known-zero pages existed
// (counters read off commit aa03e4b).
func TestBaselineMovesEveryByteItDid(t *testing.T) {
	for _, tc := range []struct {
		mode sched.Mode
		opt  Optimizer
		want VMStats
	}{
		{sched.DPBaseline, SGD, VMStats{SwapInBytes: 567488, SwapOutBytes: 544128, SwapIns: 292, SwapOuts: 282}},
		{sched.DPBaseline, Adam, VMStats{SwapInBytes: 240192, SwapOutBytes: 202176, SwapIns: 108, SwapOuts: 96}},
		{sched.PPBaseline, SGD, VMStats{SwapInBytes: 132960, SwapOutBytes: 110912, SwapIns: 97, SwapOuts: 75}},
		{sched.PPBaseline, Adam, VMStats{SwapInBytes: 109856, SwapOutBytes: 73952, SwapIns: 66, SwapOuts: 41}},
	} {
		cfg := trainerConfig(tc.mode, 2)
		cfg.Serial = true
		cfg.Optimizer = tc.opt
		if tc.opt == Adam {
			cfg.DeviceBytes, cfg.LR = 20<<10, 0.005
		}
		tr, _ := runTrainer(t, cfg, 4)
		if got := tr.Stats(); got != tc.want {
			t.Errorf("%v, optimizer %d:\n got %+v\nwant %+v", tc.mode, tc.opt, got, tc.want)
		}
	}
}
