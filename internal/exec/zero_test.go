package exec

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"harmony/internal/claimword"
	"harmony/internal/fault"
	"harmony/internal/graph"
	"harmony/internal/memory"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
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

// stalePage makes gradient ts resident on dev the way an update leaves
// it: written, marked, unpinned, its bytes left as they were — here NaN.
func stalePage(t *testing.T, vm *VM, dev int, ts *tensor.Tensor) {
	t.Helper()
	vm.ZeroAlloc(ts)
	buf, err := vm.Ensure(dev, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
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
	filler := &tensor.Tensor{ID: 1 << 20, Kind: tensor.Workspace, Bytes: vm.capacity}
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

// TestStaleGradientBytesNeverReadBitIdentical is the reset rule checked
// end to end (DESIGN.md §9, "Known-zero pages"): an update leaves its
// gradient's bytes as they were and the step's first backward into it
// overwrites them unread, while every later one adds to what the step
// has written. Between steps every dW's device and host bytes, and
// every spare device slice a gradient's fill might be handed, are
// salted with NaN; per-step losses and the Save after every step must
// be bit-identical to an unsalted reference in which every dW has
// exactly one writer run a step — the roomy grouped harmony-dp or
// harmony-pp plan, which the other plans of its family match bit for
// bit. The rows cover harmony-dp, harmony-pp and both baselines (whose
// naive policy writes the stale bytes back and reads them in again),
// the serial and parallel executors, SGD and Adam, devices under swap
// pressure and roomy ones (where a gradient stays resident across
// steps), a chunked plan, and a harmony plan whose runs are narrowed to
// one task each. A baseline and a narrowed plan give every dW one
// writer run per microbatch, so a later writer that overwrote what the
// step had written shows there, and a first writer that added to the
// stale bytes shows everywhere.
func TestStaleGradientBytesNeverReadBitIdentical(t *testing.T) {
	const steps = 3
	type variant struct {
		name string
		set  func(c *TrainerConfig, narrow int64)
	}
	pressure := variant{"pressure", func(c *TrainerConfig, _ int64) {
		if c.Adam { // the moments need room beside the pins
			c.DeviceBytes = 20 << 10
		}
	}}
	roomy := variant{"roomy", func(*TrainerConfig, int64) {}}
	chunked := variant{"chunked", func(c *TrainerConfig, _ int64) { c.CommChunks = 2 }}
	narrowed := variant{"narrowed", func(c *TrainerConfig, narrow int64) { c.DeviceBytes = narrow }}
	for _, family := range []struct {
		harmony, baseline sched.Mode
	}{{sched.HarmonyDP, sched.DPBaseline}, {sched.HarmonyPP, sched.PPBaseline}} {
		for opt, adam := range []bool{false, true} {
			base := trainerConfig(family.harmony, 2)
			base.Adam, base.DeviceBytes = adam, 1<<30
			ref, err := NewTrainer(base, nil)
			if err != nil {
				t.Fatal(err)
			}
			if w := gradWriters(t, ref); w != 1 {
				t.Fatalf("%v: the reference has %d writer runs for a dW, want 1", family.harmony, w)
			}
			narrow := slices.Max(schedcheck.Check(ref.s, schedcheck.Topology{Devices: base.Devices, DeviceBytes: 1}).PeakPinBytes)
			var wantLoss []float32
			var wantSave [][]byte
			for s := 0; s < steps; s++ {
				loss, save := stepAndSave(t, ref, s)
				wantLoss, wantSave = append(wantLoss, loss), append(wantSave, save)
			}
			ref.Close()

			for _, mode := range []sched.Mode{family.harmony, family.baseline} {
				variants := []variant{pressure, roomy}
				if mode == family.harmony {
					variants = append(variants, narrowed)
				}
				if mode == sched.HarmonyDP || mode == sched.DPBaseline {
					variants = append(variants, chunked)
				}
				for _, v := range variants {
					for _, serial := range []bool{false, true} {
						cfg := trainerConfig(mode, 2)
						cfg.Adam, cfg.Serial, cfg.DeviceBytes = adam, serial, 1<<30
						if v.name == "pressure" {
							cfg.DeviceBytes = trainerConfig(mode, 2).DeviceBytes
						}
						v.set(&cfg, narrow)
						t.Run(fmt.Sprintf("%v/%s/opt%d/serial=%v", mode, v.name, opt, serial), func(t *testing.T) {
							tr, err := NewTrainer(cfg, nil)
							if err != nil {
								t.Fatal(err)
							}
							defer tr.Close()
							if w := gradWriters(t, tr); (v.name == "narrowed" || mode == family.baseline) && w < 2 {
								t.Fatalf("no dW has more than one writer run a step (%d)", w)
							}
							for s := 0; s < steps; s++ {
								saltGradients(tr)
								loss, save := stepAndSave(t, tr, s)
								if math.Float32bits(loss) != math.Float32bits(wantLoss[s]) {
									t.Fatalf("step %d: loss %v, reference %v", s+1, loss, wantLoss[s])
								}
								if !bytes.Equal(save, wantSave[s]) {
									t.Fatalf("step %d: Save differs from the reference's", s+1)
								}
							}
							if st := tr.Stats(); v.name == "pressure" && st.Drops+st.SwapOuts == 0 {
								t.Fatalf("nothing was evicted under pressure: %+v", st)
							}
						})
					}
				}
			}
		}
	}
}

// gradWriters checks that every backward run writing one dW is in one
// device's stream, and returns the most runs any dW has a step.
func gradWriters(t *testing.T, tr *Trainer) int {
	t.Helper()
	dev, runs := map[int]int{}, map[int]int{}
	most := 0
	for d, st := range tr.streams.Dev {
		for _, e := range st {
			if e.Task.Kind != graph.Backward {
				continue
			}
			id := e.Task.Inputs[1].ID
			if prev, ok := dev[id]; ok && prev != d {
				t.Fatalf("%s is written on gpu%d and gpu%d", e.Task.Inputs[1], prev, d)
			}
			dev[id], runs[id] = d, runs[id]+1
			most = max(most, runs[id])
		}
	}
	return most
}

// saltGradients overwrites, between steps, every byte a gradient holds
// — device copy and host backing — and every spare device slice with
// NaN.
func saltGradients(tr *Trainer) {
	nan := float32(math.NaN())
	fill := func(s []float32) {
		for i := range s {
			s[i] = nan
		}
	}
	for r := range tr.g.DW {
		for _, dw := range tr.g.DW[r] {
			if b, ok := tr.vm.lookup(dw.ID); ok {
				fill(b.dev)
				fill(b.host)
			}
		}
	}
	for _, sh := range tr.vm.shards {
		for _, st := range sh.spares {
			for _, s := range st.slices {
				fill(s)
			}
		}
	}
}

// stepAndSave runs step s of runTrainer's data stream and returns its
// loss and the checkpoint Save writes after it.
func stepAndSave(t *testing.T, tr *Trainer, s int) (float32, []byte) {
	t.Helper()
	loss := stepTrainer(t, tr, s, 1)[0]
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return loss, buf.Bytes()
}

// TestZeroPageEvictionMovesNothing: evicting a known-zero page is a
// drop — no link bytes, no write-back — that leaves no host copy
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
	vm.EnsureAsync(0, a) // back in through the prefetch lane
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	before := vm.StatsSnapshot()
	if before.SwapIns != 1 || before.SwapOuts != 1 {
		t.Fatalf("set-up: %+v, want one write-back and one copy in", before)
	}
	// The prefetched copy is never demanded: a mark set by whoever holds
	// the pin is what the test is about, so pin without consuming it.
	if !ab.Pin(ab.Load()) {
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
	if ab.host != nil || ab.dev != nil {
		t.Fatal("an evicted known-zero page still holds memory")
	}
}

// TestZeroPageReadsAsZeros: however a known-zero page that has left its
// device is next reached — demand Ensure, prefetch then Ensure, Read, a
// p2p move, a bounce through the host — the reader sees +0 everywhere,
// and only the p2p move (a real copy of the resident zeros) uses a link.
// Read leaves the page known-zero, with no host copy. A gradient's
// device bytes are its next backward's, not zeros (an update leaves its
// gradient as it was): Read of a resident one salted with NaN must
// still give +0s.
func TestZeroPageReadsAsZeros(t *testing.T) {
	p2p := memory.Policy{DirtyTracking: true, P2P: true}
	read := func(vm *VM, ts *tensor.Tensor) ([]float32, error) {
		dst := make([]float32, ts.Bytes/4)
		for i := range dst {
			dst[i] = -1 // a Read that writes nothing shows
		}
		if err := vm.Read(ts, dst); err != nil {
			return nil, err
		}
		if b, _ := vm.lookup(ts.ID); b.state.Load() != pageZero || b.host != nil {
			return nil, fmt.Errorf("Read changed the page: state %d, host copy %v", b.state.Load(), b.host != nil)
		}
		return dst, nil
	}
	for _, tc := range []struct {
		name  string
		pol   memory.Policy
		evict bool
		read  func(*VM, *tensor.Tensor) ([]float32, error)
		fills int // zero-fills beyond the set-up's one
		grad  bool
	}{
		{"ensure", tracking, true, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Ensure(0, ts) }, 1, false},
		{"prefetch", tracking, true, func(vm *VM, ts *tensor.Tensor) ([]float32, error) {
			vm.EnsureAsync(0, ts)
			if err := vm.WaitIdle(); err != nil {
				return nil, err
			}
			if st := vm.StatsSnapshot(); st.PrefetchIssued != 1 || st.ZeroFills != 2 {
				return nil, fmt.Errorf("the prefetch lane did not fill the known-zero page: %+v", st)
			}
			return vm.Ensure(0, ts)
		}, 1, false},
		{"read-evicted", tracking, true, read, 0, false},
		{"read-resident", tracking, false, read, 0, false},
		{"read-resident-grad", tracking, false, read, 0, true},
		{"p2p", p2p, false, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Ensure(1, ts) }, 0, false},
		{"bounce", tracking, false, func(vm *VM, ts *tensor.Tensor) ([]float32, error) { return vm.Ensure(1, ts) }, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a, _, _ := vmTensors(t)
			vm := NewVM(2, 500, tc.pol)
			vm.StartEngine(400)
			defer vm.Close()
			if tc.grad {
				a = &tensor.Tensor{ID: a.ID, Kind: tensor.WeightGrad, Bytes: a.Bytes}
				stalePage(t, vm, 0, a)
			} else {
				zeroedPage(t, vm, 0, a)
			}
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
// given — which is usually a spare still holding another page's floats.
// A known-zero gradient is the exception: its next backward overwrites
// it unread, so its fill writes nothing and is still counted as a
// zero-fill.
func TestFillZeroesWhateverItIsHanded(t *testing.T) {
	for _, kind := range []tensor.Kind{tensor.Weight, tensor.OptState, tensor.WeightGrad} {
		t.Run(kind.String(), func(t *testing.T) {
			a := &tensor.Tensor{ID: 1, Kind: kind, Bytes: 400}
			vm := NewVM(1, 500, tracking)
			zeroedPage(t, vm, 0, a)
			b, _ := vm.lookup(a.ID)
			if !b.Claim(true, claimword.NeedUnpinned) {
				t.Fatal("claim failed")
			}
			for i := range b.dev {
				b.dev[i] = float32(math.NaN())
			}
			before := vm.StatsSnapshot().ZeroFills
			if err := vm.fill(xferIn, 0, b); err != nil {
				t.Fatal(err)
			}
			b.Settle(true, 0)
			if got := vm.StatsSnapshot().ZeroFills; got != before+1 {
				t.Fatalf("zero-fills %d, want %d", got, before+1)
			}
			i, ok := bitZero(b.dev)
			if kind == tensor.WeightGrad {
				if ok || !math.IsNaN(float64(b.dev[0])) {
					t.Fatal("the fill of a known-zero gradient wrote its bytes")
				}
				return
			}
			if !ok {
				t.Fatalf("fill left element %d = %v", i, b.dev[i])
			}
		})
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
	if !bb.Claim(true, claimword.NeedUnpinned) {
		t.Fatal("claim failed")
	}
	if got := pick(); got != ba {
		t.Fatalf("victim = %v while the known-zero page is claimed", got.t)
	}
	bb.Settle(true, 0)
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
	dw := reg.Add(tensor.WeightGrad, 400, 3, -1)
	inj, err := fault.Parse("op=swap-out,layer=3,mode=delay,delay=1us,count=0;op=swap-in,layer=3,mode=delay,delay=1us,count=0", 1)
	if err != nil {
		t.Fatal(err)
	}
	var fired []fault.Event
	inj.Observe(func(e fault.Event) { fired = append(fired, e) })
	step := 1
	vm := NewVM(1, 500, tracking)
	vm.cfg.inj, vm.cfg.maxRetries, vm.cfg.stepFn = inj, 3, func() int { return step }

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
// (counters read off commit aa03e4b). The DPBaseline SGD row was
// re-pinned when the serial executor began draining the woven streams
// (sched.Streams.Replay): it once reduced each collective the moment
// its gradients were ready, ahead of the update order the plan weaves,
// and now moves what the parallel executor moves on the same plan.
func TestBaselineMovesEveryByteItDid(t *testing.T) {
	for _, tc := range []struct {
		mode sched.Mode
		adam bool
		want VMStats
	}{
		{sched.DPBaseline, false, VMStats{SwapInBytes: 529472, SwapOutBytes: 506112, SwapIns: 276, SwapOuts: 266}},
		{sched.DPBaseline, true, VMStats{SwapInBytes: 240192, SwapOutBytes: 202176, SwapIns: 108, SwapOuts: 96}},
		{sched.PPBaseline, false, VMStats{SwapInBytes: 132960, SwapOutBytes: 110912, SwapIns: 97, SwapOuts: 75}},
		{sched.PPBaseline, true, VMStats{SwapInBytes: 109856, SwapOutBytes: 73952, SwapIns: 66, SwapOuts: 41}},
	} {
		cfg := trainerConfig(tc.mode, 2)
		cfg.Serial = true
		cfg.Adam = tc.adam
		if tc.adam {
			cfg.DeviceBytes, cfg.LR = 20<<10, 0.005
		}
		tr, _ := runTrainer(t, cfg, 4)
		if got := tr.Stats(); got != tc.want {
			t.Errorf("%v, Adam %v:\n got %+v\nwant %+v", tc.mode, tc.adam, got, tc.want)
		}
	}
}
