package memory

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"harmony/internal/hw"
	"harmony/internal/sim"
	"harmony/internal/tensor"
)

// rig builds a 2-GPU box with the given per-GPU capacity and a
// registry the test fills in.
type rig struct {
	eng *sim.Engine
	top *hw.Topology
	reg *tensor.Registry
}

func newRig(t *testing.T, capacity int64) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := hw.Commodity1080TiBox(2)
	cfg.GPUMemBytes = capacity
	top, err := hw.NewBox(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, top: top, reg: tensor.NewRegistry()}
}

func (r *rig) run(t *testing.T, m *Manager) {
	t.Helper()
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

func acquireSync(t *testing.T, m *Manager, dev hw.DeviceID, in, out []*tensor.Tensor, ws int64) *bool {
	t.Helper()
	done := new(bool)
	m.Acquire(dev, in, out, ws, func() { *done = true }, func(err error) { t.Errorf("acquire failed: %v", err) })
	return done
}

func TestAcquireSwapsInFromHost(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.Add(tensor.Weight, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(w); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("acquire never granted")
	}
	st := m.State(w)
	if !st.OnDevice(0) || st.Pins != 1 {
		t.Fatalf("state after acquire: loc=%s pins=%d", st.Loc, st.Pins)
	}
	s := m.Stats(0)
	if s.SwapInBytes != 400 || s.SwapIns != 1 {
		t.Fatalf("stats = %+v, want one 400B swap-in", s)
	}
	if m.Used(0) != 400 {
		t.Fatalf("used = %d", m.Used(0))
	}
}

func TestAcquireResidentIsInstant(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.Add(tensor.Weight, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(w); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{w}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	tBefore := r.eng.Now()
	done := acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	if !*done {
		t.Fatal("re-acquire of resident tensor should grant synchronously")
	}
	r.run(t, m)
	if r.eng.Now() != tBefore {
		t.Fatal("re-acquire should consume no simulated time")
	}
	if s := m.Stats(0); s.SwapIns != 1 {
		t.Fatalf("swap-ins = %d, want 1 (no re-swap)", s.SwapIns)
	}
}

func TestEvictionWritebackWithoutDirtyTracking(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 600, 0, -1)
	b := r.reg.Add(tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{}) // naive: always write back
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	// b doesn't fit alongside a: a must be evicted, and naive
	// virtualization writes it back even though it is clean.
	done := acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("acquire of b never granted")
	}
	s := m.Stats(0)
	if s.SwapOutBytes != 600 || s.SwapOuts != 1 {
		t.Fatalf("stats = %+v, want one 600B writeback", s)
	}
	if s.Drops != 0 {
		t.Fatal("naive policy must not drop")
	}
	if m.Used(0) != 600 {
		t.Fatalf("used = %d, want 600 (only b)", m.Used(0))
	}
}

func TestEvictionDropWithDirtyTracking(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 600, 0, -1)
	b := r.reg.Add(tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("acquire of b never granted")
	}
	s := m.Stats(0)
	if s.SwapOuts != 0 {
		t.Fatalf("clean tensor was written back: %+v", s)
	}
	if s.DropBytes != 600 || s.Drops != 1 {
		t.Fatalf("stats = %+v, want one 600B drop", s)
	}
}

func TestDirtyTensorAlwaysWrittenBack(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 600, 0, -1)
	b := r.reg.Add(tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	// Task mutated a (e.g. a weight update).
	if err := m.Release(0, []*tensor.Tensor{a}, nil, []*tensor.Tensor{a}, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	s := m.Stats(0)
	if s.SwapOutBytes != 600 {
		t.Fatalf("dirty eviction must write back: %+v", s)
	}
	if !m.State(a).HostValid() {
		t.Fatal("host copy should be valid after writeback")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 400, 0, -1)
	b := r.reg.Add(tensor.Weight, 400, 1, -1)
	c := r.reg.Add(tensor.Weight, 400, 2, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(a, b, c); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a, b}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a, b}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Touch a by re-acquiring it; b becomes LRU.
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{c}, nil, 0)
	r.run(t, m)
	if m.State(b).OnAnyDevice() {
		t.Fatal("b (LRU) should have been evicted")
	}
	if !m.State(a).OnDevice(0) {
		t.Fatal("a (recently used) should have survived")
	}
}

func TestP2PMigration(t *testing.T) {
	r := newRig(t, 1000)
	x := r.reg.Add(tensor.Activation, 500, 0, 0)
	m := New(r.eng, r.top, r.reg, Policy{P2P: true, DirtyTracking: true})
	if err := m.InitHost(x); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	// Mark dirty (produced on gpu0) and release.
	if err := m.Release(0, []*tensor.Tensor{x}, nil, []*tensor.Tensor{x}, nil, 0); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 1, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("cross-device acquire never granted")
	}
	if !m.State(x).OnDevice(1) {
		t.Fatal("x should now be on gpu1")
	}
	s0, s1 := m.Stats(0), m.Stats(1)
	if s0.P2POutBytes != 500 || s1.P2PInBytes != 500 {
		t.Fatalf("p2p bytes: out=%d in=%d, want 500/500", s0.P2POutBytes, s1.P2PInBytes)
	}
	if s0.SwapOutBytes != 0 || s1.SwapInBytes > 500 {
		t.Fatalf("p2p move should not bounce through host: %+v %+v", s0, s1)
	}
	if m.Used(0) != 0 || m.Used(1) != 500 {
		t.Fatalf("used = %d/%d", m.Used(0), m.Used(1))
	}
}

// TestMigrationPulledAwayIsRetried: gpu1's acquire starts x's move
// over, gpu0's acquire waits for it to land and pulls x back first.
// Once gpu0 releases x, gpu1's acquire must move it again, not wait
// for the move it already made.
func TestMigrationPulledAwayIsRetried(t *testing.T) {
	r := newRig(t, 1000)
	x := r.reg.Add(tensor.Activation, 500, 0, 0)
	m := New(r.eng, r.top, r.reg, Policy{P2P: true, DirtyTracking: true})
	if err := m.InitHost(x); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{x}, nil, []*tensor.Tensor{x}, nil, 0); err != nil {
		t.Fatal(err)
	}
	on1 := acquireSync(t, m, 1, []*tensor.Tensor{x}, nil, 0)
	if !m.State(x).InFlight {
		t.Fatal("gpu1's acquire did not start moving x")
	}
	on0 := acquireSync(t, m, 0, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if !*on0 || *on1 {
		t.Fatalf("granted on gpu0=%v, gpu1=%v; want gpu0 only", *on0, *on1)
	}
	if err := m.Release(0, []*tensor.Tensor{x}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	r.run(t, m)
	if st := m.State(x); !*on1 || !st.OnDevice(1) || st.Pins != 1 {
		t.Fatalf("gpu1's acquire granted=%v, x on %s, pins %d", *on1, st.Dev, st.Pins)
	}
}

func TestHostBounceWithoutP2P(t *testing.T) {
	r := newRig(t, 1000)
	x := r.reg.Add(tensor.Activation, 500, 0, 0)
	m := New(r.eng, r.top, r.reg, Policy{P2P: false})
	if err := m.InitHost(x); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{x}, nil, []*tensor.Tensor{x}, nil, 0); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 1, []*tensor.Tensor{x}, nil, 0)
	r.run(t, m)
	if !*done {
		t.Fatal("cross-device acquire never granted")
	}
	s0, s1 := m.Stats(0), m.Stats(1)
	if s0.SwapOutBytes != 500 {
		t.Fatalf("expected writeback from gpu0, got %+v", s0)
	}
	if s1.SwapInBytes != 500+500 && s1.SwapInBytes != 500 {
		// First swap-in (500) plus the bounce swap-in (500) — the
		// initial acquire counted on gpu0, so gpu1 sees exactly 500.
		t.Fatalf("expected swap-in on gpu1, got %+v", s1)
	}
	if s0.P2POutBytes != 0 && s1.P2PInBytes != 0 {
		t.Fatal("p2p used despite being disabled")
	}
}

func TestOutputsAndWorkspace(t *testing.T) {
	r := newRig(t, 1000)
	in := r.reg.Add(tensor.Activation, 300, 0, 0)
	out := r.reg.Add(tensor.Activation, 300, 1, 0)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(in); err != nil {
		t.Fatal(err)
	}
	done := acquireSync(t, m, 0, []*tensor.Tensor{in}, []*tensor.Tensor{out}, 200)
	r.run(t, m)
	if !*done {
		t.Fatal("not granted")
	}
	if !m.State(out).OnDevice(0) || !m.State(out).Dirty() {
		t.Fatal("output should be device-allocated and dirty")
	}
	if m.Used(0) != 600 {
		t.Fatalf("used = %d, want 600", m.Used(0))
	}
	// Free the input (its last use), keep the output.
	if err := m.Release(0, []*tensor.Tensor{in}, []*tensor.Tensor{out}, nil, []*tensor.Tensor{in}, 200); err != nil {
		t.Fatal(err)
	}
	if m.Used(0) != 300 {
		t.Fatalf("used after release = %d, want 300", m.Used(0))
	}
	if m.State(in).Loc != tensor.LocNone {
		t.Fatal("freed input should be gone")
	}
}

func TestInfeasibleTaskFails(t *testing.T) {
	r := newRig(t, 1000)
	big := r.reg.Add(tensor.Weight, 2000, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(big); err != nil {
		t.Fatal(err)
	}
	var failed error
	m.Acquire(0, []*tensor.Tensor{big}, nil, 0, func() { t.Error("granted impossible acquire") },
		func(err error) { failed = err })
	if failed == nil {
		t.Fatal("expected synchronous feasibility failure")
	}
}

func TestUnmaterializedInputFails(t *testing.T) {
	r := newRig(t, 1000)
	ghost := r.reg.Add(tensor.Activation, 100, 0, 0)
	m := New(r.eng, r.top, r.reg, Policy{})
	var failed error
	m.Acquire(0, []*tensor.Tensor{ghost}, nil, 0, func() { t.Error("granted") }, func(err error) { failed = err })
	if _, err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if failed == nil {
		t.Fatal("expected failure for never-materialized input")
	}
}

func TestPrefetch(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.Add(tensor.Weight, 400, 0, -1)
	big := r.reg.Add(tensor.Weight, 900, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(w, big); err != nil {
		t.Fatal(err)
	}
	m.Prefetch(0, w)
	r.run(t, m)
	if !m.State(w).OnDevice(0) {
		t.Fatal("prefetch should have landed")
	}
	// No room for big without eviction: prefetch must do nothing.
	m.Prefetch(0, big)
	r.run(t, m)
	if m.State(big).OnAnyDevice() {
		t.Fatal("prefetch must never evict")
	}
	// Acquire of a prefetched (unpinned, clean) tensor is free.
	done := acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
	if !*done {
		t.Fatal("acquire of prefetched tensor should be instant")
	}
}

func TestDemandAccounting(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 800, 0, -1)
	b := r.reg.Add(tensor.Weight, 800, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	// Both tensors belong to gpu0's working set even though only one
	// fits: demand (1600) exceeds capacity (1000) — the Fig. 2(c)
	// "memory usage above capacity" signal.
	if got := m.Stats(0).HighWaterDemand; got != 1600 {
		t.Fatalf("HighWaterDemand = %d, want 1600", got)
	}
	if got := m.Stats(0).HighWaterUsed; got > 1000 {
		t.Fatalf("HighWaterUsed = %d exceeds capacity", got)
	}
}

func TestLookaheadEvictionPicksFarthestUse(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 400, 0, -1)
	b := r.reg.Add(tensor.Weight, 400, 1, -1)
	c := r.reg.Add(tensor.Weight, 400, 2, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true, Lookahead: true})
	// Oracle: a is needed soon (position 1), b much later (position
	// 99). LRU would evict a (older); lookahead must evict b.
	m.NextUse = func(id int, dev hw.DeviceID) int {
		switch id {
		case a.ID:
			return 1
		case b.ID:
			return 99
		}
		return 1 << 30
	}
	if err := m.InitHost(a, b, c); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{b}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Pressure: c needs a slot; a is LRU but needed sooner.
	acquireSync(t, m, 0, []*tensor.Tensor{c}, nil, 0)
	r.run(t, m)
	if m.State(b).OnAnyDevice() {
		t.Fatal("lookahead should have evicted b (farthest next use)")
	}
	if !m.State(a).OnDevice(0) {
		t.Fatal("a (needed soon) should have survived")
	}
}

func TestLookaheadFallsBackToLRUWithoutOracle(t *testing.T) {
	r := newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 600, 0, -1)
	b := r.reg.Add(tensor.Weight, 600, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true, Lookahead: true})
	// No NextUse installed: plain LRU must still work.
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{a}, nil, 0)
	r.run(t, m)
	if err := m.Release(0, []*tensor.Tensor{a}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, []*tensor.Tensor{b}, nil, 0)
	r.run(t, m)
	if m.State(a).OnAnyDevice() {
		t.Fatal("LRU fallback should have evicted a")
	}
}

// Fuzz-style property test: a random but legal sequence of acquires
// and releases never violates the manager's core invariants — usage
// never exceeds capacity, accounting matches residency, and every
// request eventually completes. The draws are seeded, so tier-1 is the
// same run every time; the named cases are inputs on which an earlier
// generator asked for a tensor on one device while its acquire on the
// other was still queued, and the two requests stole it from each
// other until go test's timeout.
func TestManagerRandomWorkloadInvariants(t *testing.T) {
	f := func(seed int64, opsRaw uint8, dirty, p2p bool) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		eng.Limit = 100_000 // a livelock fails here, on quick's "failed on input" line
		cfg := hw.Commodity1080TiBox(2)
		cfg.GPUMemBytes = 2000
		top, err := hw.NewBox(eng, cfg)
		if err != nil {
			return false
		}
		reg := tensor.NewRegistry()
		var tensors []*tensor.Tensor
		for i := 0; i < 6; i++ {
			tensors = append(tensors, reg.Add(tensor.Weight, int64(200+rng.Intn(400)), i, -1))
		}
		m := New(eng, top, reg, Policy{DirtyTracking: dirty, P2P: p2p})
		if err := m.InitHost(tensors...); err != nil {
			return false
		}
		type held struct {
			dev hw.DeviceID
			t   *tensor.Tensor
			mut bool
		}
		var holds []held
		busy := make(map[*tensor.Tensor]bool) // requested and not yet released
		granted := 0
		wanted := 0
		ops := int(opsRaw%30) + 5
		for i := 0; i < ops; i++ {
			if len(holds) > 0 && rng.Intn(2) == 0 {
				// Release a random hold.
				k := rng.Intn(len(holds))
				h := holds[k]
				holds = append(holds[:k], holds[k+1:]...)
				delete(busy, h.t)
				var muts []*tensor.Tensor
				if h.mut {
					muts = []*tensor.Tensor{h.t}
				}
				if err := m.Release(h.dev, []*tensor.Tensor{h.t}, nil, muts, nil, 0); err != nil {
					t.Logf("release: %v", err)
					return false
				}
				continue
			}
			// Acquire a tensor neither held nor waited for (wanting
			// the same tensor twice on different devices would
			// deadlock by design — a task conflict the scheduler never
			// creates).
			cand := tensors[rng.Intn(len(tensors))]
			if busy[cand] {
				continue
			}
			dev := hw.DeviceID(rng.Intn(2))
			mut := rng.Intn(2) == 0
			wanted++
			h := held{dev: dev, t: cand, mut: mut}
			busy[cand] = true
			m.Acquire(dev, []*tensor.Tensor{cand}, nil, 0, func() {
				granted++
				holds = append(holds, h)
			}, func(err error) {
				t.Logf("acquire failed: %v", err)
			})
			if _, err := eng.Run(); err != nil {
				return false
			}
			if m.Err() != nil {
				t.Logf("fatal: %v", m.Err())
				return false
			}
			// Invariants after every settled step.
			for d := 0; d < 2; d++ {
				var resident int64
				for _, tt := range tensors {
					st := m.State(tt)
					if st.OnDevice(hw.DeviceID(d)) && !st.InFlight {
						resident += tt.Bytes
					}
				}
				if used := m.Used(hw.DeviceID(d)); used > cfg.GPUMemBytes {
					t.Logf("device %d over capacity: %d", d, used)
					return false
				} else if used != resident {
					t.Logf("device %d used=%d but resident=%d", d, used, resident)
					return false
				}
			}
		}
		// Drain outstanding work: release every hold, including those
		// granted while the drain runs.
		for {
			drain := holds
			holds = nil
			for _, h := range drain {
				var muts []*tensor.Tensor
				if h.mut {
					muts = []*tensor.Tensor{h.t}
				}
				if err := m.Release(h.dev, []*tensor.Tensor{h.t}, nil, muts, nil, 0); err != nil {
					return false
				}
			}
			if _, err := eng.Run(); err != nil {
				return false
			}
			if len(holds) == 0 {
				break
			}
		}
		// Freeing every tensor, resident or not, empties both devices.
		for _, tt := range tensors {
			if err := m.FreeTensor(tt); err != nil {
				t.Logf("free %s: %v", tt, err)
				return false
			}
		}
		for d := 0; d < 2; d++ {
			if used := m.Used(hw.DeviceID(d)); used != 0 {
				t.Logf("device %d still holds %d bytes after freeing every tensor", d, used)
				return false
			}
		}
		return granted == wanted && m.Err() == nil
	}
	for _, c := range []struct {
		seed       int64
		ops        uint8
		dirty, p2p bool
	}{
		{-5206971755474102141, 0x59, false, false},
		{4539929807818900944, 0x4a, true, true},
		{8228412490955372308, 0x59, true, true},
		{1295111333329180313, 0xde, true, true},
		{-260292641719306718, 0xb2, true, false},
		{-8907179352239023119, 0x6c, false, false},
	} {
		if !f(c.seed, c.ops, c.dirty, c.p2p) {
			t.Errorf("failed on input %d, %#x, %v, %v", c.seed, c.ops, c.dirty, c.p2p)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireRejectsDuplicateInput pins what a tensor named twice means.
// With bookkeeping keyed by tensor ID the second mention was skipped —
// one pin, granted — and the matching Release of the same list then
// failed on the second Unpin; the feasibility check counted the bytes
// twice. Positional bookkeeping would pin twice instead. Neither is
// what a task means, so the request is refused up front.
func TestAcquireRejectsDuplicateInput(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.Add(tensor.Weight, 400, 0, -1)
	other := r.reg.Add(tensor.Weight, 100, 1, -1)
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(w, other); err != nil {
		t.Fatal(err)
	}
	var failed error
	m.Acquire(0, []*tensor.Tensor{w, other, w}, nil, 0,
		func() { t.Error("duplicate input granted") },
		func(err error) { failed = err })
	if failed == nil || !strings.Contains(failed.Error(), "twice") {
		t.Fatalf("fail = %v, want an error saying the input is listed twice", failed)
	}
	r.run(t, m)
	if st := m.State(w); st.Pins != 0 || st.OnAnyDevice() || m.Stats(0).SwapIns != 0 {
		t.Fatalf("refused acquire left pins=%d loc=%s swap-ins=%d", st.Pins, st.Loc, m.Stats(0).SwapIns)
	}
	// The device is not wedged behind the refused request.
	done := acquireSync(t, m, 0, []*tensor.Tensor{w, other}, nil, 0)
	r.run(t, m)
	if !*done || m.State(w).Pins != 1 {
		t.Fatalf("follow-up acquire: granted=%v pins=%d", *done, m.State(w).Pins)
	}
	if err := m.Release(0, []*tensor.Tensor{w, other}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchRacingAcquire: an Acquire that finds its input already in
// flight on behalf of a Prefetch (which has no acquire to report to)
// waits for that copy instead of starting a second one, in either order.
func TestPrefetchRacingAcquire(t *testing.T) {
	for _, prefetchFirst := range []bool{true, false} {
		r := newRig(t, 1000)
		w := r.reg.Add(tensor.Weight, 400, 0, -1)
		m := New(r.eng, r.top, r.reg, Policy{})
		if err := m.InitHost(w); err != nil {
			t.Fatal(err)
		}
		var done *bool
		if prefetchFirst {
			m.Prefetch(0, w)
			done = acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
		} else {
			done = acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0)
			m.Prefetch(0, w)
		}
		if *done {
			t.Fatalf("prefetchFirst=%v: granted before the copy landed", prefetchFirst)
		}
		r.run(t, m)
		want, err := r.top.TransferTime(hw.Host, 0, 400)
		if err != nil {
			t.Fatal(err)
		}
		st, s := m.State(w), m.Stats(0)
		if !*done || st.Pins != 1 || !st.OnDevice(0) || s.SwapIns != 1 || s.SwapInBytes != 400 || m.Used(0) != 400 || r.eng.Now() != want {
			t.Fatalf("prefetchFirst=%v: granted=%v pins=%d loc=%s swap-ins=%d (%d B) used=%d t=%v, want one 400 B copy landing at %v",
				prefetchFirst, *done, st.Pins, st.Loc, s.SwapIns, s.SwapInBytes, m.Used(0), r.eng.Now(), want)
		}
		if err := m.Release(0, []*tensor.Tensor{w}, nil, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentFreeAndStats frees resident tensors from four event
// streams firing at the same simulated instants, reading the stats
// between frees. The Manager runs on the engine's goroutine, so
// "concurrent" is simulated time: every free must return exactly its
// bytes, and freeing them all must bring the device back to empty.
func TestConcurrentFreeAndStats(t *testing.T) {
	const (
		n       = 64
		streams = 4
		size    = 256
	)
	r := newRig(t, 1<<20)
	var ts []*tensor.Tensor
	for i := 0; i < n; i++ {
		ts = append(ts, r.reg.Add(tensor.Activation, size, 0, -1))
	}
	m := New(r.eng, r.top, r.reg, Policy{})
	if err := m.InitHost(ts...); err != nil {
		t.Fatal(err)
	}
	acquireSync(t, m, 0, ts, nil, 0)
	r.run(t, m)
	if err := m.Release(0, ts, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if used := m.Used(0); used != n*size {
		t.Fatalf("device 0 holds %d bytes before frees, want %d", used, n*size)
	}
	start := r.eng.Now()
	freed := 0
	for w := 0; w < streams; w++ {
		for i := w; i < n; i += streams {
			i := i
			r.eng.At(start+sim.Time(i/streams), func() {
				before := m.Used(0)
				if err := m.FreeTensor(ts[i]); err != nil {
					t.Errorf("free %d: %v", i, err)
					return
				}
				freed++
				if got := before - m.Used(0); got != size {
					t.Errorf("free %d released %d bytes, want %d", i, got, size)
				}
				if s := m.Stats(0); s.SwapOuts != 0 || s.Drops != 0 {
					t.Errorf("free %d counted as an eviction: %+v", i, s)
				}
			})
		}
	}
	r.run(t, m)
	if freed != n {
		t.Fatalf("freed %d/%d tensors", freed, n)
	}
	if used := m.Used(0); used != 0 {
		t.Fatalf("device 0 still holds %d bytes after frees", used)
	}
	for _, tn := range ts {
		if st := m.State(tn); st.Loc != tensor.LocNone {
			t.Fatalf("tensor %s still at %s after its free", tn, st.Loc)
		}
	}
}

// TestAcquireReleaseAllocs: a resident tensor's Acquire+Release takes
// the acquire record the previous grant left on the free list, and an
// acquire that writes one tensor back and swaps another in also reuses
// transfer records and the engine's joins: once warm, neither allocates.
func TestAcquireReleaseAllocs(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.Add(tensor.Weight, 400, 0, -1)
	k := r.reg.Add(tensor.OptState, 400, 0, -1)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(w, k); err != nil {
		t.Fatal(err)
	}
	in := []*tensor.Tensor{w, k}
	ready, fail := func() {}, func(error) {}
	m.Acquire(0, in, nil, 0, ready, fail)
	r.run(t, m)
	if err := m.Release(0, in, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		m.Acquire(0, in, nil, 0, ready, fail)
		if err := m.Release(0, in, nil, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resident Acquire+Release: %v allocs, want 0", n)
	}

	// a and b do not fit together, and each is released dirty: every
	// acquire writes the other back and swaps its own tensor in.
	r = newRig(t, 1000)
	a := r.reg.Add(tensor.Weight, 600, 0, -1)
	b := r.reg.Add(tensor.Weight, 600, 1, -1)
	m = New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(a, b); err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		for _, x := range [][]*tensor.Tensor{{a}, {b}} {
			m.Acquire(0, x, nil, 0, ready, fail)
			if _, err := r.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if err := m.Release(0, x, nil, x, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip()
	roundTrip()
	before := m.Stats(0)
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("evict + swap-in round trip: %v allocs, want 0", n)
	}
	if s := m.Stats(0); s.SwapIns-before.SwapIns != 2*101 || s.SwapOuts-before.SwapOuts != 2*101 || m.Err() != nil {
		t.Fatalf("%d swap-ins and %d writebacks over 101 round trips (err %v), want 2 each per trip",
			s.SwapIns-before.SwapIns, s.SwapOuts-before.SwapOuts, m.Err())
	}
}

// TestFailedAcquireIsNeverRecycled: an acquire that fails while a
// swap-in it issued is still in flight stays off the free list, and the
// swap-in lands all the same. Granted records are reused, and the
// acquires that follow complete with the right stats.
func TestFailedAcquireIsNeverRecycled(t *testing.T) {
	r := newRig(t, 1000)
	w := r.reg.Add(tensor.Weight, 400, 0, -1)
	k := r.reg.Add(tensor.Weight, 300, 1, -1)
	y := r.reg.Add(tensor.Weight, 800, 2, -1) // k and y never fit together
	ghost := r.reg.Add(tensor.Activation, 100, 3, 0)
	m := New(r.eng, r.top, r.reg, Policy{DirtyTracking: true})
	if err := m.InitHost(w, k, y); err != nil {
		t.Fatal(err)
	}
	// Warm the free list with one granted record.
	acquireSync(t, m, 1, []*tensor.Tensor{k}, nil, 0)
	r.run(t, m)
	if err := m.Release(1, []*tensor.Tensor{k}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(m.acqs) != 1 {
		t.Fatalf("%d free acquire records after one grant, want 1", len(m.acqs))
	}

	// w's swap-in starts, then ghost, never materialized, fails the
	// acquire.
	var failed error
	m.Acquire(0, []*tensor.Tensor{w, ghost}, nil, 0, func() { t.Error("granted") }, func(err error) { failed = err })
	if failed == nil || !strings.Contains(failed.Error(), "never materialized") {
		t.Fatalf("fail = %v, want the never-materialized input", failed)
	}
	bad := m.devs[0].queue[0]
	if !bad.failed || !m.State(w).InFlight {
		t.Fatalf("failed record: failed=%v, w in flight=%v", bad.failed, m.State(w).InFlight)
	}
	// An acquire queued while that swap-in is in flight.
	queue := func(dev hw.DeviceID, tn *tensor.Tensor) *bool {
		done := acquireSync(t, m, dev, []*tensor.Tensor{tn}, nil, 0)
		if q := m.devs[dev].queue; len(q) != 1 || q[0] == bad {
			t.Fatalf("acquire of %s on %s: queue %v, failed record %p", tn, dev, q, bad)
		}
		return done
	}
	done := queue(1, y)
	r.run(t, m)
	if !*done || slices.Contains(m.acqs, bad) {
		t.Fatalf("granted=%v, failed record on the free list=%v", *done, slices.Contains(m.acqs, bad))
	}
	if st := m.State(w); !st.OnDevice(0) || st.InFlight || st.Pins != 0 {
		t.Fatalf("w after the failed acquire: loc=%s inflight=%v pins=%d, want resident, unpinned", st.Loc, st.InFlight, st.Pins)
	}
	if err := m.Release(1, []*tensor.Tensor{y}, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}

	// Later acquires reuse granted records, never the failed one: w stays
	// resident on device 0, and k and y evict each other on device 1.
	for i := 0; i < 10; i++ {
		if !*acquireSync(t, m, 0, []*tensor.Tensor{w}, nil, 0) {
			t.Fatalf("round %d: resident w not granted at once", i)
		}
		if err := m.Release(0, []*tensor.Tensor{w}, nil, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
		for _, tn := range []*tensor.Tensor{k, y} {
			done := queue(1, tn)
			r.run(t, m)
			if !*done {
				t.Fatalf("round %d: acquire of %s never granted", i, tn)
			}
			if err := m.Release(1, []*tensor.Tensor{tn}, nil, nil, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		if slices.Contains(m.acqs, bad) || len(m.acqs) > 2 {
			t.Fatalf("round %d: %d free records, the failed one among them: %v", i, len(m.acqs), slices.Contains(m.acqs, bad))
		}
	}
	if s := m.Stats(0); s.SwapIns != 1 || s.SwapInBytes != 400 || s.Drops != 0 || s.SwapOuts != 0 {
		t.Fatalf("gpu0 stats %+v, want w's one 400 B swap-in", s)
	}
	// k, y, then k and y once per round, each dropping the other (and y
	// the first k).
	if s := m.Stats(1); s.SwapIns != 22 || s.SwapInBytes != 300+800+10*1100 || s.Drops != 21 || s.DropBytes != 11*300+10*800 || s.SwapOuts != 0 {
		t.Fatalf("gpu1 stats %+v, want 22 swap-ins of 12100 B and 21 drops of 11300 B", s)
	}
}
