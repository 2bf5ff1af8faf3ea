package exec

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/memory"
	"harmony/internal/tensor"
)

// TestConcurrentVMHotPath hammers the sharded hot path from one
// goroutine per device — demand Ensure with dirty writes, prefetch
// EnsureAsync, implicit eviction under capacity pressure — while a
// checkpoint goroutine reads shared tensors out with Read (which refuses
// a page a device holds pinned, and is retried) and an
// optimizer-like goroutine flips one page of device 0 between known-zero
// (MarkZero) and dirty (MarkDirty) under its pin, checking on every
// visit that the page still holds all of what it last left there while
// device 0's demand traffic evicts it and its DMA lane prefetches it
// back. Run under -race (make race) this exercises every lock-free word
// transition; the final sweep checks accounting invariants and
// bit-exact data survival across swaps, drops, zero-fills and p2p moves.
//
// Shared tensors are read-only (two tasks writing one tensor
// concurrently is a schedule bug the VM rejects); private tensors are
// written only by their owning device's goroutine, the flipped page
// only by the flipper. The flipped page is optimizer state, whose
// zero-fill is a memset, in one row, and a gradient in the other: there
// a known-zero page's device bytes are its next writer's to overwrite,
// so the flipper checks them only after a MarkDirty, and reads the page
// out after each MarkZero, which must give +0s.
func TestConcurrentVMHotPath(t *testing.T) {
	for _, kind := range []tensor.Kind{tensor.OptState, tensor.WeightGrad} {
		t.Run(kind.String(), func(t *testing.T) { testConcurrentVMHotPath(t, kind) })
	}
}

func testConcurrentVMHotPath(t *testing.T, kind tensor.Kind) {
	const (
		devs    = 4
		perDev  = 8
		nShared = 8
		bytes   = 256
		iters   = 400
	)
	reg := tensor.NewRegistry()
	vm := NewVM(devs, 4*bytes, memory.Policy{DirtyTracking: true, P2P: true})
	vm.StartEngine(2 * bytes)

	private := make([][]*tensor.Tensor, devs)
	wrote := make([][]bool, devs)
	for d := 0; d < devs; d++ {
		wrote[d] = make([]bool, perDev)
		for i := 0; i < perDev; i++ {
			ts := reg.Add(tensor.Activation, bytes, i, d)
			vm.HostAlloc(ts)[0] = -1
			private[d] = append(private[d], ts)
		}
	}
	var shared []*tensor.Tensor
	for i := 0; i < nShared; i++ {
		ts := reg.Add(tensor.Weight, bytes, i, -1)
		vm.HostAlloc(ts)[0] = float32(100 + i)
		shared = append(shared, ts)
	}

	flip := reg.Add(kind, bytes, 0, -1)
	vm.ZeroAlloc(flip)

	var wg sync.WaitGroup
	errc := make(chan error, devs+2)
	flipped := make(chan struct{}) // closed when the flipper is through
	var visits atomic.Int64        // device 0's iterations, the flipper's clock...
	var stopped atomic.Bool        // ...until device 0 fails and stops it
	for d := 0; d < devs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			if d == 0 {
				defer stopped.Store(true)
			}
			rng := rand.New(rand.NewSource(int64(d)))
			for i := 0; ; i++ {
				if i >= iters {
					// Device 0 keeps its traffic up for as long as the
					// flipper needs evicting.
					select {
					case <-flipped:
						return
					default:
					}
					if d != 0 {
						return
					}
				}
				if d == 0 {
					visits.Add(1)
				}
				var ts *tensor.Tensor
				write := false
				if rng.Intn(4) == 0 {
					ts = shared[rng.Intn(nShared)]
				} else {
					ts = private[d][rng.Intn(perDev)]
					write = rng.Intn(2) == 0
				}
				buf, err := vm.Ensure(d, ts)
				if err != nil {
					// A cross-device request for a pinned tensor is
					// rejected by design; under this unscheduled stress
					// it just means another device got there first.
					if strings.Contains(err.Error(), "dependency bug") {
						continue
					}
					errc <- err
					return
				}
				_ = buf[0]
				if write {
					if err := vm.MarkDirty(ts); err != nil {
						errc <- err
						return
					}
					buf[0] = float32(d)
					wrote[d][ts.Layer] = true
				}
				if err := vm.Unpin(ts); err != nil {
					errc <- err
					return
				}
				if rng.Intn(4) == 0 {
					vm.EnsureAsync(d, private[d][rng.Intn(perDev)])
				}
				if d == 0 && rng.Intn(2) == 0 {
					vm.EnsureAsync(0, flip)
				}
			}
		}(d)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		got := make([]float32, bytes/4)
		for j := 0; j < 100; {
			if err := vm.Read(shared[j%nShared], got); err != nil {
				if strings.Contains(err.Error(), "Read of pinned") {
					runtime.Gosched() // a device is using it: try again
					continue
				}
				errc <- err
				return
			}
			if want := float32(100 + j%nShared); got[0] != want {
				errc <- errValue(shared[j%nShared], got[0], want)
				return
			}
			j++
		}
	}()
	var flipLast float32 // what the flipper left in every element; read after wg.Wait
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(flipped)
		out := make([]float32, bytes/4)
		for i := 0; i < iters/2; i++ {
			buf, err := vm.Ensure(0, flip)
			if err != nil {
				errc <- err
				return
			}
			for _, v := range buf {
				if unread := kind == tensor.WeightGrad && flipLast == 0; !unread && math.Float32bits(v) != math.Float32bits(flipLast) {
					errc <- errValue(flip, v, flipLast)
					return
				}
			}
			mark, fill := vm.MarkZero, float32(0)
			if kind == tensor.WeightGrad {
				fill = float32(math.NaN()) // what a gradient's update leaves
			}
			if flipLast = 0; i%2 == 0 {
				flipLast, mark, fill = float32(i+1), vm.MarkDirty, float32(i+1)
			}
			for j := range buf {
				buf[j] = fill
			}
			if err := mark(flip); err != nil {
				errc <- err
				return
			}
			if err := vm.Unpin(flip); err != nil {
				errc <- err
				return
			}
			if flipLast == 0 {
				if err := vm.Read(flip, out); err != nil {
					errc <- err
					return
				}
				if i, ok := bitZero(out); !ok {
					errc <- errValue(flip, out[i], 0)
					return
				}
			}
			// Unpinned: give device 0 a few visits to evict it in this state.
			fb, _ := vm.lookup(flip.ID)
			for seen := visits.Load(); fb.Load().Resident() && visits.Load()-seen < 16 && !stopped.Load(); {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := vm.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	vm.Close()

	for d := 0; d < devs; d++ {
		if used := vm.Used(d); used < 0 || used > 4*bytes {
			t.Fatalf("gpu%d used %d outside [0, capacity]", d, used)
		}
	}
	// Bit-exactness after the storm: shared tensors kept their values,
	// written privates hold their owner's mark, untouched ones the
	// initial fill.
	for i, ts := range shared {
		host := readBack(t, vm, ts)
		if host[0] != float32(100+i) {
			t.Fatalf("%s corrupted: got %v want %v", ts, host[0], float32(100+i))
		}
	}
	for d := 0; d < devs; d++ {
		for i, ts := range private[d] {
			host := readBack(t, vm, ts)
			want := float32(-1)
			if wrote[d][i] {
				want = float32(d)
			}
			if host[0] != want {
				t.Fatalf("%s corrupted: got %v want %v", ts, host[0], want)
			}
		}
	}
	host := readBack(t, vm, flip)
	for _, v := range host {
		if math.Float32bits(v) != math.Float32bits(flipLast) {
			t.Fatalf("%s corrupted: got %v want %v", flip, v, flipLast)
		}
	}
	s := vm.StatsSnapshot()
	if s.SwapIns == 0 {
		t.Fatal("stress never swapped: capacity pressure miscalibrated")
	}
	if s.ZeroFills < 2 {
		t.Fatalf("the flipped page was never evicted and refilled while known-zero (%d zero-fills): pressure miscalibrated", s.ZeroFills)
	}
}

type valueErr struct {
	t         *tensor.Tensor
	got, want float32
}

func errValue(t *tensor.Tensor, got, want float32) error {
	return &valueErr{t, got, want}
}

func (e *valueErr) Error() string {
	return e.t.String() + " snapshot mismatch"
}

// TestEnsureHitTakesOnlyItsOwnShard pins, without a stopwatch, the
// property behind BenchmarkEnsureContended's flat curve (DESIGN.md
// §12): a resident Ensure/Unpin on device d takes no lock another
// device can hold. Every lock a neighbour could be sitting on — the
// other shards', the DMA engine's, the knobs' — is held while d runs
// its hit path, which must finish regardless. The control shows the
// test can see a lock on the path: with d's own shard held, the same
// loop must not finish until it is released.
func TestEnsureHitTakesOnlyItsOwnShard(t *testing.T) {
	const (
		devs   = 4
		d      = 2
		perDev = 16
		bytes  = 64
		pairs  = 4000
	)
	reg := tensor.NewRegistry()
	vm := NewVM(devs, perDev*bytes, memory.Policy{DirtyTracking: true})
	vm.StartEngine(perDev * bytes)
	defer vm.Close()
	var set []*tensor.Tensor
	for i := 0; i < perDev; i++ {
		ts := reg.Add(tensor.Activation, bytes, i, d)
		vm.HostAlloc(ts)
		if _, err := vm.Ensure(d, ts); err != nil { // resident from here on
			t.Fatal(err)
		}
		if err := vm.Unpin(ts); err != nil {
			t.Fatal(err)
		}
		set = append(set, ts)
	}
	hits := func() <-chan error {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < pairs; i++ {
				ts := set[i%perDev]
				if _, err := vm.Ensure(d, ts); err != nil {
					done <- err
					return
				}
				if err := vm.Unpin(ts); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		return done
	}
	others := []sync.Locker{&vm.engMu}
	for _, sh := range vm.shards {
		if sh.dev != d {
			others = append(others, &sh.mu)
		}
	}

	for _, l := range others {
		l.Lock()
	}
	done, blocked := hits(), false
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		blocked = true
	}
	for _, l := range others {
		l.Unlock()
	}
	if blocked {
		t.Fatalf("%d resident Ensure/Unpin pairs on gpu%d did not finish while the other shards and engMu were held: the hit path takes a lock another device can hold", pairs, d)
	}

	own := &vm.shards[d].mu
	own.Lock()
	done = hits()
	select {
	case <-done:
		own.Unlock()
		t.Fatalf("the hit path on gpu%d finished while its own shard lock was held: this test cannot see the locks it is about", d)
	case <-time.After(100 * time.Millisecond):
	}
	own.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
