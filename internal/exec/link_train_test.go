package exec

import (
	"testing"
	"time"

	"harmony/internal/sched"
	"harmony/internal/trace"
)

// onManualClock builds cfg's trainer on a trace.ManualClock: kernels and
// memcpys cost no clock time, so the clock shows only what the lanes
// slept for the modeled links.
func onManualClock(t *testing.T, cfg TrainerConfig) (*Trainer, *trace.ManualClock) {
	t.Helper()
	tr, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	clk := &trace.ManualClock{}
	tr.clk, tr.vm.clk = clk, clk
	return tr, clk
}

// TestLinkTimeMovesNoData: modeling the links changes when a copy is
// done, never which copies are made or what they carry. Each plan shape
// trains three ways to bit-identical losses and weights: on the serial
// executor without links and with them — one goroutine, so the counters
// depend on nothing else and must be identical too — and with links on
// the parallel executor with the mode's prefetch and the plan's chunks,
// where DMA lanes owe time as well and updates wait for reductions.
func TestLinkTimeMovesNoData(t *testing.T) {
	dp4 := commConfig(3, 8<<10)
	dp4.Devices, dp4.DeviceBytes = 4, 32<<10
	for _, tc := range []struct {
		name string
		cfg  TrainerConfig
	}{
		{"dp1 under swap pressure", trainerConfig(sched.HarmonyDP, 1)},
		{"dp2", trainerConfig(sched.HarmonyDP, 2)},
		{"pp2 with p2p", trainerConfig(sched.HarmonyPP, 2)},
		{"dp4 chunked collectives", dp4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const steps = 4
			ref := tc.cfg
			ref.Serial = true
			a, lossA := runTrainer(t, ref, steps)
			want := a.Stats()
			if want.SwapIns == 0 || want.AsyncDMANanos != 0 {
				t.Fatalf("reference run: %+v, want demand swaps only", want)
			}

			linked := ref
			linked.LinkBytesPerSec = 1e6 // 1 µs a byte: every link time is exact
			b, clk := onManualClock(t, linked)
			lossB := stepTrainer(t, b, 0, steps)
			if got := b.Stats(); got != want {
				t.Errorf("links on:\n got %+v\nwant %+v", got, want)
			}
			// The time was owed and paid. Every swap crossed the uplink and
			// nothing else did; every copy and every reduction crossed some
			// device's link (a p2p move two of them); and the lanes have
			// slept all they reserved but their debts.
			links := b.LinkStats()
			if swapped := time.Duration(want.SwapInBytes+want.SwapOutBytes) * time.Microsecond; links.Uplink != swapped {
				t.Errorf("uplink busy %v, want the %v of the swaps", links.Uplink, swapped)
			}
			p2p := time.Duration(want.P2PBytes) * time.Microsecond
			reserved := -p2p
			for _, busy := range links.Device {
				reserved += busy
			}
			if reserved < links.Uplink+p2p {
				t.Errorf("device links busy %v, less than the swaps' %v and the p2p moves' 2×%v", reserved+p2p, links.Uplink, p2p)
			}
			lanes := time.Duration(len(b.vm.link.debt))
			if slept := clk.Now().Sub(time.Time{}); slept < reserved-lanes*linkQuantum {
				t.Errorf("lanes slept %v in all, reserved %v", slept, reserved)
			}
			assertSameRun(t, a, b, lossA, lossB) // reads the weights back: more write-backs

			linked.Serial = false
			c, _ := onManualClock(t, linked)
			assertSameRun(t, a, c, lossA, stepTrainer(t, c, 0, steps))
			if c.Stats().PrefetchIssued == 0 {
				t.Error("the prefetching run never prefetched")
			}
		})
	}
}

// swapBytesPerDevice reads each device's own swap traffic off its shard.
func swapBytesPerDevice(tr *Trainer) []int64 {
	per := make([]int64, len(tr.vm.shards))
	for d, sh := range tr.vm.shards {
		sh.mu.Lock()
		per[d] = sh.stats.SwapInBytes + sh.stats.SwapOutBytes
		sh.mu.Unlock()
	}
	return per
}

// TestFig2OnTheRealTrainer holds the paper's motivating measurements
// (Fig. 2(a) and 2(c)) as shapes on the system that actually trains
// (EXPERIMENTS.md, "Fig. 2(a)/(c) on the real trainer"). The step time a
// link imposes is read off the model: the busiest link's modeled time
// per step — no step can be shorter, and with compute free, as on the
// manual clock, nothing else is left of one. The clock itself, on which
// concurrent lanes' sleeps add up, bounds it from above.
func TestFig2OnTheRealTrainer(t *testing.T) {
	const warm, steps = 1, 3

	// run trains cfg and returns, per measured step, each device's swap
	// bytes, the links' busy time and the time slept on the clock.
	type result struct {
		perDevice []int64
		links     LinkStats
		slept     time.Duration
	}
	run := func(cfg TrainerConfig) result {
		cfg.LinkBytesPerSec = 1e6
		tr, clk := onManualClock(t, cfg)
		stepTrainer(t, tr, 0, warm)
		bytes0, links0, t0 := swapBytesPerDevice(tr), tr.LinkStats(), clk.Now()
		stepTrainer(t, tr, warm, steps)
		r := result{swapBytesPerDevice(tr), tr.LinkStats(), clk.Now().Sub(t0) / steps}
		for d := range r.perDevice {
			r.perDevice[d] = (r.perDevice[d] - bytes0[d]) / steps
			r.links.Device[d] = (r.links.Device[d] - links0.Device[d]) / steps
		}
		r.links.Uplink = (r.links.Uplink - links0.Uplink) / steps
		return r
	}
	spread := func(xs []int64) (lo, hi int64) {
		lo, hi = xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		return lo, hi
	}

	// Fig. 2(a): under per-GPU virtualization every replica swaps the same
	// bytes however many there are — and all of them cross the one
	// uplink, so the step grows with N instead of staying flat. Harmony
	// moves fewer bytes and the uplink is busy for less, at every N.
	t.Run("2a: dp swaps share the uplink", func(t *testing.T) {
		var one result
		for _, n := range []int{1, 2, 4} {
			base := run(trainerConfig(sched.DPBaseline, n))
			harmony := run(trainerConfig(sched.HarmonyDP, n))
			if n == 1 {
				one = base
			}
			lo, hi := spread(append(base.perDevice, one.perDevice...))
			if float64(hi) > 1.15*float64(lo) {
				t.Errorf("dp-baseline on %d devices: per-device swap bytes %v a step, want flat (%d on one)", n, base.perDevice, one.perDevice[0])
			}
			for d, busy := range base.links.Device {
				if n > 1 && busy >= base.links.Uplink {
					t.Errorf("dp-baseline on %d devices: gpu%d's link busy %v a step, the uplink %v: the uplink should be the bottleneck", n, d, busy, base.links.Uplink)
				}
			}
			grow := float64(base.links.Uplink) / float64(one.links.Uplink)
			if grow < 0.85*float64(n) || grow > 1.15*float64(n) {
				t.Errorf("dp-baseline on %d devices: uplink busy %v a step, %.2f× one device's %v, want ≈ %d×", n, base.links.Uplink, grow, one.links.Uplink, n)
			}
			// The lanes really waited that long, and no longer than every
			// lane waiting for all of it.
			lanes := time.Duration(n * int(laneKinds))
			if base.slept < base.links.Uplink-lanes*linkQuantum || base.slept > lanes*base.links.Uplink {
				t.Errorf("dp-baseline on %d devices: lanes slept %v a step with the uplink busy %v", n, base.slept, base.links.Uplink)
			}
			_, baseMax := spread(base.perDevice)
			_, harmonyMax := spread(harmony.perDevice)
			if harmonyMax >= baseMax || harmony.links.Uplink >= base.links.Uplink {
				t.Errorf("on %d devices harmony-dp swaps %v bytes (uplink %v a step), dp-baseline %v (%v): want fewer and shorter",
					n, harmony.perDevice, harmony.links.Uplink, base.perDevice, base.links.Uplink)
			}
		}
	})

	// Fig. 2(c): a pipeline under per-GPU virtualization loads its stages'
	// links unevenly — here the last stage's working set nearly fits while
	// the others thrash — and Harmony's layer-granularity tasks with p2p
	// activations even that out.
	t.Run("2c: pp swap load is unbalanced", func(t *testing.T) {
		pp := func(mode sched.Mode) TrainerConfig {
			cfg := trainerConfig(mode, 4)
			cfg.Widths = []int{32, 32, 32, 32, 32, 32, 32, 32, 8}
			cfg.BatchSize, cfg.DeviceBytes = 128, 24<<10
			return cfg
		}
		imbalance := func(r result) float64 {
			lo, hi := spread(r.perDevice)
			return float64(hi) / float64(max(lo, 1))
		}
		base, harmony := run(pp(sched.PPBaseline)), run(pp(sched.HarmonyPP))
		if b, h := imbalance(base), imbalance(harmony); b < 3 || b < 2*h {
			t.Errorf("per-device swap bytes a step: pp-baseline %v (max/min %.1f), harmony-pp %v (%.1f); want the baseline well above harmony", base.perDevice, b, harmony.perDevice, h)
		}
	})
}
