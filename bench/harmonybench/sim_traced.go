package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"harmony"
	"harmony/internal/collective"
	"harmony/internal/graph"
	"harmony/internal/hw"
	"harmony/internal/memory"
	"harmony/internal/models"
	simrt "harmony/internal/runtime"
	"harmony/internal/sched"
	"harmony/internal/schedcheck"
	"harmony/internal/sim"
	"harmony/internal/tensor"
)

// runSimTraced fills the simulator's share of the ledger: per-op and
// per-cell host time, the plan/run split of one Simulate, and
// micro-probes on the engine, the memory manager and the collectives.
func runSimTraced(c *runCtx, grid []simCell, rng *rand.Rand, want sweepStats) error {
	cellMS := make(map[string][]float64)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := c.n(4, 1)
	untraced, _ := simOps(c, grid, rng, want, 0, n, cellMS)
	runtime.ReadMemStats(&m1)
	emitAllocs(c, "harmony.alloc_kb_per_op", "harmony.allocs_per_op", &m0, &m1, n)
	c.emit("harmony.gc_cycles_per_100_ops", 100*float64(m1.NumGC-m0.NumGC)/float64(n))
	more, _ := simOps(c, grid, rng, want, c.seconds/2-sum(untraced)/1e3, 0, cellMS)
	untraced = append(untraced, more...)

	// The simulator's own tracing: the same sweep with a Gantt
	// captured in every Simulate.
	traced, _ := simOps(c, simGrid(true), rng, want, c.seconds/4, c.n(2, 1), nil)
	printTiming(c, "untraced op_ms", untraced)
	printTiming(c, "traced op_ms", traced)
	c.emit("harmony.op_ms_p90", percentile(untraced, 0.9))
	c.emit("harmony.op_ms_max", percentile(untraced, 1))
	c.emit("harmony.trace_overhead_frac", median(traced)/median(untraced)-1)
	slowest, slowestName := 0.0, ""
	for name, ms := range cellMS {
		if m := median(ms); m > slowest {
			slowest, slowestName = m, name
		}
	}
	fmt.Fprintf(c.out, "slowest cell: %s\n", slowestName)
	c.emit("runtime.slowest_cell_ms", slowest)

	rep, err := harmony.Simulate(harmony.SimConfig{
		Model: harmony.BERT48(), Mode: harmony.HarmonyPP, Server: harmony.CommodityServer(4),
		MicrobatchSize: 1, Microbatches: 8, CaptureTrace: true,
	})
	if err != nil {
		return err
	}
	if err := writeFile(c.outDir+"/sim-sweep.gantt.txt", []byte(rep.Gantt)); err != nil {
		return err
	}
	if err := probePlan(c); err != nil {
		return err
	}
	if err := probeTuner(c); err != nil {
		return err
	}
	return probeSimCore(c)
}

// timeMS runs fn reps times and returns the median wall time in ms.
func timeMS(reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(start).Seconds()*1e3)
	}
	return median(ms), nil
}

// probePlan splits one Simulate into plan build and event-loop run on
// the BERT-48 four-GPU plans, and times the plan verifier on the
// data-parallel one (3450 tasks).
func probePlan(c *runCtx) error {
	defer c.spans.begin("probe plan")()
	reps := c.n(5, 1)
	model := models.BERT48()
	var g *graph.Graph
	var s *sched.Schedule
	graphMS, err := timeMS(reps, func() (err error) {
		g, err = graph.Build(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 8, Replicas: 4})
		return err
	})
	if err != nil {
		return err
	}
	schedMS, err := timeMS(reps, func() (err error) {
		s, err = sched.Build(g, sched.DefaultOptions(sched.HarmonyDP), 4)
		return err
	})
	if err != nil {
		return err
	}
	box := hw.Commodity1080TiBox(4)
	checkMS, err := timeMS(reps, func() error {
		schedcheck.Check(s, schedcheck.Topology{Devices: 4, DeviceBytes: box.GPUMemBytes})
		return nil
	})
	if err != nil {
		return err
	}
	run := func(s *sched.Schedule) (float64, error) {
		return timeMS(reps, func() error {
			_, err := simrt.Run(simrt.Config{Box: box, Schedule: s, WarmupIters: 1, MeasureIters: 2})
			return err
		})
	}
	dpMS, err := run(s)
	if err != nil {
		return err
	}
	gpp, err := graph.Build(graph.Config{Model: model, MicrobatchSize: 1, Microbatches: 8, Replicas: 1})
	if err != nil {
		return err
	}
	spp, err := sched.Build(gpp, sched.DefaultOptions(sched.HarmonyPP), 4)
	if err != nil {
		return err
	}
	ppMS, err := run(spp)
	if err != nil {
		return err
	}
	c.emit("graph.build_ms", graphMS)
	c.emit("graph.tasks", float64(len(g.Tasks)))
	c.emit("sched.build_ms", schedMS)
	c.emit("schedcheck.check_ms", checkMS)
	c.emit("runtime.run_ms_dp4", dpMS)
	c.emit("runtime.run_ms_pp4", ppMS)
	c.emit("runtime.plan_share", (graphMS+schedMS)/(graphMS+schedMS+dpMS))

	cfg := harmony.SimConfig{Model: harmony.BERT48(), Mode: harmony.HarmonyDP, Server: harmony.CommodityServer(4), MicrobatchSize: 1, Microbatches: 8}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		if _, err := harmony.Simulate(cfg); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	emitAllocs(c, "runtime.alloc_kb_per_simulate", "runtime.allocs_per_simulate", &m0, &m1, reps)
	return nil
}

func probeTuner(c *runCtx) error {
	defer c.spans.begin("probe tuner")()
	for _, p := range []struct {
		name   string
		greedy bool
	}{{"tuner.run_ms", false}, {"tuner.hillclimb_ms", true}} {
		ms, err := timeMS(c.n(5, 1), func() error {
			_, err := harmony.Tune(tangoConfig(p.greedy))
			return err
		})
		if err != nil {
			return err
		}
		c.emit(p.name, ms)
	}
	return nil
}

// probeSimCore times the simulator's substrate in host time: the event
// loop, a FIFO resource, the memory manager's resident and evicting
// acquire paths, and one ring all-reduce.
func probeSimCore(c *runCtx) error {
	defer c.spans.begin("probe sim core")()
	events := c.n(500_000, 100)

	// A chain of events, each scheduling the next.
	eng := sim.NewEngine()
	left := events
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.After(1e-6, tick)
		}
	}
	eng.After(0, tick)
	start := time.Now()
	if _, err := eng.Run(); err != nil {
		return err
	}
	c.emit("sim.engine_events_per_s", float64(events)/time.Since(start).Seconds())

	eng = sim.NewEngine()
	fifo := sim.NewFIFO(eng, "probe")
	start = time.Now()
	for i := 0; i < events; i++ {
		fifo.Acquire(1e-6, nil, nil)
	}
	if _, err := eng.Run(); err != nil {
		return err
	}
	c.emit("sim.fifo_acquire_ns", float64(time.Since(start).Nanoseconds())/float64(events))

	// 16 tensors of 64 KiB: all resident, then only half fitting so
	// that every acquire evicts.
	for _, p := range []struct {
		name     string
		resident int
	}{{"memory.acquire_resident_ns", 16}, {"memory.acquire_evict_ns", 8}} {
		ns, err := probeManager(c.n(20_000, 32), 16, p.resident)
		if err != nil {
			return err
		}
		c.emit(p.name, ns)
	}

	ar, err := timeMS(c.n(200, 2), func() error {
		eng := sim.NewEngine()
		top, err := hw.NewBox(eng, hw.Commodity1080TiBox(4))
		if err != nil {
			return err
		}
		done := false
		if err := collective.RingAllReduce(top, []hw.DeviceID{0, 1, 2, 3}, 64<<20, func(sim.Time) { done = true }, nil); err != nil {
			return err
		}
		if _, err := eng.Run(); err != nil {
			return err
		}
		if !done {
			return fmt.Errorf("ring all-reduce never completed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.emit("collective.ring_allreduce_host_us", ar*1e3)
	return nil
}

// probeManager times memory.Manager's Acquire+Release of one tensor,
// cycling over `pages` tensors on a device with room for `resident`.
func probeManager(ops, pages, resident int) (float64, error) {
	eng := sim.NewEngine()
	box := hw.Commodity1080TiBox(2)
	box.GPUMemBytes = int64(resident) * probePage
	top, err := hw.NewBox(eng, box)
	if err != nil {
		return 0, err
	}
	reg := tensor.NewRegistry()
	var ts []*tensor.Tensor
	for i := 0; i < pages; i++ {
		ts = append(ts, reg.New(fmt.Sprintf("t%d", i), tensor.Weight, probePage, i, -1))
	}
	m := memory.New(eng, top, reg, memory.Policy{DirtyTracking: true})
	if err := m.InitHost(ts...); err != nil {
		return 0, err
	}
	var failed error
	use := func(t *tensor.Tensor) error {
		in := []*tensor.Tensor{t}
		granted := false
		m.Acquire(0, in, nil, 0, func() { granted = true }, func(err error) { failed = err })
		if _, err := eng.Run(); err != nil {
			return err
		}
		if failed != nil || !granted {
			return fmt.Errorf("acquire of %s not granted: %v", t, failed)
		}
		return m.Release(0, in, nil, nil, nil, 0)
	}
	for _, t := range ts { // fault every page in once
		if err := use(t); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := use(ts[i%pages]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), m.Err()
}
