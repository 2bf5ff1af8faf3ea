package exec

import (
	"sync"
	"time"

	"harmony/internal/hw"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// prefetcher drives the VM's async DMA engine from the schedule: the
// executor already knows each device's task stream, so once a run has
// pinned its footprint and right before its kernel launches, the device
// worker asks for the inputs of the next depth compute tasks after it
// (EnsureAsync — never blocking, never pinning), which the DMA workers
// fill while the kernel runs. The depth counts tasks, but the window
// holds whole runs: a run the window reaches is asked for in full, since
// its members are acquired together. Issued after the run's own
// acquisition, a prefetch fills only what the run leaves spare, so the
// run's demand never evicts it. This is the real executor's version of
// the simulator's runtime.prefetchAhead.
type prefetcher struct {
	tr    *Trainer
	depth int
}

// issue runs on device worker d between a run's acquisition and its
// kernel; next is the rest of d's stream after the run.
func (p *prefetcher) issue(d int, next []sched.StreamEntry) {
	dev := p.tr.pdev(d)
	seen := 0
	for _, e := range next {
		if seen >= p.depth {
			return
		}
		// Collectives ensure their own views at rendezvous.
		for _, t := range e.Run {
			seen++
			for _, in := range t.Inputs {
				p.tr.vm.EnsureAsync(dev, in)
			}
		}
	}
}

// runRecorder timestamps compute and DMA spans onto a trace.Trace
// against a fixed epoch. All executor goroutines share it, hence the
// mutex; arming it costs one branch per task when disabled.
type runRecorder struct {
	mu    sync.Mutex
	tr    trace.Trace
	epoch time.Time
}

func (r *runRecorder) add(dev int, lane trace.Lane, label string, start, end time.Time) {
	s := sim.Time(start.Sub(r.epoch).Seconds())
	e := sim.Time(end.Sub(r.epoch).Seconds())
	r.mu.Lock()
	r.tr.Add(hw.DeviceID(dev), lane, label, s, e)
	r.mu.Unlock()
}

// EnableTrace starts recording a wall-clock execution timeline:
// compute spans on each device's kernel lane, reductions on the
// reducer's comms lane, demand swaps, p2p moves and prefetches on
// their DMA lanes — with LinkBytesPerSec set, a copy's or a reduction's
// span is its reservation on the modeled link, so queueing for a link
// shows as the gap before it. Returns the live trace — read it only
// between Steps. Calling it again restarts with a fresh trace.
func (tr *Trainer) EnableTrace() *trace.Trace {
	tr.rec = &runRecorder{epoch: tr.vm.clk.Now()}
	tr.vm.cfg.rec = tr.rec.add
	return &tr.rec.tr
}

// Close drains and stops the VM's async DMA workers. Call it when
// discarding a trainer whose config enabled prefetch; training never
// needs it mid-run (step boundaries drain via WaitIdle).
func (tr *Trainer) Close() { tr.vm.Close() }
