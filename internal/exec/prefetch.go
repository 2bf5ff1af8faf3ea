package exec

import (
	"sync"
	"time"

	"harmony/internal/hw"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

// prefetcher drives the VM's async DMA engine from the schedule: the
// executor already knows each device's task stream, so right before a
// kernel launches, the device worker asks for the inputs of the next
// window compute entries (EnsureAsync — never blocking, never
// pinning) and for proactive write-backs of dirty LRU pages
// (CleanAhead), all of which the DMA workers overlap with the kernel.
// This is the real executor's version of the simulator's
// runtime.prefetchAhead.
//
// With AdaptivePrefetch the window is per virtual device and retuned
// between steps by adaptController; devs is nil in static mode and
// issue degenerates to the fixed depth.
type prefetcher struct {
	tr    *Trainer
	depth int
	clean int // dirty write-backs requested per issue point

	// Adaptive state, one slot per virtual device (queue index).
	// During a step each slot is touched only by its own device
	// worker; the trainer reads and retunes at the step boundary
	// after the workers have joined and WaitIdle drained the DMA
	// lanes, so no locking is needed (happens-before via goroutine
	// create/join).
	devs []*pfDev
}

// pfDev is one virtual device's adaptive prefetch state.
type pfDev struct {
	ctl adaptController
	sig adaptSignals
	// seen maps tensor ID → requested-by-a-window-scan-this-step.
	// Lookups and inserts only — never ranged (map order is
	// nondeterministic; the determinism analyzers enforce this).
	seen map[int]bool
	// scan is the current window scan's distinct-input scratch,
	// reused across issue calls to keep the hot path allocation-free.
	scan []*tensor.Tensor
}

// issue runs on device worker d between the dispatcher releasing
// stream[i] and its kernel launching.
func (p *prefetcher) issue(d int, stream []sched.StreamEntry, i int) {
	dev := p.tr.pdev(d)
	p.tr.vm.CleanAhead(dev, p.clean)
	window := p.depth
	var pd *pfDev
	if p.devs != nil {
		pd = p.devs[d]
		window = pd.ctl.window
		// Coverage of the entry about to execute, checked before this
		// call's own scan so an entry never covers itself. Collective
		// entries ensure their own views at rendezvous and are not
		// prefetch targets, so they do not count.
		if e := stream[i]; e.Rdv < 0 && len(e.Task.Inputs) > 0 {
			covered := true
			for _, in := range e.Task.Inputs {
				if !pd.seen[in.ID] {
					covered = false
					break
				}
			}
			if covered {
				pd.sig.Covered++
			} else {
				pd.sig.Uncovered++
			}
		}
		pd.scan = pd.scan[:0]
	}
	seen := 0
	var want int64
	for j := i + 1; j < len(stream) && seen < window; j++ {
		e := stream[j]
		if e.Rdv >= 0 {
			continue // collectives ensure their own views at rendezvous
		}
		seen++
		for _, in := range e.Task.Inputs {
			p.tr.vm.EnsureAsync(dev, in)
			if pd == nil {
				continue
			}
			pd.seen[in.ID] = true
			dup := false
			for _, t := range pd.scan { // window is small; linear dedupe
				if t.ID == in.ID {
					dup = true
					break
				}
			}
			if !dup {
				pd.scan = append(pd.scan, in)
				want += in.Bytes
			}
		}
	}
	if pd != nil && want > pd.sig.WantPeak {
		pd.sig.WantPeak = want
	}
}

// beginStep resets the per-step adaptive counters. Called by the
// trainer before launching the step's workers; no-op in static mode.
func (p *prefetcher) beginStep() {
	for _, pd := range p.devs {
		pd.sig = adaptSignals{}
		clear(pd.seen)
	}
}

// endStep runs every device's controller on the step's signals and
// applies retuned budgets to the VM shards. Called by the trainer
// only after a successful step (WaitIdle drained; a failed attempt's
// partial counters are discarded by the next beginStep), in ascending
// virtual-device order so the decision log is a deterministic
// function of the step counter. Post-recovery, several virtual
// devices may alias one physical shard; the largest budget wins,
// resolved in ascending order.
func (p *prefetcher) endStep(step int) []AdaptDecision {
	if p.devs == nil {
		return nil
	}
	var out []AdaptDecision
	for d, pd := range p.devs {
		out = append(out, pd.ctl.adaptStep(step, d, pd.sig)...)
	}
	p.applyBudgets()
	return out
}

// applyBudgets pushes every controller's current byte budget down to
// the VM shards. Post-recovery several virtual devices may alias one
// physical shard; the largest budget wins, resolved in ascending
// virtual-device order. No-op in static mode.
func (p *prefetcher) applyBudgets() {
	if p.devs == nil {
		return
	}
	budgets := make([]int64, p.tr.cfg.Devices)
	for d, pd := range p.devs {
		ph := p.tr.pdev(d)
		if ph >= 0 && ph < len(budgets) && pd.ctl.budget > budgets[ph] {
			budgets[ph] = pd.ctl.budget
		}
	}
	for ph, b := range budgets {
		if b > 0 {
			p.tr.vm.SetPrefetchBudget(ph, b)
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
// compute spans on each device's kernel lane, demand swaps, p2p moves,
// prefetches and clean-ahead write-backs on their DMA lanes — with
// LinkBytesPerSec set, a copy's span is its reservation on the modeled
// link, so queueing for a link shows as the gap before it. Returns the
// live trace — read it only between Steps. Calling it again restarts
// with a fresh trace.
func (tr *Trainer) EnableTrace() *trace.Trace {
	tr.rec = &runRecorder{epoch: tr.vm.clk.Now()}
	tr.vm.SetRecorder(tr.rec.add)
	return &tr.rec.tr
}

// Close drains and stops the VM's async DMA workers. Call it when
// discarding a trainer whose config enabled prefetch; training never
// needs it mid-run (step boundaries drain via WaitIdle).
func (tr *Trainer) Close() { tr.vm.Close() }
