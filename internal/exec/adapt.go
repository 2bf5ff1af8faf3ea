// Adaptive prefetch controller (DESIGN.md §13): grows and shrinks
// each device's lookahead window and prefetch byte budget online,
// between iterations, from coverage counters the prefetcher computes
// in device-worker program order. Every input to a decision is a pure
// function of the schedule streams, the current window and the step
// counter — never wall time, DMA completion order, LRU state or map
// iteration — so two seeded runs take byte-identical decision
// sequences and the bit-exactness matrix survives adaptation.
package exec

import "fmt"

// adaptSignals is one device's deterministic per-step controller
// input, accumulated by prefetcher.issue on the device worker in
// stream order:
//
//   - Covered / Uncovered: of the compute entries executed this step,
//     how many had every input already requested by an earlier window
//     scan (program-order coverage — the deterministic refinement of
//     the racy PrefetchHits counter, independent of DMA timing);
//   - WantPeak: the largest distinct-input byte demand any single
//     window scan presented this step — what the budget must admit
//     for the current window to be fully effective.
type adaptSignals struct {
	Covered   int
	Uncovered int
	WantPeak  int64
}

// AdaptDecision is one controller action, recorded in the decision
// log (Trainer.AdaptLog) and on the trace's adapt lane. From/To are
// entries for What == "window" and bytes for What == "budget".
type AdaptDecision struct {
	Step   int
	Dev    int
	What   string // "window" or "budget"
	From   int64
	To     int64
	Reason string
}

func (d AdaptDecision) String() string {
	return fmt.Sprintf("step %d dev %d %s %d->%d (%s)", d.Step, d.Dev, d.What, d.From, d.To, d.Reason)
}

// adaptController is the per-device window/budget state machine. All
// state is integral and every transition is a pure function of the
// per-step signals, so the controller is deterministic by
// construction.
//
// Policy, in priority order:
//
//  1. shrink pressure — a window scan demanded more bytes than the
//     budget admits AND that demand actually went uncovered: first
//     widen the budget (bounded by the engine cap the plan was
//     verified against). Once the budget is capped, the bar rises:
//     the window shrinks only when over-budget demand is *drowning*
//     the prefetcher — more entries missed than covered that step. A
//     thin uncovered tail under an over-cap peak keeps the lookahead;
//     over-budget demand with full (or majority) coverage is not
//     pressure — the prefetcher is evidently keeping up, and
//     narrowing the window there costs overlap for nothing (measured
//     as a 7-point DMA-overlap loss on the dp1-hostlink bench before
//     the majority gate);
//  2. grow — demand misses remain and the budget has at least 2×
//     headroom over the window's peak demand: deepen the lookahead;
//  3. trim — the window is fully grown and its peak demand uses less
//     than a quarter of the budget: halve the budget, releasing
//     device memory back to the demand working set.
//
// A window shrink ratchets wCeil down to the shrunken level, so the
// window never regrows past a width that proved too expensive; with
// the two-step hysteresis on every trigger this bounds direction
// flips on a steady trace (see TestAdaptControllerConverges).
type adaptController struct {
	wMin, wMax int
	bMin, bMax int64

	window int
	budget int64
	wCeil  int // grow ceiling; ratcheted down by every window shrink

	growRun   int // consecutive steps the grow condition held
	shrinkRun int // consecutive steps the shrink condition held
	trimRun   int // consecutive steps the trim condition held
}

// adaptWindowMin and adaptWindowMax bound every device's lookahead
// window (entries, not bytes): the controller never stops prefetching
// altogether and never looks further than eight entries ahead.
const adaptWindowMin, adaptWindowMax = 1, 8

// hysteresisSteps is how many consecutive steps a grow/shrink/trim
// condition must hold before the controller acts. One-step blips
// (warmup, recovery re-staging) never move the knobs.
const hysteresisSteps = 2

// newAdaptController starts at the static-equivalent window AND the
// static-equivalent budget — the engine cap, exactly what a static
// plan's shards run with — so an adaptive run's first steps match a
// static run's until a signal says otherwise. The trim rule walks the
// budget down when demand proves light; starting below the cap was
// measured as a 6-point DMA-overlap handicap on the dp1-hostlink
// bench before the widen caught up.
func newAdaptController(window, wMin, wMax int, bMax int64) adaptController {
	if wMin < 1 {
		wMin = 1
	}
	if wMax < wMin {
		wMax = wMin
	}
	if window < wMin {
		window = wMin
	}
	if window > wMax {
		window = wMax
	}
	if bMax <= 0 {
		bMax = 1
	}
	bMin := bMax / 4
	if bMin < 1 {
		bMin = 1
	}
	budget := bMax
	return adaptController{
		wMin: wMin, wMax: wMax, bMin: bMin, bMax: bMax,
		window: window,
		budget: budget,
		wCeil:  wMax,
	}
}

// adaptStep feeds one step's signals through the controller and
// returns the decisions taken (nil most steps). step is the trainer's
// step counter — the only clock adaptation is allowed to observe.
func (c *adaptController) adaptStep(step, dev int, sig adaptSignals) []AdaptDecision {
	ceil := c.wCeil
	if ceil > c.wMax {
		ceil = c.wMax
	}
	// While the budget has headroom, any uncovered over-budget demand
	// is worth a (bounded) budget widen; once capped, shrinking the
	// window costs overlap, so it takes majority misses to justify.
	shrinkWanted := sig.WantPeak > c.budget && sig.Uncovered > 0 &&
		(c.budget < c.bMax || sig.Uncovered > sig.Covered)
	growWanted := !shrinkWanted && c.window < ceil &&
		sig.Uncovered > 0 && sig.WantPeak*2 <= c.budget
	trimWanted := !shrinkWanted && !growWanted && c.window >= ceil &&
		sig.WantPeak > 0 && sig.WantPeak*4 <= c.budget && c.budget > c.bMin

	if shrinkWanted {
		c.shrinkRun++
	} else {
		c.shrinkRun = 0
	}
	if growWanted {
		c.growRun++
	} else {
		c.growRun = 0
	}
	if trimWanted {
		c.trimRun++
	} else {
		c.trimRun = 0
	}

	var out []AdaptDecision
	switch {
	case c.shrinkRun >= hysteresisSteps:
		c.shrinkRun = 0
		if c.budget < c.bMax {
			next := c.budget * 2
			if next > c.bMax {
				next = c.bMax
			}
			out = append(out, AdaptDecision{Step: step, Dev: dev, What: "budget",
				From: c.budget, To: next, Reason: "window demand over budget"})
			c.budget = next
		} else if c.window > c.wMin {
			out = append(out, AdaptDecision{Step: step, Dev: dev, What: "window",
				From: int64(c.window), To: int64(c.window - 1), Reason: "demand over budget cap"})
			c.window--
			c.wCeil = c.window // never regrow past a proven-too-wide level
		}
	case c.growRun >= hysteresisSteps:
		c.growRun = 0
		out = append(out, AdaptDecision{Step: step, Dev: dev, What: "window",
			From: int64(c.window), To: int64(c.window + 1), Reason: "uncovered demand with budget headroom"})
		c.window++
	case c.trimRun >= hysteresisSteps:
		c.trimRun = 0
		next := c.budget / 2
		if next < c.bMin {
			next = c.bMin
		}
		out = append(out, AdaptDecision{Step: step, Dev: dev, What: "budget",
			From: c.budget, To: next, Reason: "window demand well under budget"})
		c.budget = next
	}
	return out
}
