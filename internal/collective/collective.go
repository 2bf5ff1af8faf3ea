// Package collective implements collective communication over the
// simulated topology: ring all-reduce (the gradient averaging of
// data-parallel training, NCCL-style) and ring all-gather. Harmony inserts
// these transparently to preserve the semantics of the original tasks
// (paper §1).
package collective

import (
	"fmt"

	"harmony/internal/hw"
	"harmony/internal/sim"
)

// RingAllReduce reduces-and-broadcasts `bytes` per replica across the
// given devices using the standard 2·(N−1)-step ring algorithm with
// chunks of bytes/N. Each step is a barrier: all N concurrent chunk
// transfers of a step finish before the next step starts (matching
// NCCL's synchronous ring). done fires when the result is available
// on every device.
//
// Errors detected before any transfer starts are returned; errors
// surfacing mid-collective from later engine events (a transfer
// failing after the ring is in flight) are delivered to fail instead,
// exactly once, and the collective stops making progress — done never
// fires after fail. A nil fail drops async errors silently; pass one
// whenever the caller can act on failures (the runtime's retry layer
// does).
//
// Per-device traffic is 2·(N−1)/N·bytes in each direction, so the
// simulated duration reflects both link contention and the algorithm's
// latency structure.
func RingAllReduce(top *hw.Topology, devs []hw.DeviceID, bytes int64, done func(at sim.Time), fail func(error)) error {
	n := len(devs)
	if n == 0 {
		return fmt.Errorf("collective: all-reduce over zero devices")
	}
	if bytes < 0 {
		return fmt.Errorf("collective: negative payload %d", bytes)
	}
	if n == 1 {
		// Nothing to reduce across; complete immediately.
		top.Eng.After(0, func() { done(top.Eng.Now()) })
		return nil
	}
	for _, d := range devs {
		if d == hw.Host {
			return fmt.Errorf("collective: host cannot participate in all-reduce")
		}
	}
	// Validate every ring edge is routable before starting.
	for i := 0; i < n; i++ {
		src, dst := devs[i], devs[(i+1)%n]
		if src == dst {
			return fmt.Errorf("collective: duplicate device %s in ring", src)
		}
		if !top.CanP2P(src, dst) {
			// Host-bounced edges are always routable; nothing to
			// check.
			continue
		}
		if _, err := top.TransferTime(src, dst, 1); err != nil {
			return err
		}
	}
	startRing(top, devs, bytes, 2*(n-1), done, fail)
	return nil
}

// ring is one ring collective in flight: `steps` barriered rounds in
// which every device sends one chunk to its successor. The chunk
// completions of all rounds share one callback bound at start.
type ring struct {
	top   *hw.Topology
	devs  []hw.DeviceID
	chunk int64
	steps int
	done  func(at sim.Time)
	ab    aborter

	step      int // the round in flight
	remaining int // its chunks still in transit
	chunkDone func(at sim.Time)
}

// startRing runs a ring of `steps` rounds over chunks of bytes/N.
func startRing(top *hw.Topology, devs []hw.DeviceID, bytes int64, steps int, done func(at sim.Time), fail func(error)) {
	chunk := bytes / int64(len(devs))
	if chunk == 0 {
		chunk = 1
	}
	g := &ring{top: top, devs: devs, chunk: chunk, steps: steps, done: done, ab: aborter{fail: fail}}
	g.chunkDone = g.onChunkDone
	g.runStep()
}

func (g *ring) runStep() {
	if g.ab.aborted {
		return
	}
	if g.step == g.steps {
		g.done(g.top.Eng.Now())
		return
	}
	n := len(g.devs)
	g.remaining = n
	for i := 0; i < n; i++ {
		if err := sendChunk(g.top, g.devs[i], g.devs[(i+1)%n], g.chunk, g.chunkDone, &g.ab); err != nil {
			// Ring construction was validated up front, so a
			// transfer error here means the topology changed under
			// us mid-collective.
			g.ab.abort(err)
			return
		}
	}
}

func (g *ring) onChunkDone(sim.Time) {
	g.remaining--
	if g.remaining == 0 {
		g.step++
		g.runStep()
	}
}

// aborter delivers at most one mid-collective error to the caller's
// fail callback and latches, so in-flight completion callbacks stop
// launching further steps. Single-threaded like the engine it runs
// under.
type aborter struct {
	fail    func(error)
	aborted bool
}

func (a *aborter) abort(err error) {
	if a.aborted {
		return
	}
	a.aborted = true
	if a.fail != nil {
		a.fail(err)
	}
}

// sendChunk moves a chunk directly over p2p when available, otherwise
// bounces it through host memory as two transfers. An error starting
// the first hop is returned; an error starting the host-bounce second
// hop (which only surfaces once the first hop completes, inside an
// engine event) goes to ab.
func sendChunk(top *hw.Topology, src, dst hw.DeviceID, bytes int64, done func(at sim.Time), ab *aborter) error {
	if top.CanP2P(src, dst) {
		return top.Transfer(src, dst, bytes, done)
	}
	return top.Transfer(src, hw.Host, bytes, func(sim.Time) {
		if ab.aborted {
			return
		}
		if err := top.Transfer(hw.Host, dst, bytes, done); err != nil {
			ab.abort(err)
		}
	})
}

// RingAllGather distributes each device's shard (bytes/N) to every
// other device using the N−1-step ring algorithm, so every device
// ends with the full `bytes` payload. Per-device traffic is
// (N−1)/N·bytes each direction. done fires when the last device has
// the full result. This is the collective behind intra-op sharding:
// partial layer outputs are gathered into full activations. fail
// receives mid-collective errors, with the same contract as
// RingAllReduce.
func RingAllGather(top *hw.Topology, devs []hw.DeviceID, bytes int64, done func(at sim.Time), fail func(error)) error {
	n := len(devs)
	if n == 0 {
		return fmt.Errorf("collective: all-gather over zero devices")
	}
	if bytes < 0 {
		return fmt.Errorf("collective: negative payload %d", bytes)
	}
	if n == 1 {
		top.Eng.After(0, func() { done(top.Eng.Now()) })
		return nil
	}
	for i := 0; i < n; i++ {
		if devs[i] == hw.Host {
			return fmt.Errorf("collective: host cannot participate in all-gather")
		}
		if devs[i] == devs[(i+1)%n] {
			return fmt.Errorf("collective: duplicate device %s in ring", devs[i])
		}
	}
	startRing(top, devs, bytes, n-1, done, fail)
	return nil
}

// AllReduceTime estimates the uncontended duration of a ring
// all-reduce (for analytical cross-checks): 2·(N−1) steps of one
// chunk transfer each, assuming all steps proceed at the slowest
// ring edge.
func AllReduceTime(top *hw.Topology, devs []hw.DeviceID, bytes int64) (sim.Time, error) {
	n := len(devs)
	if n <= 1 {
		return 0, nil
	}
	chunk := bytes / int64(n)
	if chunk == 0 {
		chunk = 1
	}
	var worst sim.Time
	for i := 0; i < n; i++ {
		src, dst := devs[i], devs[(i+1)%n]
		var step sim.Time
		if top.CanP2P(src, dst) {
			d, err := top.TransferTime(src, dst, chunk)
			if err != nil {
				return 0, err
			}
			step = d
		} else {
			d1, err := top.TransferTime(src, hw.Host, chunk)
			if err != nil {
				return 0, err
			}
			d2, err := top.TransferTime(hw.Host, dst, chunk)
			if err != nil {
				return 0, err
			}
			step = d1 + d2
		}
		if step > worst {
			worst = step
		}
	}
	return sim.Time(2*(n-1)) * worst, nil
}
