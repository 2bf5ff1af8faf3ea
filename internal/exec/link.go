package exec

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// This file is the trainer's one model of the interconnect (DESIGN.md
// §12, "The link model"): the paper's Fig. 1 box — every device hangs
// off its own link, and all of them reach host memory through one
// shared, oversubscribed uplink. A link is a busy-until timeline; a
// transfer reserves bytes/bandwidth on every link of its path, after
// whatever those links already carry, and the goroutine that asked owes
// its lane a wait until the reservation ends:
//
//	swap-in, write-back, prefetch, clean-ahead   device link + uplink
//	p2p move                                     both devices' links
//	reduction (pull n-1 slices, push n-1 back)   the reducer's link
//
// so N devices swapping at once share the uplink's bandwidth instead of
// each getting all of it (Fig. 2(a)), while p2p moves and reductions on
// distinct devices overlap.
//
// Waiting is batched, never forgiven. A lane — one device's demand
// path, its DMA worker, or the reductions it performs — sleeps only
// when what it owes reaches linkQuantum; a smaller residue is carried
// as lane debt and pushes the lane's next reservation that much later.
// Per lane, at every instant, time slept + debt = Σ owed exactly and
// debt < linkQuantum; sleep overshoot is not credited back (on a busy
// machine it is mostly the wait for a CPU, and crediting it forgives
// modeled time). Sleeping per transfer instead would cost a timer tick —
// about a millisecond — for every 20 µs copy.

// linkQuantum is the shortest wait a lane ever sleeps: long enough that
// the timer's granularity is a few percent of it, short enough that a
// lane is never more than a fraction of a step ahead of its link.
const linkQuantum = 2 * time.Millisecond

// laneKind says which of a device's three sequential activities owes
// the wait for a reservation.
type laneKind int

const (
	laneDemand     laneKind = iota // synchronous swaps and p2p moves
	laneDMA                        // the device's async DMA worker
	laneCollective                 // reductions its worker performs
	laneKinds
)

// What a transfer's path holds besides the device's own link.
const (
	overUplink = -1 // host memory on the other end: the shared uplink
	noPeer     = -2 // nothing: a reduction occupies the reducer's link alone
)

// link is one modeled link's timeline. Reservations on it never
// overlap: each starts at or after busyUntil and moves it to its end.
type link struct {
	busyUntil time.Time
	busy      time.Duration // Σ reserved
}

// linkModel is the VM's interconnect state: links[d] is device d's
// link, the last element the host uplink; debt is indexed by lane
// (device × laneKind). mu guards both and is never held across a sleep.
type linkModel struct {
	mu    sync.Mutex
	links []link
	debt  []time.Duration
}

func newLinkModel(devices int) linkModel {
	return linkModel{links: make([]link, devices+1), debt: make([]time.Duration, devices*int(laneKinds))}
}

// LinkStats is the modeled busy time of every link so far: which one
// carried the most is the run's bottleneck.
type LinkStats struct {
	Uplink time.Duration
	Device []time.Duration
}

func (s LinkStats) add(o LinkStats) LinkStats {
	out := LinkStats{Uplink: s.Uplink + o.Uplink, Device: slices.Clone(o.Device)}
	for d, busy := range s.Device {
		out.Device[d] += busy
	}
	return out
}

// LinkStats returns each link's modeled busy time; all zero when no
// bandwidth is modeled.
func (vm *VM) LinkStats() LinkStats {
	m := &vm.link
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.links) - 1
	s := LinkStats{Uplink: m.links[n].busy, Device: make([]time.Duration, n)}
	for d := range s.Device {
		s.Device[d] = m.links[d].busy
	}
	return s
}

// linkTime is how long bytes occupy a link of bps bytes per second,
// rounded down to the nanosecond. The 128-bit intermediate keeps sizes
// past 9.2 GB from wrapping into a negative — free — duration; a time
// that does not fit saturates.
func linkTime(bytes, bps int64) time.Duration {
	if bytes <= 0 || bps <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(bytes), uint64(time.Second))
	if hi >= uint64(bps) {
		return math.MaxInt64
	}
	if ns, _ := bits.Div64(hi, lo, uint64(bps)); ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// charge reserves bytes at bps > 0 on dev's link and on peer's — another
// device, overUplink or noPeer — for dev's lane of the given kind, and
// returns the reservation's modeled [start, end): it starts once the
// lane (the clock plus the lane's debt) and every link on the path are
// free. The caller then sleeps whatever its lane owes if that has
// reached linkQuantum; the sleep runs with no lock held. Must be called
// without any shard lock.
func (vm *VM) charge(bps int64, kind laneKind, dev, peer int, bytes int64) (start, end time.Time) {
	m := &vm.link
	path := [2]*link{&m.links[dev], nil}
	switch {
	case peer == overUplink:
		path[1] = &m.links[len(m.links)-1]
	case peer >= 0:
		path[1] = &m.links[peer]
	}
	d := linkTime(bytes, bps)

	m.mu.Lock()
	now := vm.clk.Now()
	debt := &m.debt[dev*int(laneKinds)+int(kind)]
	start = now.Add(*debt)
	for _, l := range path {
		if l != nil && l.busyUntil.After(start) {
			start = l.busyUntil
		}
	}
	end = start.Add(d)
	for _, l := range path {
		if l != nil {
			l.busyUntil = end
			l.busy += d
		}
	}
	owed := end.Sub(now)
	sleeps := owed >= linkQuantum
	if sleeps {
		*debt = 0
	} else {
		*debt = owed
	}
	m.mu.Unlock()

	if sleeps {
		vm.clk.Sleep(owed)
	}
	return start, end
}

// chargeReduce books the remote gradient traffic of reducing bytes
// across replicas on device dev: the reducer pulls replicas-1 remote
// slices and pushes the result back to as many. A monolithic rendezvous
// pays its whole payload on one link while every participant parks;
// chunks assigned to different workers cross different links at once
// and hide behind other workers' compute.
func (vm *VM) chargeReduce(dev, replicas int, bytes int64) {
	if bps := vm.xferConfig().bps; bps > 0 {
		vm.charge(bps, laneCollective, dev, noPeer, 2*int64(replicas-1)*bytes)
	}
}
