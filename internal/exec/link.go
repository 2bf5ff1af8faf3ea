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
// whatever those links already carry:
//
//	swap-in, write-back, prefetch                device link + uplink
//	p2p move                                     both devices' links
//	reduction (pull n-1 slices, push n-1 back)   the reducer's link
//
// so N devices swapping at once share the uplink's bandwidth instead of
// each getting all of it (Fig. 2(a)), while p2p moves and reductions on
// distinct devices overlap.
//
// A copy is waited for by the lane that made it: the goroutine that
// asked owes its lane a wait until the reservation ends. A reduction is
// waited for by the tasks that read its result: the reducer books it
// and moves on, and each consumer's demand lane owes the wait until the
// reservation ends before the consumer runs (await).
//
// Waiting is batched, never forgiven. A lane — one device's demand
// path or its DMA worker — sleeps only when what it owes reaches
// linkQuantum; a smaller residue is carried as lane debt and pushes the
// lane's next reservation or wait that much later. Per lane, at every
// instant, time slept + debt = Σ owed exactly and debt < linkQuantum;
// sleep overshoot is not credited back (on a busy machine it is mostly
// the wait for a CPU, and crediting it forgives modeled time). Sleeping
// per transfer instead would cost a timer tick — about a millisecond —
// for every 20 µs copy.

// linkQuantum is the shortest wait a lane ever sleeps: long enough that
// the timer's granularity is a few percent of it, short enough that a
// lane is never more than a fraction of a step ahead of its link.
const linkQuantum = 2 * time.Millisecond

// laneKind says which of a device's two sequential activities owes the
// wait for a reservation.
type laneKind int

const (
	laneDemand laneKind = iota // synchronous swaps, p2p moves, waits for reductions
	laneDMA                    // the device's async DMA worker
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

// reserve books d on dev's link and on peer's — another device,
// overUplink or noPeer — starting at from or when the last link on the
// path is free, whichever is later. m.mu must be held.
func (m *linkModel) reserve(dev, peer int, d time.Duration, from time.Time) (start, end time.Time) {
	path := [2]*link{&m.links[dev], nil}
	switch {
	case peer == overUplink:
		path[1] = &m.links[len(m.links)-1]
	case peer >= 0:
		path[1] = &m.links[peer]
	}
	start = from
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
	return start, end
}

// owe charges a lane with the given debt the wait until end, now being
// the clock, and returns what the lane sleeps: end − now once that has
// reached linkQuantum, else nothing, the wait carried as its debt. The
// link model's mutex must be held.
func owe(debt *time.Duration, now, end time.Time) (sleep time.Duration) {
	owed := end.Sub(now)
	if owed < linkQuantum {
		*debt = owed
		return 0
	}
	*debt = 0
	return owed
}

// charge reserves bytes at bps > 0 on dev's link and on peer's for dev's
// lane of the given kind, and returns the reservation's modeled
// [start, end): it starts once the lane (the clock plus the lane's debt)
// and every link on the path are free. The caller then sleeps whatever
// its lane owes if that has reached linkQuantum; the sleep runs with no
// lock held. Must be called without any shard lock.
func (vm *VM) charge(bps int64, kind laneKind, dev, peer int, bytes int64) (start, end time.Time) {
	m := &vm.link
	d := linkTime(bytes, bps)
	m.mu.Lock()
	now := vm.clk.Now()
	debt := &m.debt[dev*int(laneKinds)+int(kind)]
	start, end = m.reserve(dev, peer, d, now.Add(*debt))
	sleep := owe(debt, now, end)
	m.mu.Unlock()

	if sleep > 0 {
		vm.clk.Sleep(sleep)
	}
	return start, end
}

// chargeReduce books the remote gradient traffic of reducing bytes
// across replicas on device dev: the reducer pulls replicas-1 remote
// slices and pushes the result back to as many. Nobody sleeps here: the
// reservation starts when dev's link is free and the reducer moves on.
// What waits for its end is the tasks that read the result (await).
// Returns the reservation, or two zero times when no link is modeled.
func (vm *VM) chargeReduce(dev, replicas int, bytes int64) (start, end time.Time) {
	bps := vm.cfg.bps
	if bps <= 0 {
		return start, end
	}
	m := &vm.link
	d := linkTime(2*int64(replicas-1)*bytes, bps)
	m.mu.Lock()
	start, end = m.reserve(dev, noPeer, d, vm.clk.Now())
	m.mu.Unlock()
	return start, end
}

// await makes dev's demand lane owe the wait until end, the end of a
// reduction whose result the lane's next task reads, under the
// quantum-and-debt rule: if the lane's own time — the clock plus its
// debt — is already past end it owes nothing more.
// Returns how much later than its own time the lane is free: the part
// of the reservation nothing hid. Must be called without any shard lock.
func (vm *VM) await(dev int, end time.Time) (exposed time.Duration) {
	m := &vm.link
	m.mu.Lock()
	now := vm.clk.Now()
	debt := &m.debt[dev*int(laneKinds)+int(laneDemand)]
	var sleep time.Duration
	if free := now.Add(*debt); end.After(free) {
		exposed = end.Sub(free)
		sleep = owe(debt, now, end)
	}
	m.mu.Unlock()

	if sleep > 0 {
		vm.clk.Sleep(sleep)
	}
	return exposed
}
