package sim

// FIFO is a resource that serves one request at a time in arrival
// order. It models a GPU compute stream, a DMA copy engine, or a PCIe
// link under the store-and-forward contention model: each acquisition
// holds the resource exclusively for a caller-computed service time.
type FIFO struct {
	eng  *Engine
	name string // diagnostic: read in debugger and %+v dumps only

	busy  bool
	queue []*fifoReq

	// Accounting.
	BusyTime Time   // total time spent serving
	Served   uint64 // completed requests
}

type fifoReq struct {
	service Time
	start   func(at Time) // called when service begins (may be nil)
	done    func(at Time) // called when service completes
}

// NewFIFO creates a FIFO resource bound to an engine.
func NewFIFO(eng *Engine, name string) *FIFO {
	return &FIFO{eng: eng, name: name}
}

// Acquire enqueues a request that will hold the resource for service
// seconds. start (optional) fires when service begins; done fires when
// it completes. Both run as engine events.
func (f *FIFO) Acquire(service Time, start, done func(at Time)) {
	if service < 0 {
		panic("sim: negative service time")
	}
	r := &fifoReq{service: service, start: start, done: done}
	f.queue = append(f.queue, r)
	if !f.busy {
		f.dispatch()
	}
}

func (f *FIFO) dispatch() {
	if f.busy || len(f.queue) == 0 {
		return
	}
	r := f.queue[0]
	f.queue = f.queue[1:]
	f.busy = true
	if r.start != nil {
		r.start(f.eng.Now())
	}
	f.eng.After(r.service, func() {
		f.busy = false
		f.BusyTime += r.service
		f.Served++
		if r.done != nil {
			r.done(f.eng.Now())
		}
		f.dispatch()
	})
}

// Chain acquires a sequence of FIFO resources simultaneously for the
// same service time, invoking done only after the slowest completes.
// Resources must be passed in a globally consistent order by all
// callers (the hw package canonicalizes link order) so that the
// store-and-forward model cannot deadlock; since acquisition here is
// non-blocking enqueue, ordering only affects fairness, not safety.
//
// The model: a transfer occupies every link on its path for
// bytes/bottleneck-bandwidth. We implement that by acquiring each link
// for the full service time; completion is when all have served.
func Chain(eng *Engine, resources []*FIFO, service Time, done func(at Time)) {
	if len(resources) == 0 {
		// Pure delay with no contention.
		eng.After(service, func() { done(eng.Now()) })
		return
	}
	remaining := len(resources)
	for _, r := range resources {
		r.Acquire(service, nil, func(at Time) {
			remaining--
			if remaining == 0 {
				done(at)
			}
		})
	}
}
