package sim

// FIFO is a resource that serves one request at a time in arrival
// order. It models a GPU compute stream, a DMA copy engine, or a PCIe
// link under the store-and-forward contention model: each acquisition
// holds the resource exclusively for a caller-computed service time.
type FIFO struct {
	eng  *Engine
	name string // diagnostic: read in debugger and %+v dumps only

	busy bool
	cur  fifoReq // the request in service while busy
	// queue[head:] are the waiting requests in arrival order. Serving
	// one advances head; the slice rewinds when it drains, and Acquire
	// compacts it rather than growing it once half of it is dead, so a
	// FIFO that never drains still holds a bounded array.
	queue []fifoReq
	head  int
	// complete is f.finish, bound once: scheduling a completion event
	// builds no closure.
	complete func()

	// Accounting.
	BusyTime Time   // total time spent serving
	Served   uint64 // completed requests
}

// fifoReq is one queued acquisition. A request made through Chain
// reports to its join instead of carrying a done callback.
type fifoReq struct {
	service Time
	start   func(at Time) // called when service begins (may be nil)
	done    func(at Time) // called when service completes (may be nil)
	join    *join
}

// NewFIFO creates a FIFO resource bound to an engine.
func NewFIFO(eng *Engine, name string) *FIFO {
	f := &FIFO{eng: eng, name: name}
	f.complete = f.finish
	return f
}

// Acquire enqueues a request that will hold the resource for service
// seconds. start (optional) fires when service begins; done fires when
// it completes. Both run as engine events; see the package comment for
// what done may do.
func (f *FIFO) Acquire(service Time, start, done func(at Time)) {
	f.enqueue(fifoReq{service: service, start: start, done: done})
}

func (f *FIFO) enqueue(r fifoReq) {
	if !(r.service >= 0) {
		panic("sim: negative or NaN service time")
	}
	if f.head > 0 && len(f.queue) == cap(f.queue) && f.head >= len(f.queue)/2 {
		n := copy(f.queue, f.queue[f.head:])
		clear(f.queue[n:])
		f.queue = f.queue[:n]
		f.head = 0
	}
	f.queue = append(f.queue, r)
	if !f.busy {
		f.dispatch()
	}
}

func (f *FIFO) dispatch() {
	if f.busy || f.head == len(f.queue) {
		return
	}
	f.cur = f.queue[f.head]
	f.queue[f.head] = fifoReq{}
	f.head++
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
	f.busy = true
	if f.cur.start != nil {
		f.cur.start(f.eng.Now())
	}
	f.eng.After(f.cur.service, f.complete)
}

// finish completes the request in service. It is copied out first: done
// may re-acquire this FIFO, which puts the next request in f.cur.
func (f *FIFO) finish() {
	r := f.cur
	f.cur = fifoReq{}
	f.busy = false
	f.BusyTime += r.service
	f.Served++
	now := f.eng.Now()
	if r.join != nil {
		f.eng.arrive(r.join, now)
	}
	if r.done != nil {
		r.done(now)
	}
	f.dispatch()
}

// join counts down the resources of one Chain and reports the last
// completion.
type join struct {
	remaining int
	done      func(at Time)
}

// arrive counts one of j's resources done. After the last, no request
// refers to j any more, so it goes back on the engine's free list before
// done runs (done may Chain again and reuse it).
func (e *Engine) arrive(j *join, at Time) {
	j.remaining--
	if j.remaining > 0 {
		return
	}
	done := j.done
	j.done = nil
	e.joins = append(e.joins, j)
	done(at)
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
	var j *join
	if n := len(eng.joins); n > 0 {
		j = eng.joins[n-1]
		eng.joins = eng.joins[:n-1]
	} else {
		j = new(join)
	}
	j.remaining, j.done = len(resources), done
	for _, r := range resources {
		r.enqueue(fifoReq{service: service, join: j})
	}
}
