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

// fifoReq is one queued acquisition: its service time and the index of
// its completion record in Engine.recs. It holds no pointer, so queue
// copies and f.cur take no write barrier.
type fifoReq struct {
	service Time
	rec     int32
}

// record is the completion of one Acquire, or of one Chain across all
// its resources: remaining counts the resources still to serve it. It
// is written once when taken and cleared once when the last resource
// completes.
type record struct {
	remaining int
	start     func(at Time) // called when service begins (may be nil; Acquire only)
	done      func(at Time) // called when the last resource completes (may be nil)
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
	checkService(service)
	f.enqueue(fifoReq{service: service, rec: f.eng.takeRecord(1, start, done)})
}

// checkService rejects a service time no comparison orders, or a
// negative one, before the request takes a record.
func checkService(service Time) {
	if !(service >= 0) {
		panic("sim: negative or NaN service time")
	}
}

// takeRecord fills a free record, growing the table only when none is
// free.
func (e *Engine) takeRecord(remaining int, start, done func(at Time)) int32 {
	r := record{remaining: remaining, start: start, done: done}
	if n := len(e.freeRecs) - 1; n >= 0 {
		i := e.freeRecs[n]
		e.freeRecs = e.freeRecs[:n]
		e.recs[i] = r
		return i
	}
	e.recs = append(e.recs, r)
	return int32(len(e.recs) - 1)
}

func (f *FIFO) enqueue(r fifoReq) {
	if f.head > 0 && len(f.queue) == cap(f.queue) && f.head >= len(f.queue)/2 {
		n := copy(f.queue, f.queue[f.head:])
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
	f.head++
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
	f.busy = true
	if start := f.eng.recs[f.cur.rec].start; start != nil {
		start(f.eng.Now())
	}
	f.eng.After(f.cur.service, f.complete)
}

// finish completes the request in service. It is copied out first: done
// may re-acquire this FIFO, which puts the next request in f.cur.
func (f *FIFO) finish() {
	r := f.cur
	f.busy = false
	f.BusyTime += r.service
	f.Served++
	f.eng.arrive(r.rec, f.eng.Now())
	f.dispatch()
}

// arrive counts one of record i's resources done. After the last, no
// request refers to the record any more, so it is cleared and goes back
// on the free list before done runs (done may Acquire or Chain again and
// reuse it).
func (e *Engine) arrive(i int32, at Time) {
	rec := &e.recs[i]
	rec.remaining--
	if rec.remaining > 0 {
		return
	}
	done := rec.done
	*rec = record{}
	e.freeRecs = append(e.freeRecs, i)
	if done != nil {
		done(at)
	}
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
	checkService(service)
	if len(resources) == 0 {
		// Pure delay with no contention.
		eng.After(service, func() { done(eng.Now()) })
		return
	}
	rec := eng.takeRecord(len(resources), nil, done)
	for _, r := range resources {
		r.enqueue(fifoReq{service: service, rec: rec})
	}
}
