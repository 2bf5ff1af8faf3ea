// Bounded exhaustive exploration of the DMA claim state machine.
//
// The executor's VM packs each buffer's claim state into one atomic
// word (internal/claimword) advanced only by CAS inside the exec
// state-machine helpers (the claimdiscipline analyzer enforces the
// "only"), and its safety rests on one invariant (DESIGN.md §9/§12):
// every synchronous claim on a RESIDENT buffer is COMMITTED, i.e.
// completes autonomously, so eviction may wait on it without deadlock.
// harmonylint proves no code path mutates the word ad hoc; this model
// checker proves the transition *protocol* itself upholds the
// invariant for every interleaving of the device workers and their DMA
// engines over the plan's opening transfer sequence.
//
// The model applies the claimword transition functions — the very
// functions the executor CASes into place — to per-buffer Words. Each
// model step publishes either one transition (one CAS in the real
// executor) or a composite taken inside a single vmShard critical
// section whose intermediate words are inert: not resident, or already
// waitable, so no lock-free observer (Ensure's pin fast path, the
// eviction scan) can act differently on the intermediate than on the
// final word. Per device, one compute agent replays the demand
// Ensure/unpin sequence of the plan's first tasks in micro-steps
// (claim, reserve with nondeterministic victim choice, two-step dirty
// write-backs, commit, settle), an optional prefetch op mirrors
// EnsureAsync's spare-capacity claim, and a DMA worker drains the
// prefetch queue in two observable steps (pop, settle). Every
// reachable state is checked for claimword.Violation, for capacity
// overflow, and for global deadlock; a violating interleaving is
// replayed as a Gantt counterexample.
//
// Exploration runs under both the declared capacity and the tightest
// feasible one (the largest single task's pin set), because eviction
// interleavings only exist under pressure. Topology.Mutation =
// "skip-commit" re-runs the exploration with the commit step elided —
// the seeded-bug proof that the checker catches protocol violations.
package schedcheck

import (
	"fmt"

	"harmony/internal/claimword"
	"harmony/internal/hw"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/tensor"
	"harmony/internal/trace"
)

const (
	opEnsure byte = iota
	opUnpin
	opPrefetch
)

// mop is one scripted operation of a device's compute agent.
type mop struct {
	kind   byte
	target int    // tensor index for ensure/prefetch
	unpin  []int  // tensor indices released at task end
	dirty  []bool // parallel to unpin: mutated by the task
}

// mtensor is one modeled buffer's static description.
type mtensor struct {
	name  string
	bytes int64
	dev   int // persistent tensors have a fixed home device per plan
}

// dmaModel is the static part of the exploration.
type dmaModel struct {
	tensors    []mtensor
	scripts    [][]mop // per modeled device
	caps       []int64 // per modeled device capacity
	budgets    []int64 // per modeled device prefetch budget
	skipCommit bool
	dt         bool // plan uses dirty tracking: clean victims may be dropped
}

// Dynamic state, encoded to a fixed-width key for memoization.
// Layout per tensor: word low byte (state+flags), pins, dirty. Per
// agent: pc, phase, victim+1. Per worker: busy+1, queue length, queue
// entries.
type mkey string

// mbuf is one modeled buffer: the packed claim word exactly as the
// executor publishes it, plus the dirty mark (an atomic.Bool beside
// the word in the real buffer, not part of it).
type mbuf struct {
	word  claimword.Word
	dirty bool
}

type magent struct {
	pc, phase int
	victim    int // tensor being written back by reserve, -1 none
}

type mworker struct {
	busy  int // tensor in service, -1 none
	queue []int
}

type mstate struct {
	bufs    []mbuf
	agents  []magent
	workers []mworker
}

func (st *mstate) clone() *mstate {
	c := &mstate{
		bufs:    append([]mbuf(nil), st.bufs...),
		agents:  append([]magent(nil), st.agents...),
		workers: make([]mworker, len(st.workers)),
	}
	for i, w := range st.workers {
		c.workers[i] = mworker{busy: w.busy, queue: append([]int(nil), w.queue...)}
	}
	return c
}

func (st *mstate) key() mkey {
	n := len(st.bufs)*3 + len(st.agents)*3
	for _, w := range st.workers {
		n += 2 + len(w.queue)
	}
	b := make([]byte, 0, n)
	for _, buf := range st.bufs {
		dirty := byte(0)
		if buf.dirty {
			dirty = 1
		}
		b = append(b, byte(buf.word&0xff), byte(buf.word.Pins()), dirty)
	}
	for _, a := range st.agents {
		b = append(b, byte(a.pc), byte(a.phase), byte(a.victim+1))
	}
	for _, w := range st.workers {
		b = append(b, byte(w.busy+1), byte(len(w.queue)))
		for _, q := range w.queue {
			b = append(b, byte(q))
		}
	}
	return mkey(b)
}

// used returns device d's resident bytes (derived, not stored: every
// modeled tensor has a fixed home device).
func (m *dmaModel) used(st *mstate, d int) int64 {
	var u int64
	for i, mt := range m.tensors {
		if mt.dev == d && st.bufs[i].word.Resident() {
			u += mt.bytes
		}
	}
	return u
}

func (m *dmaModel) pfBytes(st *mstate, d int) int64 {
	var u int64
	for i, mt := range m.tensors {
		if mt.dev == d && st.bufs[i].word.Prefetched() {
			u += mt.bytes
		}
	}
	return u
}

// succ is one enabled transition: the successor state plus its
// counterexample annotation.
type succ struct {
	st    *mstate
	label string
	dev   int
	lane  trace.Lane
}

// transitions enumerates every enabled transition from st.
func (m *dmaModel) transitions(st *mstate) []succ {
	var out []succ
	for d := range m.scripts {
		out = append(out, m.agentSteps(st, d)...)
		out = append(out, m.workerSteps(st, d)...)
	}
	return out
}

func (m *dmaModel) agentSteps(st *mstate, d int) []succ {
	a := st.agents[d]
	if a.pc >= len(m.scripts[d]) {
		return nil
	}
	op := m.scripts[d][a.pc]
	name := func(t int) string { return m.tensors[t].name }
	switch op.kind {
	case opPrefetch:
		// EnsureAsync: claim(async) + commit inside one shard critical
		// section (the async claim's intermediate word is waitable, so
		// the composite is inert to observers), or silent no-op.
		t := op.target
		c := st.clone()
		buf := &c.bufs[t]
		fits := m.used(st, d)+m.tensors[t].bytes <= m.caps[d] &&
			m.pfBytes(st, d)+m.tensors[t].bytes <= m.budgets[d]
		label := "pf skip " + name(t)
		if w, ok := claimword.Claim(buf.word, claimword.SwapIn, true, false, claimword.NeedEmpty); ok && fits {
			w, _ = claimword.Commit(w)
			buf.word = w
			buf.dirty = false
			c.workers[d].queue = append(c.workers[d].queue, t)
			label = "pf issue " + name(t)
		}
		c.agents[d].pc++
		return []succ{{c, label, d, trace.Prefetch}}
	case opUnpin:
		c := st.clone()
		for i, t := range op.unpin {
			c.bufs[t].word, _ = claimword.Unpin(c.bufs[t].word)
			if op.dirty[i] {
				c.bufs[t].dirty = true
			}
		}
		c.agents[d].pc++
		return []succ{{c, "task done (unpin)", d, trace.Compute}}
	case opEnsure:
		t := op.target
		buf := st.bufs[t]
		switch a.phase {
		case 0: // acquire
			if buf.word.Claimed() {
				return nil // in flight: demand rides the DMA (blocked)
			}
			if buf.word.Resident() {
				// Ensure fast path: pin CAS, then consume the prefetch
				// mark (the intermediate pinned word is idle-resident —
				// inert).
				c := st.clone()
				w, _ := claimword.Pin(c.bufs[t].word)
				if w.Prefetched() {
					w, _ = claimword.ConsumePrefetch(w)
				}
				c.bufs[t].word = w
				c.agents[d].pc++
				return []succ{{c, "pin " + name(t), d, trace.Compute}}
			}
			c := st.clone()
			c.bufs[t].word, _ = claimword.Claim(c.bufs[t].word, claimword.SwapIn, false, false, claimword.NeedEmpty)
			c.agents[d].phase = 1
			return []succ{{c, "claim " + name(t), d, trace.SwapIn}}
		case 1: // reserve: evict until the claim fits, then commit
			if a.victim >= 0 {
				c := st.clone()
				v := &c.bufs[a.victim]
				v.word, _ = claimword.Settle(v.word, false, 0)
				v.dirty = false
				c.agents[d].victim = -1
				return []succ{{c, "evicted " + name(a.victim), d, trace.SwapOut}}
			}
			if m.used(st, d)+m.tensors[t].bytes <= m.caps[d] {
				c := st.clone()
				buf := &c.bufs[t]
				if m.skipCommit {
					// Seeded bug: publish residency without the commit
					// flags — the raw-OR the Commit transition exists to
					// make impossible.
					buf.word |= claimword.FlagResident
				} else {
					buf.word, _ = claimword.Commit(buf.word)
				}
				c.agents[d].phase = 2
				return []succ{{c, "commit " + name(t), d, trace.SwapIn}}
			}
			var out []succ
			for v, mt := range m.tensors {
				vb := st.bufs[v]
				vw, ok := claimword.Claim(vb.word, claimword.SwapOut, false, true, claimword.NeedUnpinned)
				if mt.dev != d || !vb.word.Resident() || !ok {
					continue
				}
				c := st.clone()
				if !vb.dirty && m.dirtyTracking() {
					// Clean drop: claim + settle under the shard lock (the
					// intermediate committed-at-claim word is waitable —
					// inert).
					c.bufs[v].word, _ = claimword.Settle(vw, false, 0)
					out = append(out, succ{c, "drop " + name(v), d, trace.SwapOut})
					continue
				}
				// Write-back: committed at claim in a single CAS, settled
				// by this agent's next step — the two-step window other
				// transitions can observe.
				c.bufs[v].word = vw
				c.agents[d].victim = v
				out = append(out, succ{c, "writeback " + name(v), d, trace.SwapOut})
			}
			if out == nil {
				// No victim: wait on an in-flight claim if one exists
				// (blocked), otherwise the device is wedged — reported by
				// the deadlock detector.
				return nil
			}
			return out
		default: // 2: copy done, settle and pin
			c := st.clone()
			buf := &c.bufs[t]
			buf.word, _ = claimword.Settle(buf.word, true, +1)
			buf.dirty = false
			c.agents[d].phase = 0
			c.agents[d].pc++
			return []succ{{c, "settle " + name(t), d, trace.SwapIn}}
		}
	}
	return nil
}

func (m *dmaModel) workerSteps(st *mstate, d int) []succ {
	w := st.workers[d]
	if w.busy >= 0 {
		c := st.clone()
		buf := &c.bufs[w.busy]
		buf.word, _ = claimword.Settle(buf.word, true, 0)
		buf.dirty = false
		c.workers[d].busy = -1
		return []succ{{c, "dma settle " + m.tensors[w.busy].name, d, trace.Prefetch}}
	}
	if len(w.queue) > 0 {
		c := st.clone()
		c.workers[d].busy = w.queue[0]
		c.workers[d].queue = append([]int(nil), w.queue[1:]...)
		return []succ{{c, "dma copy " + m.tensors[w.queue[0]].name, d, trace.Prefetch}}
	}
	return nil
}

func (m *dmaModel) dirtyTracking() bool { return m.dt }

// checkState returns a violation description for st, or "". The
// invariant itself lives in claimword.Violation — the model checks the
// same predicate the executor's word encoding defines.
func (m *dmaModel) checkState(st *mstate) string {
	for i, buf := range st.bufs {
		if v := claimword.Violation(buf.word); v != "" {
			return fmt.Sprintf("%s: %s", m.tensors[i].name, v)
		}
	}
	for d := range m.scripts {
		if u := m.used(st, d); u > m.caps[d] {
			return fmt.Sprintf("gpu%d resident bytes %d exceed modeled capacity %d", d, u, m.caps[d])
		}
	}
	return ""
}

func (m *dmaModel) done(st *mstate) bool {
	for d, a := range st.agents {
		if a.pc < len(m.scripts[d]) {
			return false
		}
		if st.workers[d].busy >= 0 || len(st.workers[d].queue) > 0 {
			return false
		}
	}
	return true
}

// parent links reconstruct the counterexample interleaving.
type mparent struct {
	prev  mkey
	label string
	dev   int
	lane  trace.Lane
}

// explore runs BFS over the model's state space. It returns the number
// of states visited and, on a violation, the counterexample trace and
// message.
func (m *dmaModel) explore() (int, *trace.Trace, string) {
	init := &mstate{
		bufs:    make([]mbuf, len(m.tensors)),
		agents:  make([]magent, len(m.scripts)),
		workers: make([]mworker, len(m.scripts)),
	}
	for d := range init.agents {
		init.agents[d].victim = -1
		init.workers[d].busy = -1
	}
	parents := make(map[mkey]mparent, 1024)
	k0 := init.key()
	parents[k0] = mparent{prev: ""}
	work := []*mstate{init}
	visited := 0
	fail := func(st *mstate, msg string) (int, *trace.Trace, string) {
		return visited, m.counterexample(parents, st, msg), msg
	}
	for len(work) > 0 && visited < modelMaxStates {
		st := work[0]
		work = work[1:]
		visited++
		if msg := m.checkState(st); msg != "" {
			return fail(st, msg)
		}
		succs := m.transitions(st)
		if len(succs) == 0 && !m.done(st) {
			return fail(st, "no transition enabled: DMA protocol deadlock")
		}
		k := st.key()
		for _, s := range succs {
			sk := s.st.key()
			if _, ok := parents[sk]; ok {
				continue
			}
			parents[sk] = mparent{prev: k, label: s.label, dev: s.dev, lane: s.lane}
			work = append(work, s.st)
		}
	}
	return visited, nil, ""
}

// counterexample replays the parent chain of the violating state as a
// timeline: one span per micro-step, the violation on the fault lane.
func (m *dmaModel) counterexample(parents map[mkey]mparent, bad *mstate, msg string) *trace.Trace {
	var steps []mparent
	k := bad.key()
	for {
		p, ok := parents[k]
		if !ok || p.prev == "" {
			break
		}
		steps = append(steps, p)
		k = p.prev
	}
	tl := &trace.Trace{}
	n := len(steps)
	for i := n - 1; i >= 0; i-- {
		s := steps[i]
		at := sim.Time(n - 1 - i)
		tl.Add(hw.DeviceID(s.dev), s.lane, s.label, at, at+1)
	}
	tl.Add(hw.DeviceID(0), trace.Fault, "!"+msg, sim.Time(n), sim.Time(n+1))
	return tl
}

// buildDMAModel derives the model from a plan: the first modelTasks
// tasks of the first modelDevices device queues, their persistent
// tensors, and a prefetch op per task boundary when the plan prefetches.
func buildDMAModel(s *sched.Schedule, topo Topology, capTight bool) (*dmaModel, bool) {
	devs := min(modelDevices, s.NGPUs)
	m := &dmaModel{
		skipCommit: topo.Mutation == "skip-commit",
		dt:         s.MemPolicy.DirtyTracking,
	}
	index := make(map[*tensor.Tensor]int)
	var tightest int64
	for d := 0; d < devs; d++ {
		var script []mop
		q := s.Queues[d]
		if len(q) > modelTasks {
			q = q[:modelTasks]
		}
		persistent := func(t int) []*tensor.Tensor {
			var out []*tensor.Tensor
			for _, in := range s.Queues[d][t].Inputs {
				if in.Kind.IsPersistent() {
					out = append(out, in)
				}
			}
			return out
		}
		for ti := range q {
			var pin int64
			if s.Prefetch && ti+1 < len(q) {
				if next := persistent(ti + 1); len(next) > 0 {
					script = append(script, mop{kind: opPrefetch, target: m.intern(index, next[0], d)})
				}
			}
			var un []int
			var dirty []bool
			for _, t := range persistent(ti) {
				idx := m.intern(index, t, d)
				script = append(script, mop{kind: opEnsure, target: idx})
				pin += t.Bytes
				un = append(un, idx)
				mut := false
				for _, mu := range s.Queues[d][ti].Mutates {
					if mu == t {
						mut = true
					}
				}
				dirty = append(dirty, mut)
			}
			if len(un) > 0 {
				script = append(script, mop{kind: opUnpin, unpin: un, dirty: dirty})
			}
			if pin > tightest {
				tightest = pin
			}
		}
		m.scripts = append(m.scripts, script)
	}
	if len(m.tensors) == 0 {
		return nil, false
	}
	m.caps = make([]int64, devs)
	m.budgets = make([]int64, devs)
	for d := range m.caps {
		if capTight {
			m.caps[d] = tightest
			m.budgets[d] = tightest / 2
		} else {
			m.caps[d] = topo.DeviceBytes
			m.budgets[d] = topo.prefetchBudget()
		}
	}
	if capTight && tightest >= topo.DeviceBytes {
		return nil, false // tight run would duplicate (or exceed) the real one
	}
	return m, true
}

func (m *dmaModel) intern(index map[*tensor.Tensor]int, t *tensor.Tensor, dev int) int {
	if i, ok := index[t]; ok {
		return i
	}
	i := len(m.tensors)
	index[t] = i
	m.tensors = append(m.tensors, mtensor{name: t.Name, bytes: t.Bytes, dev: dev})
	return i
}

// exploreDMA runs the bounded exploration under the declared and the
// tight capacity and records any invariant violation.
func exploreDMA(s *sched.Schedule, topo Topology, r *Report) {
	if topo.Mutation != "" && topo.Mutation != "skip-commit" {
		r.addf("plan", nil, "unknown DMA mutation %q (want \"skip-commit\")", topo.Mutation)
		return
	}
	for _, tight := range []bool{false, true} {
		m, ok := buildDMAModel(s, topo, tight)
		if !ok {
			continue
		}
		states, tl, msg := m.explore()
		r.DMAStates += states
		if msg != "" {
			regime := "declared"
			if tight {
				regime = "eviction-pressure"
			}
			r.addf("dma-claim", tl, "%s (under %s capacity, %d states explored)", msg, regime, states)
			return
		}
	}
}
