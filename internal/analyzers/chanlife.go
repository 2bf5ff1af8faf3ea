package analyzers

// Chanlife verifies the executor's goroutine/channel lifecycle
// protocol interprocedurally: a check that looks only inside the
// spawned body itself forces //lint:allow noise whenever the shutdown
// construct lives one call deeper.
//
//   - Every `go` statement whose target resolves statically must reach
//     a shutdown construct at SOME call depth: a select, a channel
//     receive, a channel range, WaitGroup.Done or Cond.Wait — the
//     constructs by which dmaWorker, the device workers and the nn
//     pool learn that Close/WaitIdle wants them gone. A goroutine
//     whose whole transitive call tree contains none of these outlives
//     its owner and trips the -race leak checks nondeterministically.
//   - Done-channels — fields or variables named done/quit/stop/abort —
//     carry a completion signal with exactly one delivery. A class
//     that is both closed and sent on mixes the two signalling
//     conventions: the send can panic after the close, and receivers
//     cannot tell completion from data. A class sent on from two or
//     more different functions has racing completion signals.
//
// Dynamic spawn targets (function values, interface methods) are not
// checkable, exactly as before; the executor has none on its hot
// paths.

import (
	"regexp"
	"sort"
)

var Chanlife = &Analyzer{
	Name: "chanlife",
	Doc: "verify goroutine/channel lifecycle: every spawned goroutine reaches a shutdown path " +
		"at some call depth, and done-channels (done/quit/stop/abort) have one completion signal — " +
		"closed or single-sender, never both",
	RunProject: runChanlife,
}

// doneNameRe classifies completion-signal channels by name. Worker
// queues (work, jobs, errs) intentionally mix senders and a close and
// are out of scope.
var doneNameRe = regexp.MustCompile(`(?i)^(done|quit|stop|abort)$`)

func runChanlife(pass *ProjectPass) error {
	prog := pass.Prog

	// 1. Spawn shutdown reachability, at any call depth.
	for _, k := range prog.Order {
		for _, sp := range prog.Funcs[k].Spawns {
			if sp.callee == (FuncKey{}) {
				continue // dynamic target: not checkable
			}
			if prog.Funcs[sp.callee] == nil {
				continue // external package: body not loaded
			}
			if !prog.ReachesShutdown(sp.callee) {
				pass.Reportf(sp.pos,
					"goroutine %s has no shutdown path at any call depth (no WaitGroup.Done, select, channel receive or channel range); it will outlive its owner",
					sp.label)
			}
		}
	}

	// 2+3. Done-channel discipline.
	type chanUse struct {
		sends  []chanOp
		closes []chanOp
		byFn   map[FuncKey]bool // distinct sending functions
		fns    []FuncKey
	}
	uses := make(map[chanClass]*chanUse)
	for _, k := range prog.Order {
		for _, op := range prog.Funcs[k].ChanOps {
			if !doneNameRe.MatchString(op.class.Name) {
				continue
			}
			u := uses[op.class]
			if u == nil {
				u = &chanUse{byFn: make(map[FuncKey]bool)}
				uses[op.class] = u
			}
			if op.send {
				u.sends = append(u.sends, op)
				if !u.byFn[k] {
					u.byFn[k] = true
					u.fns = append(u.fns, k)
				}
			} else {
				u.closes = append(u.closes, op)
			}
		}
	}
	classes := make([]chanClass, 0, len(uses))
	for c := range uses {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].String() < classes[j].String() })
	for _, c := range classes {
		u := uses[c]
		switch {
		case len(u.closes) > 0 && len(u.sends) > 0:
			closePos := prog.Fset.Position(u.closes[0].pos)
			for _, s := range u.sends {
				pass.Reportf(s.pos,
					"send on done-channel %s, which is closed at %s:%d; a done-channel signals completion exactly once — close it or send, never both",
					c, shortFile(closePos.Filename), closePos.Line)
			}
		case len(u.fns) > 1:
			names := ""
			for i, f := range u.fns {
				if i > 0 {
					names += ", "
				}
				names += f.String()
			}
			for _, s := range u.sends {
				pass.Reportf(s.pos,
					"done-channel %s has %d sending functions (%s); exactly one sender may deliver the completion signal",
					c, len(u.fns), names)
			}
		}
	}
	return nil
}
