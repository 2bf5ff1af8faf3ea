package analyzers

// errpath proves that every lock, shard lock and snapshot handle a
// function takes is released on every path out of it. It walks the CFG,
// so each diagnostic carries the concrete leaking path: where the
// resource was taken, which guards were crossed, and which exit leaked
// it — including the shape a branch-merging checker cannot see, a lock
// taken and then an early `if err != nil { return err }` that skips
// the release.
//
// Tracked resources:
//
//   - mu.Lock()/RLock() paired with Unlock()/RUnlock() on sync.Mutex /
//     sync.RWMutex — including the per-device shard locks
//     (vmShard.mu), with `defer mu.Unlock()` applied at every exit.
//   - Handle-style snapshots: `snap := x.Snapshot()` where the result
//     type has a Release method, paired with `snap.Release()`.
//
// Doc contracts (parseContracts): "Requires mu held" / "Requires sh.mu
// held" licenses both entering and leaving with that lock held, unless
// "released on return" demands the release on every exit; a call to a
// method documented as entry-held + released-on-return transfers the
// lock out of the caller. Panic paths are exempt.
//
// The exploration behind this pass is lockSpec, run once per Program;
// lockhold reports what its observer sees while a lock is held.

import (
	"go/ast"
	"go/types"
)

var Errpath = &Analyzer{
	Name: "errpath",
	Doc: "report locks, shard locks and snapshot handles still held at a " +
		"function exit — early error returns included — with the concrete " +
		"leaking path (acquisition, guards, exit) printed in each diagnostic",
	RunProject: func(pass *ProjectPass) error {
		return reportFindings(pass, pass.Prog.lifecycle(lockSpec).leaks)
	},
}

const lockKind = "lock"

// lockSpec is the lock lifecycle: errpath reports its leaks, lockhold
// its observer's findings.
var lockSpec = &lifeSpec{
	name:      "lock",
	kind:      lockKind,
	leakVerb:  "is still held",
	classify:  classifyErrpath,
	closers:   map[string]bool{"Release": true},
	entryOpen: func(e *lifeEngine) []string { return e.sum.heldOnEntry },
	// Leaving with an entry-held lock still held is the contract,
	// unless it demands the release.
	exitAllowed: func(e *lifeEngine, res string) bool {
		if e.sum.releasedOnReturn {
			return false
		}
		for _, r := range e.sum.heldOnEntry {
			if r == res {
				return true
			}
		}
		return false
	},
	observe: observeBlocking,
}

func classifyErrpath(e *lifeEngine, call *ast.CallExpr) []lifeEvent {
	info := e.pkg.Info
	if x, lock, ok := mutexCall(info, call); ok {
		if lock {
			return []lifeEvent{{op: lifeOpen, res: exprString(x), cond: condAlways, what: exprString(call)}}
		}
		return []lifeEvent{{op: lifeClose, res: exprString(x)}}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Snapshot":
		// Handle-style acquisition: the result owns a Release.
		if len(call.Args) == 0 && resultHasRelease(info, call) {
			return []lifeEvent{{op: lifeOpen, res: "", // bound to the assignment target
				cond: condAlways, what: exprString(call), kind: "snapshot"}}
		}
	case "Release":
		if len(call.Args) == 0 {
			return []lifeEvent{{op: lifeClose, res: exprString(sel.X)}}
		}
	default:
		// A callee documented "mu held on entry, released on return"
		// takes the lock with it.
		if key, ok := e.calleeKey(call); ok {
			if sum := e.prog.Funcs[key]; sum.recvHeld && sum.releasedOnReturn {
				return []lifeEvent{{op: lifeClose, res: exprString(sel.X) + ".mu"}}
			}
		}
	}
	return nil
}

// resultHasRelease reports whether the call's (single) result type has
// a Release method.
func resultHasRelease(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if _, ok := t.(*types.Tuple); ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Release")
	fn, ok := obj.(*types.Func)
	return ok && fn != nil
}
