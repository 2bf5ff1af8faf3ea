package analyzers

// errpath proves that every lock a function takes — the per-device
// shard locks (vmShard.mu) among them — is released on every path out
// of it. It walks the CFG, so each diagnostic carries the concrete
// leaking path: where the lock was taken, which guards were crossed,
// and which exit leaked it — including the shape a branch-merging
// checker cannot see, a lock taken and then an early
// `if err != nil { return err }` that skips the release.
//
// Tracked: mu.Lock()/RLock() paired with Unlock()/RUnlock() on
// sync.Mutex / sync.RWMutex, with `defer mu.Unlock()` applied at every
// exit. The one doc contract (parseContracts), "Requires sh.mu held",
// licenses both entering and leaving with the parameter's lock held.
// Panic paths are exempt.
//
// The exploration behind this pass is lockSpec, run once per Program
// over the bodies that take a lock or hold one by contract (a body that
// does neither holds nothing anywhere); lockhold reports what its blocking observer sees while a lock is
// held, and lockorder builds its graph from the edges its order
// observer records.

import "go/ast"

var Errpath = &Analyzer{
	Name: "errpath",
	Doc: "report locks and shard locks still held at a function exit — " +
		"early error returns included — with the concrete leaking path " +
		"(acquisition, guards, exit) printed in each diagnostic",
	Run: func(pass *Pass) error {
		return reportFindings(pass, pass.Prog.lifecycle(lockSpec).leaks)
	},
}

const lockKind = "lock"

// lockSpec is the lock lifecycle: errpath reports its leaks, lockhold
// its blocking observer's findings and lockorder its order observer's
// edges.
var lockSpec = &lifeSpec{
	kind:      lockKind,
	leakVerb:  "is still held",
	classify:  classifyLock,
	contracts: true,
	observers: []func(*lifeEngine, ast.Node, *lifeState){observeBlocking, observeOrder},
}

func classifyLock(pkg *Package, fn FuncKey, call *ast.CallExpr) (lifeEvent, bool) {
	x, lock, ok := mutexCall(pkg.Info, call)
	if !ok {
		return lifeEvent{}, false
	}
	if lock {
		class, _ := classOf(pkg, fn, x)
		return lifeEvent{op: lifeOpen, res: exprString(x), class: class, what: exprString(call)}, true
	}
	return lifeEvent{op: lifeClose, res: exprString(x)}, true
}
