package analyzers

// The mutant catalogue: named source mutations of the live module, each
// of which must trip one pass — or, where the compiler holds the rule,
// fail to type-check. The module is loaded once per test
// binary (liveTree); a mutant re-checks only the packages it edits and
// the module packages that import them, in dependency order, against
// the types the load already holds for everything else — the standard
// library included — and the pass runs over the whole tree with those
// packages swapped in. The working tree is never written.
//
// Two kinds of row. A seeded row adds a realistic regression as a new
// file in the real package the pass guards; each keeps the name of the
// test it was. A live row edits a function of the live tree that the
// tier-1 tests execute, and is one rule's evidence in DESIGN.md §10's
// mutant × gate table: the rule stays because no other gate fails on it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// A mutant is a named set of edits and the finding its pass must make
// in the edited files. A row without a pass is the compiler's: the
// edited tree must not type-check, with an error matching want.
type mutant struct {
	name  string
	pass  *Analyzer
	want  string // regexp one of the pass's messages (or the type error) must match
	edits []edit
}

// An edit is one of two kinds. With old empty it adds file, whose
// source is new; otherwise new replaces old, which must occur exactly
// once in the existing file. file is relative to the module root.
type edit struct{ file, old, new string }

var catalogue = []mutant{
	{
		name: "LockorderSeededRecursion",
		pass: Lockorder,
		want: `nested acquisition of exec\.VM\.engMu \(inside exec\.VM\.seededErr\) while a lock of the same class is held`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

// seededAudit holds engMu and calls a helper that takes it again: the
// self-deadlock lockorder exists to catch.
func (vm *VM) seededAudit() error {
	vm.engMu.Lock()
	defer vm.engMu.Unlock()
	return vm.seededErr()
}

func (vm *VM) seededErr() error {
	vm.engMu.Lock()
	defer vm.engMu.Unlock()
	return vm.asyncErr
}
`}},
	},
	{
		name: "ChanlifeSeededLeak",
		pass: Chanlife,
		want: `goroutine seededLoop has no shutdown path at any call depth`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

func seededSpawn() {
	go seededLoop()
}

func seededLoop() {
	for {
		seededStep()
	}
}

func seededStep() {}
`}},
	},
	{
		name: "DeterminismSeededTaint",
		pass: Determinism,
		want: `call to trace\.SeededStamp reaches time\.Now at some call depth`,
		edits: []edit{{file: "internal/trace/seeded.go", new: `package trace

import "time"

// SeededStamp reads the wall clock; fine here, outside the core.
func SeededStamp() int64 {
	return time.Now().UnixNano()
}
`}, {file: "internal/exec/seeded.go", new: `package exec

import "harmony/internal/trace"

func seededDecide() int64 {
	return trace.SeededStamp()
}
`}},
	},
	{
		name: "ClaimlifeSeededLeak",
		pass: Claimlife,
		want: `claim on b taken at seeded\.go:\d+ is neither committed nor settled on an error path`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

import (
	"fmt"

	"harmony/internal/claimword"
)

// seededFlush claims b for a write-back, then bails on a budget check
// before either commit or settle: b is stuck claimed.
func (vm *VM) seededFlush(b *buffer, budget int) error {
	if !b.Claim(true, claimword.NeedUnpinned) {
		return nil
	}
	if budget <= 0 {
		return fmt.Errorf("exec: write-back of %s over budget", b.t)
	}
	b.Settle(false, 0)
	return nil
}
`}},
	},
	{
		name: "LockholdSeededRecvUnderShardLock",
		pass: Lockhold,
		want: `channel receive while mu is held`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

// seededDrain waits for a wakeup while holding the shard lock.
func (vm *VM) seededDrain(dev int, wake chan struct{}) int64 {
	sh := vm.shards[dev]
	sh.mu.Lock()
	<-wake
	used := sh.used
	sh.mu.Unlock()
	return used
}
`}},
	},
	{
		// The modeled links sleep through the trace.Clock seam, where
		// time.Sleep's lexical rule cannot see them.
		name: "LockholdSeededClockSleepUnderLinkLock",
		pass: Lockhold,
		want: `Sleep \(parks on the clock\) while mu is held`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

import "time"

// seededSettle sleeps a lane's debt off without letting go of the links.
func (vm *VM) seededSettle(lane int) {
	m := &vm.link
	m.mu.Lock()
	owed := m.debt[lane]
	m.debt[lane] = 0
	vm.clk.Sleep(owed + time.Microsecond)
	m.mu.Unlock()
}
`}},
	},
	{
		name: "ErrpathSeededHappyPathLeak",
		pass: Errpath,
		want: `lock on vm\.bufMu taken at seeded\.go:\d+ is still held on a path ending at the return at seeded\.go:\d+`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

// seededLive counts the registered buffers; the empty-map shortcut
// returns with bufMu still held.
func (vm *VM) seededLive() int {
	vm.bufMu.Lock()
	if len(vm.bufs) == 0 {
		return 0
	}
	n := len(vm.bufs)
	vm.bufMu.Unlock()
	return n
}
`}},
	},
	{
		// Prose proves nothing: two vmShard.mu held together deadlock
		// against any path taking the same two the other way round.
		name: "LockorderSeededProseIsNoLicence",
		pass: Lockorder,
		want: `nested acquisition of exec\.vmShard\.mu while a lock of the same class is held`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

// seededBalance moves accounting from a device to its neighbour,
// visiting the two shards in ascending device order.
func (vm *VM) seededBalance(dev int, bytes int64) {
	lo, hi := vm.shards[dev], vm.shards[dev+1]
	lo.mu.Lock()
	hi.mu.Lock()
	lo.used -= bytes
	hi.used += bytes
	hi.mu.Unlock()
	lo.mu.Unlock()
}
`}},
	},
	{
		name: "ClaimlifeSeededPublishBeforeCommit",
		pass: Claimlife,
		want: `published to the LRU under an uncommitted claim`,
		edits: []edit{{file: "internal/exec/seeded.go", new: `package exec

import "harmony/internal/claimword"

// seededInstall publishes b to the shard's LRU before committing it.
// Requires sh.mu held.
func (vm *VM) seededInstall(sh *vmShard, b *buffer) {
	if !b.Claim(false, claimword.NeedEmpty) {
		return
	}
	vm.lruPush(sh, b)
	b.Commit(false)
}
`}},
	},
	// Live rows: one per rule, each an edit to a function tier-1 runs.
	{
		name: "live/lockhold/charge-sleeps-under-the-link-lock",
		pass: Lockhold,
		want: `Sleep \(parks on the clock\) while mu is held`,
		edits: []edit{{file: "internal/exec/link.go", old: `	sleep := owe(debt, now, end)
	m.mu.Unlock()

	if sleep > 0 {
		vm.clk.Sleep(sleep)
	}
`, new: `	sleep := owe(debt, now, end)
	if sleep > 0 {
		vm.clk.Sleep(sleep)
	}
	m.mu.Unlock()
`}},
	},
	{
		name: "live/errpath/swapIn-keeps-the-shard-lock-when-reserve-fails",
		pass: Errpath,
		want: `lock on sh\.mu taken at vm\.go:\d+ is still held on an error path ending at the return at vm\.go:\d+`,
		edits: []edit{{file: "internal/exec/vm.go", old: `	dst, err := vm.land(sh, b, landDemand)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
`, new: `	dst, err := vm.land(sh, b, landDemand)
	if err != nil && err != errRetry {
		return nil, err
	}
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
`}},
	},
	{
		name: "live/lockorder-nesting/moveP2P-holds-the-source-shard-over-the-destination",
		pass: Lockorder,
		want: `nested acquisition of exec\.vmShard\.mu while a lock of the same class is held`,
		edits: []edit{{file: "internal/exec/vm.go", old: `	vm.unlink(ssh, b)
	ssh.mu.Unlock()
	b.dev = dst
	b.devID.Store(int32(dev))
	dsh.mu.Lock()
	vm.lruPush(dsh, b)
	dsh.stats.P2PBytes += bytes
	dsh.stats.P2PMoves++
	dsh.mu.Unlock()
`, new: `	vm.unlink(ssh, b)
	b.dev = dst
	b.devID.Store(int32(dev))
	dsh.mu.Lock()
	vm.lruPush(dsh, b)
	dsh.stats.P2PBytes += bytes
	dsh.stats.P2PMoves++
	dsh.mu.Unlock()
	ssh.mu.Unlock()
`}},
	},
	{
		// Close pokes the shards under engMu, and a worker takes engMu
		// under its shard lock to announce idle.
		name: "live/lockorder-cycle/close-and-dmaWorker-take-engMu-and-a-shard-in-opposite-orders",
		pass: Lockorder,
		want: `lock-order cycle`,
		edits: []edit{{file: "internal/exec/dma.go", old: `	vm.closed.Store(true)
	vm.engMu.Unlock()
	for _, sh := range vm.shards {
		sh.mu.Lock()
		sh.work.Broadcast()
		sh.mu.Unlock()
	}
`, new: `	vm.closed.Store(true)
	for _, sh := range vm.shards {
		sh.mu.Lock()
		sh.work.Broadcast()
		sh.mu.Unlock()
	}
	vm.engMu.Unlock()
`}, {file: "internal/exec/dma.go", old: `		vm.service(req)
		if vm.pending.Add(-1) == 0 {
			vm.engMu.Lock()
			vm.idle.Broadcast()
			vm.engMu.Unlock()
		}
		sh.mu.Lock()
`, new: `		vm.service(req)
		sh.mu.Lock()
		if vm.pending.Add(-1) == 0 {
			vm.engMu.Lock()
			vm.idle.Broadcast()
			vm.engMu.Unlock()
		}
`}},
	},
	{
		name: "live/chanlife-spawn/StartEngine-spawns-a-wall-clock-sampler-that-never-stops",
		pass: Chanlife,
		want: `goroutine func literal has no shutdown path at any call depth`,
		edits: []edit{{file: "internal/exec/dma.go", old: `	for d := range vm.shards {
		go vm.dmaWorker(d)
	}
`, new: `	for d := range vm.shards {
		go vm.dmaWorker(d)
	}
	go func() { // keep the in-flight gauge sampled for the trace
		for {
			time.Sleep(time.Millisecond)
			_ = vm.pending.Load()
		}
	}()
`}},
	},
	{
		// A collective with no bytes has nothing to wait for, so the last
		// arriver releases a waiter at once — and still closes done.
		name: "live/chanlife-done/arrive-sends-on-the-done-channel-it-closes",
		pass: Chanlife,
		want: `send on done-channel .*done, which is closed at executor\.go:\d+`,
		edits: []edit{{file: "internal/exec/executor.go", old: `	defer close(r.done)
`, new: `	defer close(r.done)
	if t.CommBytes == 0 {
		r.done <- struct{}{}
	}
`}},
	},
	{
		name: "live/claimlife/moveP2P-keeps-the-claim-when-the-copy-fails",
		pass: Claimlife,
		want: `claim on b taken at vm\.go:\d+ is neither committed nor settled on an error path`,
		edits: []edit{{file: "internal/exec/vm.go", old: `	if _, err := vm.transfer(xferP2P, dev, srcDev, b.t, dst, src); err != nil {
		b.Settle(true, 0)
		vm.uncharge(dsh, bytes, dst)
`, new: `	if _, err := vm.transfer(xferP2P, dev, srcDev, b.t, dst, src); err != nil {
		vm.uncharge(dsh, bytes, dst)
`}},
	},
	{
		// Free retires an idle host-only buffer's word itself instead
		// of seizing it: the word is claimword's unexported field, so
		// the tree no longer type-checks.
		name: "live/compiler/Free-retires-the-word-by-hand",
		want: `b\.word undefined \(cannot refer to unexported field word\)`,
		edits: []edit{{file: "internal/exec/vm.go", old: `func (vm *VM) Free(t *tensor.Tensor) error {
`, new: `func (vm *VM) Free(t *tensor.Tensor) error {
	if b, ok := vm.lookup(t.ID); ok && b.word.CompareAndSwap(0, 0) { // idle, unpinned, host-only: retire it at once
		vm.bufMu.Lock()
		delete(vm.bufs, t.ID)
		vm.bufMu.Unlock()
		return nil
	}
`}},
	},
	{
		name: "live/claimlife-publish/land-publishes-before-commit",
		pass: Claimlife,
		want: `published to the LRU under an uncommitted claim`,
		edits: []edit{{file: "internal/exec/vm.go", old: `	b.Commit(how == landPrefetch)
	sh.used += b.t.Bytes
	if how == landPrefetch {
		sh.pfBytes += b.t.Bytes
	}
	vm.lruPush(sh, b)
`, new: `	sh.used += b.t.Bytes
	if how == landPrefetch {
		sh.pfBytes += b.t.Bytes
	}
	vm.lruPush(sh, b)
	b.Commit(how == landPrefetch)
`}},
	},
	{
		name: "live/determinism-clock/reduce-times-itself-on-the-wall-clock",
		pass: Determinism,
		want: `time\.Now in the deterministic core`,
		edits: []edit{{file: "internal/exec/comm.go", old: `	wall := tr.vm.clk.Now()
`, new: `	wall := time.Now()
`}},
	},
	{
		// The regression the map rule was written for: a victim scan
		// over the buffer map instead of the shard's LRU list.
		name: "live/determinism-map/victim-scans-the-buffer-map",
		pass: Determinism,
		want: `map iteration in the deterministic core`,
		edits: []edit{{file: "internal/exec/vm.go", old: `	for b := sh.lru.head; b != nil; b = b.next {
		switch w := b.Load(); {
		case w.Claimed():`, new: `	vm.bufMu.RLock()
	defer vm.bufMu.RUnlock()
	for _, b := range vm.bufs {
		if w := b.Load(); int(b.devID.Load()) != sh.dev || !w.Resident() && !w.Claimed() {
			continue // not on sh's list
		}
		switch w := b.Load(); {
		case w.Claimed():`}},
	},
	{
		name: "live/determinism-map/volume-skew-appends-leftover-updates-in-map-order",
		pass: Determinism,
		want: `map iteration in the deterministic core`,
		edits: []edit{{file: "internal/schedcheck/inject.go", old: `		for _, t := range q { // any updates without a backward: keep tail order
			if t.Kind == graph.Update {
				if u, ok := upd[t.Layer]; ok {
					out = append(out, u)
					delete(upd, t.Layer)
				}
			}
		}
`, new: `		for _, u := range upd { // any updates without a backward
			out = append(out, u)
		}
`}},
	},
	{
		name: "live/determinism-taint/reduce-ends-its-span-on-trace.WallClock",
		pass: Determinism,
		want: `call to trace\.WallClock\.Now reaches time\.Now at some call depth`,
		edits: []edit{{file: "internal/exec/comm.go", old: `			start, end = wall, tr.vm.clk.Now()
`, new: `			start, end = wall, trace.WallClock{}.Now()
`}},
	},
	{
		name: "live/determinism-scope/hw-meshes-nvlink-over-a-set-of-gpus",
		pass: Determinism,
		want: `map iteration in the deterministic core`,
		edits: []edit{{file: "internal/hw/topology.go", old: `		for i := range t.GPUs {
			for j := range t.GPUs {
				if i == j`, new: `		gpus := make(map[int]bool, len(t.GPUs))
		for i := range t.GPUs {
			gpus[i] = true
		}
		for i := range gpus {
			for j := range gpus {
				if i == j`}},
	},
	{
		name: "live/errcheck/release-drops-the-Unpin-error",
		pass: Errcheck,
		want: `VM\.Unpin returns an error that is dropped`,
		edits: []edit{{file: "internal/exec/trainer.go", old: `			if err := tr.vm.Unpin(x); err != nil {
				return err
			}
`, new: `			tr.vm.Unpin(x)
`}},
	},
}

func TestLockorderSeededRecursion(t *testing.T)   { runMutant(t, "LockorderSeededRecursion") }
func TestChanlifeSeededLeak(t *testing.T)         { runMutant(t, "ChanlifeSeededLeak") }
func TestDeterminismSeededTaint(t *testing.T)     { runMutant(t, "DeterminismSeededTaint") }
func TestClaimlifeSeededLeak(t *testing.T)        { runMutant(t, "ClaimlifeSeededLeak") }
func TestErrpathSeededHappyPathLeak(t *testing.T) { runMutant(t, "ErrpathSeededHappyPathLeak") }
func TestLockorderSeededProseIsNoLicence(t *testing.T) {
	runMutant(t, "LockorderSeededProseIsNoLicence")
}
func TestLockholdSeededRecvUnderShardLock(t *testing.T) {
	runMutant(t, "LockholdSeededRecvUnderShardLock")
}
func TestLockholdSeededClockSleepUnderLinkLock(t *testing.T) {
	runMutant(t, "LockholdSeededClockSleepUnderLinkLock")
}
func TestClaimlifeSeededPublishBeforeCommit(t *testing.T) {
	runMutant(t, "ClaimlifeSeededPublishBeforeCommit")
}

// TestLiveMutants runs the catalogue's live rows.
func TestLiveMutants(t *testing.T) {
	for _, m := range catalogue {
		if strings.HasPrefix(m.name, "live/") {
			t.Run(strings.TrimPrefix(m.name, "live/"), func(t *testing.T) {
				t.Parallel()
				checkMutant(t, m)
			})
		}
	}
}

// runMutant checks the catalogue row of that name.
func runMutant(t *testing.T, name string) {
	t.Helper()
	t.Parallel()
	for _, m := range catalogue {
		if m.name == name {
			checkMutant(t, m)
			return
		}
	}
	t.Fatalf("no catalogue row %q", name)
}

// checkMutant runs m's pass over the mutated tree and requires a
// finding matching m.want in one of the edited files; a row without a
// pass requires the type error instead. Rows only read the shared
// load, so they run in parallel.
func checkMutant(t *testing.T, m mutant) {
	t.Helper()
	re := regexp.MustCompile(m.want)
	pkgs, srcs, err := mutate(t, m)
	if m.pass == nil {
		if err == nil || !re.MatchString(err.Error()) {
			t.Errorf("%s: the mutated tree type-checks with error %v, want one matching %q", m.name, err, m.want)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", m.name, err)
	}
	diags, err := RunProject(pkgs, m.pass)
	if err != nil {
		t.Fatalf("%s: RunProject: %v", m.name, err)
	}
	for _, d := range diags {
		if _, edited := srcs[d.Pos.Filename]; edited && d.Analyzer == m.pass.Name && re.MatchString(d.Message) {
			return
		}
	}
	t.Errorf("%s: no %s finding matching %q in the edited files, in:\n%s", m.name, m.pass.Name, m.want, diagDump(diags))
}

var liveLoad struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// liveTree loads the module's own tree, once per test binary.
func liveTree(t testing.TB) []*Package {
	t.Helper()
	liveLoad.once.Do(func() {
		liveLoad.pkgs, liveLoad.err = Load(filepath.Join("..", ".."), "./...")
	})
	if liveLoad.err != nil {
		t.Fatalf("loading the live tree: %v", liveLoad.err)
	}
	return liveLoad.pkgs
}

// mutate applies m's edits to the live tree and re-checks what they
// reach: the edited packages and every module package importing them,
// in dependency order. It returns the whole tree, sorted by import
// path as Load returns it, and the edited files' sources by file name,
// or the first type error of the re-check.
func mutate(t *testing.T, m mutant) ([]*Package, map[string]string, error) {
	t.Helper()
	pkgs := liveTree(t)
	fset := pkgs[0].Fset
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	byDir := make(map[string]*Package)
	for _, p := range pkgs {
		byDir[p.Dir] = p
	}
	files := make(map[*Package][]*ast.File) // the edited packages' files
	srcs := make(map[string]string)
	for _, e := range m.edits {
		name := filepath.Join(root, filepath.FromSlash(e.file))
		p := byDir[filepath.Dir(name)]
		if p == nil {
			t.Fatalf("%s: %s is in no package of the live tree", m.name, e.file)
		}
		fs, ok := files[p]
		if !ok {
			fs = append([]*ast.File(nil), p.Files...)
		}
		src, at := e.new, len(fs)
		if e.old != "" {
			cur, ok := srcs[name]
			if !ok {
				b, err := os.ReadFile(name)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				cur = string(b)
			}
			if n := strings.Count(cur, e.old); n != 1 {
				t.Fatalf("%s: the replaced text occurs %d times in %s, want once", m.name, n, e.file)
			}
			src = strings.Replace(cur, e.old, e.new, 1)
			for i, f := range fs {
				if fset.File(f.Pos()).Name() == name {
					at = i
				}
			}
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if at == len(fs) {
			fs = append(fs, f)
		} else {
			fs[at] = f
		}
		files[p] = fs
		srcs[name] = src
	}

	byTypes := make(map[*types.Package]*Package)
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}
	imp := &chainImporter{checked: make(map[string]*types.Package), std: universe(pkgs)}
	swapped := make(map[*Package]*Package)
	for _, p := range depOrder(pkgs, byTypes) {
		fs, ok := files[p]
		for _, dep := range p.Types.Imports() {
			if q := byTypes[dep]; q != nil && swapped[q] != nil {
				ok = true
			}
		}
		if !ok {
			continue
		}
		if fs == nil {
			fs = p.Files
		}
		np, err := check(fset, imp, p.Path, p.Dir, fs)
		if err != nil {
			return nil, srcs, err
		}
		imp.checked[p.Path] = np.Types
		swapped[p] = np
	}
	out := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		if out[i] = swapped[p]; out[i] == nil {
			out[i] = p
		}
	}
	return out, srcs, nil
}

// depOrder lists pkgs with every package after the ones it imports.
func depOrder(pkgs []*Package, byTypes map[*types.Package]*Package) []*Package {
	var order []*Package
	seen := make(map[*Package]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, dep := range p.Types.Imports() {
			if q := byTypes[dep]; q != nil {
				visit(q)
			}
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

// universeImporter serves the complete packages of the live load — the
// module's and the standard-library packages it imports — and refuses
// everything else.
type universeImporter map[string]*types.Package

func universe(pkgs []*Package) universeImporter {
	u := make(universeImporter)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if u[p.Path()] != nil {
			return
		}
		u[p.Path()] = p
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	return u
}

func (u universeImporter) Import(path string) (*types.Package, error) {
	if p := u[path]; p != nil && p.Complete() {
		return p, nil
	}
	return nil, fmt.Errorf("mutant imports %s, which the live tree does not; a mutant may import only packages the module already imports", path)
}
