package analyzers

// Seeded production violations: each interprocedural pass must trip on
// a realistic regression planted in the REAL packages it guards, not
// just on fixture code. The tests copy the module's sources into a
// temp directory, append one seeded file, and run the pass over the
// loaded result — so the violation lives in internal/memory or
// internal/exec proper, against the real structs and the real call
// graph, while the working tree stays clean.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModule replicates go.mod and the internal/ source tree (skipping
// tests and fixture data) into a fresh temp module. Assembly comes
// along: a body-less Go declaration does not build without its .s file.
func copyModule(t *testing.T) string {
	t.Helper()
	tmp := t.TempDir()
	mod, err := os.ReadFile(filepath.Join("..", "..", "go.mod"))
	if err != nil {
		t.Fatalf("reading go.mod: %v", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), mod, 0o644); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("..", "..", "internal")
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "testdata" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(tmp, "internal", rel), 0o755)
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".s" || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, "internal", rel), src, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return tmp
}

// seedFile drops one extra source file into the temp module.
func seedFile(t *testing.T, tmp, rel, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(tmp, filepath.FromSlash(rel)), []byte(src), 0o644); err != nil {
		t.Fatalf("seeding %s: %v", rel, err)
	}
}

// runSeeded loads the given packages from the temp module and runs one
// analyzer over them as a project.
func runSeeded(t *testing.T, tmp string, a *Analyzer, patterns ...string) []Diagnostic {
	t.Helper()
	pkgs, err := Load(tmp, patterns...)
	if err != nil {
		t.Fatalf("loading seeded module: %v", err)
	}
	diags, err := RunProject(pkgs, a)
	if err != nil {
		t.Fatalf("RunProject: %v", err)
	}
	return diags
}

// TestLockorderSeededRecursion: a helper that retakes Manager.mu while
// a caller already holds it — invisible to any single-function pass —
// trips lockorder inside the real internal/memory package.
func TestLockorderSeededRecursion(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/memory/seeded.go", `package memory

// seededAudit holds mu and calls a helper that takes it again: the
// self-deadlock lockorder exists to catch.
func (m *Manager) seededAudit() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seededCount()
}

func (m *Manager) seededCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.states)
}
`)
	diags := runSeeded(t, tmp, Lockorder, "./internal/memory")
	mustDiag(t, diags, "lockorder",
		`recursive acquisition of memory\.Manager\.mu \(inside memory\.Manager\.seededCount\) while it is already held`)
}

// TestChanlifeSeededLeak: a goroutine whose spin lives one call deep
// and never reaches a shutdown construct trips chanlife inside the
// real internal/exec package.
func TestChanlifeSeededLeak(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

func seededSpawn() {
	go seededLoop()
}

func seededLoop() {
	for {
		seededStep()
	}
}

func seededStep() {}
`)
	diags := runSeeded(t, tmp, Chanlife, "./internal/exec")
	mustDiag(t, diags, "chanlife",
		`goroutine seededLoop has no shutdown path at any call depth`)
}

// TestDeterminismSeededTaint: the deterministic core calling an
// out-of-core helper that reads the wall clock one hop away trips the
// summary-based taint pass — the exact leak the lexical rule cannot
// see, since neither function mentions time.Now in a core file.
func TestDeterminismSeededTaint(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/trace/seeded.go", `package trace

import "time"

// SeededStamp reads the wall clock; fine here, outside the core.
func SeededStamp() int64 {
	return time.Now().UnixNano()
}
`)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

import "harmony/internal/trace"

func seededDecide() int64 {
	return trace.SeededStamp()
}
`)
	diags := runSeeded(t, tmp, Determinism, "./internal/exec", "./internal/trace")
	mustDiag(t, diags, "determinism",
		`call to trace\.SeededStamp reaches time\.Now at some call depth`)
}

// TestPinbalanceSeededLeak: a helper that pins a real tensor.State and
// then error-returns without the balancing Unpin — the silent
// pin-budget shrink pinbalance exists for — trips the pass inside the
// real internal/memory package.
func TestPinbalanceSeededLeak(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/memory/seeded.go", `package memory

import "harmony/internal/hw"

// seededWarm pre-pins a tensor and marks it dirty on dev; the
// MarkDirty failure returns early and leaks the pin, shrinking the
// device budget for the rest of the run.
func (m *Manager) seededWarm(id int, dev hw.DeviceID) error {
	st := m.states[id]
	if err := st.Pin(); err != nil {
		return err
	}
	if err := st.MarkDirty(dev); err != nil {
		return err
	}
	return st.Unpin()
}
`)
	diags := runSeeded(t, tmp, Pinbalance, "./internal/memory")
	mustDiag(t, diags, "pinbalance",
		`pin on st taken at seeded\.go:\d+ is not released on an error path`)
}

// TestClaimlifeSeededLeak: a claim on a real exec buffer that reaches
// neither commit nor settle on an audit-failure return — every waiter
// on the claim's channel parks forever — trips claimlife inside the
// real internal/exec package.
func TestClaimlifeSeededLeak(t *testing.T) {
	tmp := copyModule(t)
	seedFile(t, tmp, "internal/exec/seeded.go", `package exec

import (
	"fmt"

	"harmony/internal/claimword"
)

// seededFlush claims b for a write-back, then bails on a budget check
// before either commit or settle: b is stuck claimed.
func (vm *VM) seededFlush(b *buffer, budget int) error {
	if !vm.claim(b, claimword.SwapOut, false, true, claimword.NeedIdle) {
		return nil
	}
	if budget <= 0 {
		return fmt.Errorf("exec: write-back of %s over budget", b.t)
	}
	vm.settle(b, false, 0)
	return nil
}
`)
	diags := runSeeded(t, tmp, Claimlife, "./internal/exec")
	mustDiag(t, diags, "claimlife",
		`claim on b taken at seeded\.go:\d+ is neither committed, settled nor handed off on an error path`)
}
