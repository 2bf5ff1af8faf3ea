// Package errpath is the fixture for the errpath analyzer: locks and
// shard locks must not still be held at any function exit — early
// error returns included — unless the doc contract says so; each
// report prints the concrete leaking path.
package errpath

import (
	"errors"
	"sync"
)

// store is a metadata mutex plus fallible helpers.
type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	dirt int
}

func (s *store) check() error {
	if s.dirt > 0 {
		return errors.New("dirty")
	}
	return nil
}

// devShard mirrors the sharded VM: a per-device lock.
type devShard struct {
	mu   sync.Mutex
	used int
}

// ---------------------------------------------------------------- clean

// balanced releases before every return, including the error one.
func balanced(s *store) error {
	s.mu.Lock()
	if err := s.check(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	return nil
}

// deferred releases through defer, so the error return is covered.
func deferred(s *store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.check(); err != nil {
		return err
	}
	return nil
}

// evictShard documents the parameter contract and drops the lock
// around a slow copy, reacquiring before return — no leak either way.
// Requires sh.mu held (released around the copy).
func evictShard(sh *devShard, bad bool) error {
	if bad {
		return errSentinel
	}
	sh.mu.Unlock()
	sh.mu.Lock()
	return nil
}

// -------------------------------------------------------------- leaks

// happyLeak holds the lock at a non-error return: no error guard is
// crossed and no error returned.
func happyLeak(s *store) {
	s.mu.Lock() // want `lock on s.mu taken at .* is still held on a path ending at the function exit`
}

// leakOnEarlyReturn forgets the unlock on the early return; the guard
// is a plain bool and the result a concrete type, so nothing marks the
// path as an error path.
func (s *store) leakOnEarlyReturn(bad bool) error {
	s.mu.Lock() // want `lock on s.mu taken at .* is still held on a path ending at the return`
	if bad {
		return errSentinel
	}
	s.mu.Unlock()
	return nil
}

// paramLeakNoContract has no doc contract, so the lock it takes on the
// parameter must be released on every path.
func paramLeakNoContract(sh *devShard, bad bool) error {
	sh.mu.Lock() // want `lock on sh.mu taken at .* is still held on a path ending at the return`
	if bad {
		return errSentinel
	}
	sh.mu.Unlock()
	return nil
}

// closureDoesNotRelease: an unlock inside a closure nobody runs is not a
// release; a mutex is not a value whose ownership a capture moves.
func closureDoesNotRelease(s *store) {
	s.mu.Lock() // want `lock on s.mu taken at .* is still held on a path ending at the function exit`
	f := func() { s.mu.Unlock() }
	_ = f
}

// closureLeaks: a function literal is a body of its own, explored with
// nothing open, so the lock it leaks is reported though the function
// around it takes none.
func closureLeaks(s *store) func() error {
	return func() error {
		s.mu.Lock() // want `lock on s.mu taken at .* is still held on an error path`
		if err := s.check(); err != nil {
			return err
		}
		s.mu.Unlock()
		return nil
	}
}

// leakAfterClosure: the lock taken after a literal is the function's,
// not the literal's written before it.
func leakAfterClosure(s *store) error {
	f := func() { s.dirt++ }
	f()
	s.mu.Lock() // want `lock on s.mu taken at .* is still held on an error path`
	if err := s.check(); err != nil {
		return err
	}
	s.mu.Unlock()
	return nil
}

// leakOnError takes the lock, then the error return skips the release.
func leakOnError(s *store) error {
	s.mu.Lock() // want `lock on s.mu taken at .* is still held on an error path`
	if err := s.check(); err != nil {
		return err
	}
	s.mu.Unlock()
	return nil
}

// leakShard leaks a per-device shard lock on the error return.
func leakShard(sh *devShard, s *store) error {
	sh.mu.Lock() // want `lock on sh.mu taken at .* is still held on an error path`
	if err := s.check(); err != nil {
		return err
	}
	sh.used++
	sh.mu.Unlock()
	return nil
}

// leakRLock leaks a read lock the same way.
func leakRLock(s *store) error {
	s.rw.RLock() // want `lock on s.rw taken at .* is still held on an error path`
	if err := s.check(); err != nil {
		return err
	}
	s.rw.RUnlock()
	return nil
}

// initMu is taken by both init functions: a package's second init is
// summarized under a key of its own, so its leak is reported like any
// other function's.
var initMu sync.Mutex

func init() {
	initMu.Lock()
	initMu.Unlock()
}

func init() {
	initMu.Lock() // want `lock on initMu taken at .* is still held on a path ending at the function exit`
}

var errSentinel = sentinelErr{}

type sentinelErr struct{}

func (sentinelErr) Error() string { return "sentinel" }
