// Fixture for the lockdiscipline analyzer: every acquisition not followed
// immediately by its deferred release, every other lock call, a second
// acquisition of one receiver, and the clean forms the service layer and the
// root System actually use.
package service

import (
	"errors"
	"sync"
)

type tenant struct {
	mu sync.Mutex
	n  int
}

type registry struct {
	mu  sync.RWMutex
	set map[string]*tenant
}

// ---- positives ----

func leakOnReturn(t *tenant) int {
	t.mu.Lock() // want "t.mu.Lock.. is not followed immediately by defer t.mu.Unlock.."
	return t.n
}

func deferTooLate(t *tenant) {
	t.mu.Lock() // want "t.mu.Lock.. is not followed immediately by defer t.mu.Unlock.."
	t.n++
	defer t.mu.Unlock() // want "t.mu.Unlock.. outside the lock-then-defer idiom"
}

func earlyReturnBeforeDefer(r *registry) error {
	r.mu.Lock() // want "r.mu.Lock.. is not followed immediately by defer r.mu.Unlock.."
	if r.set == nil {
		return errors.New("closed")
	}
	defer r.mu.Unlock() // want "r.mu.Unlock.. outside the lock-then-defer idiom"
	return nil
}

func handUnlockedBranches(r *registry, k string) (*tenant, error) {
	r.mu.Lock() // want "r.mu.Lock.. is not followed immediately by defer r.mu.Unlock.."
	t, ok := r.set[k]
	if !ok {
		r.mu.Unlock() // want "r.mu.Unlock.. outside the lock-then-defer idiom"
		return nil, errors.New("missing")
	}
	r.mu.Unlock() // want "r.mu.Unlock.. outside the lock-then-defer idiom"
	return t, nil
}

func wrongRelease(r *registry) int {
	r.mu.RLock()        // want "r.mu.RLock.. is not followed immediately by defer r.mu.RUnlock.."
	defer r.mu.Unlock() // want "r.mu.Unlock.. outside the lock-then-defer idiom"
	return len(r.set)
}

func doubleLock(t *tenant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mu.Lock() // want "t.mu acquired a second time in this function"
	defer t.mu.Unlock()
}

func readThenWrite(r *registry) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.set == nil {
		r.mu.Lock() // want "r.mu acquired a second time in this function"
		defer r.mu.Unlock()
	}
}

func tryLock(t *tenant) bool {
	if t.mu.TryLock() { // want "t.mu.TryLock.. outside the lock-then-defer idiom"
		defer t.mu.Unlock() // want "t.mu.Unlock.. outside the lock-then-defer idiom"
		return true
	}
	return false
}

func deferredClosure(t *tenant) {
	t.mu.Lock() // want "t.mu.Lock.. is not followed immediately by defer t.mu.Unlock.."
	defer func() {
		t.mu.Unlock() // want "t.mu.Unlock.. outside the lock-then-defer idiom"
	}()
	t.n++
}

func lockPerIteration(ts []*tenant) int {
	sum := 0
	for _, t := range ts {
		t.mu.Lock() // want "t.mu.Lock.. is not followed immediately by defer t.mu.Unlock.."
		sum += t.n
		t.mu.Unlock() // want "t.mu.Unlock.. outside the lock-then-defer idiom"
	}
	return sum
}

// lockedHandoff returns with the lock held on purpose; the annotation both
// documents and suppresses it.
func lockedHandoff(t *tenant) *tenant {
	t.mu.Lock() //jetlint:allow lockdiscipline -- caller unlocks after the handoff
	return t
}

// ---- the acquire/release CAS guard ----

type system struct {
	busy bool
}

var errBusy = errors.New("busy")

func (s *system) acquire(op string) error {
	if s.busy {
		return errBusy
	}
	s.busy = true
	return nil
}

func (s *system) release() { s.busy = false }

func guardWithoutDefer(s *system, work func()) error {
	if err := s.acquire("leak"); err != nil { // want "s.acquire.. is not followed immediately by defer s.release.."
		return err
	}
	work()
	s.release() // want "s.release.. outside the lock-then-defer idiom"
	return nil
}

func guardSplitForm(s *system) error {
	err := s.acquire("split") // want "s.acquire.. outside the lock-then-defer idiom"
	if err != nil {
		return err
	}
	defer s.release() // want "s.release.. outside the lock-then-defer idiom"
	return nil
}

// ---- clean ----

func cleanDeferPair(t *tenant) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func cleanReadLock(r *registry) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.set)
}

func cleanGuard(s *system, work func()) error {
	if err := s.acquire("ok"); err != nil {
		return err
	}
	defer s.release()
	work()
	return nil
}

// cleanHelper is the shape an early-exit section takes: its own function.
func cleanHelper(r *registry, k string) (*tenant, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.set[k]
	if !ok {
		return nil, errors.New("missing")
	}
	delete(r.set, k)
	return t, nil
}

func cleanClosureOwnsItsLock(t *tenant) func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	undo := func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.n--
	}
	return undo
}

func cleanTwoLocksNested(r *registry, t *tenant) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n + len(r.set)
}

func cleanInCase(t *tenant, op int) {
	switch op {
	case 1:
		t.mu.Lock()
		defer t.mu.Unlock()
		t.n++
	}
}
