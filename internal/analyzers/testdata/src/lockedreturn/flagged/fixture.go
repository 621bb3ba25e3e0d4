// Early returns that leak a held mutex — the "error path forgot the
// Unlock" class.
package fixture

import (
	"errors"
	"sync"
)

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// leak forgets the unlock on the error path.
func (g *guarded) leak(fail bool) (int, error) {
	g.mu.Lock()
	if fail {
		return 0, errors.New("boom") // want `lockedreturn: return leaks g.mu.Lock held since line \d+`
	}
	n := g.n
	g.mu.Unlock()
	return n, nil
}

// rleak does the same with the read half of an RWMutex.
func (g *guarded) rleak(fail bool) int {
	g.rw.RLock()
	if fail {
		return -1 // want `lockedreturn: return leaks g.rw.RLock held since line \d+`
	}
	g.rw.RUnlock()
	return g.n
}

// relock leaks the second acquisition: the unlock between the two
// releases only the first.
func (g *guarded) relock() int {
	g.mu.Lock()
	g.mu.Unlock()
	g.mu.Lock()
	return g.n // want `lockedreturn: return leaks g.mu.Lock held since line \d+`
}

// earlyUnlockOnly releases on the error arm only: the fall-through
// return still holds the lock, though an Unlock sits between them.
func (g *guarded) earlyUnlockOnly(fail bool) int {
	g.mu.Lock()
	if fail {
		g.mu.Unlock()
		return -1
	}
	return g.n // want `lockedreturn: return leaks g.mu.Lock held since line \d+`
}

// maybeLocked holds the lock on one path into the return, not on every
// path: the leak is on the path that took it.
func (g *guarded) maybeLocked(c bool) int {
	if c {
		g.mu.Lock()
	}
	return g.n // want `lockedreturn: return leaks g.mu.Lock held since line \d+`
}

// deferLate arms its deferred unlock after the early return: that return
// runs no deferred release.
func (g *guarded) deferLate(fail bool) int {
	g.mu.Lock()
	if fail {
		return -1 // want `lockedreturn: return leaks g.mu.Lock held since line \d+`
	}
	defer g.mu.Unlock()
	return g.n
}
