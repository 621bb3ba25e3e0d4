// Lock discipline the analyzer must accept: deferred unlocks, explicit
// unlock-before-return, per-closure lock scopes, per-iteration and
// per-case releases, and lock helpers that return holding a lock.
package fixture

import (
	"errors"
	"sort"
	"sync"
)

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// deferred covers every return path.
func (g *guarded) deferred(fail bool) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fail {
		return 0, errors.New("boom")
	}
	return g.n, nil
}

// explicit unlocks on each path before returning.
func (g *guarded) explicit(fail bool) int {
	g.rw.RLock()
	if fail {
		g.rw.RUnlock()
		return -1
	}
	n := g.n
	g.rw.RUnlock()
	return n
}

// closures are independent units: the literal's return does not leak the
// enclosing function's lock state.
func (g *guarded) closure() func() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return func() int {
		return 1
	}
}

// loop locks per iteration and releases before every continue.
func (g *guarded) loop(xs []int) int {
	total := 0
	for _, x := range xs {
		g.mu.Lock()
		if x < 0 {
			g.mu.Unlock()
			continue
		}
		total += x * g.n
		g.mu.Unlock()
	}
	return total
}

// switched releases on every case before its return.
func (g *guarded) switched(k int) int {
	g.mu.Lock()
	switch k {
	case 0:
		g.mu.Unlock()
		return 0
	case 1:
		n := g.n
		g.mu.Unlock()
		return n
	default:
		g.mu.Unlock()
		return -1
	}
}

// sorted's comparator returns inside the critical section: the lock is
// the enclosing body's, and its deferred unlock releases it.
func (g *guarded) sorted(xs []int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	sort.Slice(xs, func(i, j int) bool {
		return xs[i]*g.n < xs[j]*g.n
	})
	return xs
}

// acquire is a lock helper: it falls off its end holding the read lock,
// and its callers release it.
func (g *guarded) acquire() {
	if g.n < 0 {
		g.mu.Lock()
		g.n = 0
		g.mu.Unlock()
	}
	g.rw.RLock()
}

func (g *guarded) read() int {
	g.acquire()
	defer g.rw.RUnlock()
	if g.n == 0 {
		return 0
	}
	return g.n
}
