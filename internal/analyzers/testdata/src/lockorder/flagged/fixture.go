// The PR 3 bug class: sessMu-before-dbMu inversions and relational table
// access outside a dbMu critical section, checked as if this fixture were
// graphgen/internal/server.
package fixture

import (
	"sync"

	"graphgen"
	"graphgen/internal/relstore"
)

type srv struct {
	dbMu   sync.Mutex
	sessMu sync.RWMutex
	tab    *relstore.Table
	lg     *graphgen.LiveGraph
}

// inverted takes the locks in the wrong order.
func (s *srv) inverted() {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.dbMu.Lock() // want `lockorder: dbMu acquired while sessMu is held`
	s.dbMu.Unlock()
}

// lockDB is fine on its own but marks the method as a dbMu acquirer.
func (s *srv) lockDB() {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
}

// indirect is the closeLive shape one level removed: a method that
// acquires dbMu called under sessMu.
func (s *srv) indirect() {
	s.sessMu.RLock()
	s.lockDB() // want `lockorder: lockDB acquires dbMu and must not be called while sessMu is held`
	s.sessMu.RUnlock()
}

// insertUnlocked touches a table with no dbMu held.
func (s *srv) insertUnlocked(row []relstore.Value) error {
	return s.tab.Insert(row...) // want `lockorder: \(Table\)\.Insert outside a dbMu critical section`
}

// closeUnlocked cancels live maintenance while mutations may be walking
// the change-log subscriber list — the exact PR 3 race.
func (s *srv) closeUnlocked() {
	s.lg.Close() // want `lockorder: \(LiveGraph\)\.Close outside a dbMu critical section`
}

// released shows the position model catching use-after-unlock too.
func (s *srv) released(row []relstore.Value) error {
	s.dbMu.Lock()
	s.dbMu.Unlock()
	return s.tab.Insert(row...) // want `lockorder: \(Table\)\.Insert outside a dbMu critical section`
}

// lockDBDeep acquires dbMu two calls down; the interprocedural
// summaries make the inversion visible at any depth.
func (s *srv) lockDBDeep() {
	s.lockDB()
}

func (s *srv) indirectDeep() {
	s.sessMu.RLock()
	s.lockDBDeep() // want `lockorder: lockDBDeep acquires dbMu and must not be called while sessMu is held`
	s.sessMu.RUnlock()
}

// withDB's contract is explicit: callers bring dbMu. The unlocked call
// below is the finding; the table op inside withDB is not.
//
// graphlint:requires dbMu
func (s *srv) withDB(row []relstore.Value) error {
	return s.tab.Insert(row...)
}

func (s *srv) callsWithDBUnlocked(row []relstore.Value) error {
	return s.withDB(row) // want `lockorder: withDB requires dbMu held on entry \(graphlint:requires\) and is called outside a dbMu critical section`
}

// earlyReleaseOnly drops sessMu on the early-return arm only; the
// fall-through still holds it when it takes dbMu.
func (s *srv) earlyReleaseOnly(done bool) {
	s.sessMu.Lock()
	if done {
		s.sessMu.Unlock()
		return
	}
	s.dbMu.Lock() // want `lockorder: dbMu acquired while sessMu is held`
	s.dbMu.Unlock()
	s.sessMu.Unlock()
}

// maybeSess holds sessMu on one path only; taking dbMu after the branch
// inverts the order on that path.
func (s *srv) maybeSess(c bool) {
	if c {
		s.sessMu.Lock()
		defer s.sessMu.Unlock()
	}
	s.dbMu.Lock() // want `lockorder: dbMu acquired while sessMu is held`
	s.dbMu.Unlock()
}

// conditionalLock holds dbMu on one path only, so the insert after the
// branch may run without it.
func (s *srv) conditionalLock(lock bool, row []relstore.Value) error {
	if lock {
		s.dbMu.Lock()
		defer s.dbMu.Unlock()
	}
	return s.tab.Insert(row...) // want `lockorder: \(Table\)\.Insert outside a dbMu critical section`
}
