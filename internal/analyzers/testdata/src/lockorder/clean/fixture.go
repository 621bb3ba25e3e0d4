// Correct locking: dbMu before sessMu, table access and live teardown
// inside dbMu critical sections.
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

// ordered is the Server.Close shape: dbMu first, sessMu nested inside.
func (s *srv) ordered() {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	s.lg.Close()
	s.sessMu.Lock()
	s.sessMu.Unlock()
}

// insertLocked mutates the table under dbMu.
func (s *srv) insertLocked(row []relstore.Value) error {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	return s.tab.Insert(row...)
}

// sessionsOnly never touches dbMu or tables; sessMu alone is fine.
func (s *srv) sessionsOnly() {
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
}

// lockDB marks a dbMu acquirer; calling it outside any sessMu critical
// section is the documented order.
func (s *srv) lockDB() {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
}

func (s *srv) orderedDeep() {
	s.lockDB()
	s.sessMu.Lock()
	s.sessMu.Unlock()
}

// withDB assumes dbMu per its annotation, so its own table op is fine;
// insertViaHelper supplies the lock at the call site.
//
// graphlint:requires dbMu
func (s *srv) withDB(row []relstore.Value) error {
	return s.tab.Insert(row...)
}

func (s *srv) insertViaHelper(row []relstore.Value) error {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	return s.withDB(row)
}

// eachRow calls fn once per row before it returns.
func eachRow(rows [][]relstore.Value, fn func([]relstore.Value) error) error {
	for _, row := range rows {
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// insertAll's callback runs inside the dbMu critical section: a
// function literal passed inline sees the locks of its call site.
func (s *srv) insertAll(rows [][]relstore.Value) error {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	return eachRow(rows, func(row []relstore.Value) error {
		return s.tab.Insert(row...)
	})
}
