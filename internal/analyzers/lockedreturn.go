package analyzers

import (
	"go/ast"
	"strings"
)

// LockedReturnAnalyzer flags early returns that leak a held mutex in code
// using manual Lock/Unlock pairs — the classic "error path forgot the
// Unlock" bug, which in this codebase stalls every request behind dbMu or
// wedges live-graph maintenance behind an incremental-subsystem lock.
//
// It runs on the shared lock simulator (summary.go). At each explicit
// return, every lock that some path into it may hold is a leak if it was
// acquired in the body being simulated (the function's, or an inline
// function literal's) and no deferred unlock is armed for it on those
// paths. Locks required on entry and locks an enclosing body took are not
// this body's to release, and a helper that falls off its end holding a
// lock (the acquire() shape) has no return to flag. TryLock is ignored:
// its acquisition is conditional on a result the simulator does not
// branch on. Intentional lock handoffs take a //lint:ignore lockedreturn
// <why>.
var LockedReturnAnalyzer = &Analyzer{
	Name: "lockedreturn",
	Doc:  "returns must not leak a held sync.Mutex/RWMutex",
	Run:  runLockedReturn,
}

func runLockedReturn(pass *Pass) error {
	idx := buildIndex(pass, nil)
	idx.computeSummaries()
	idx.check(checker{visit: func(st *simState, unit *ast.BlockStmt, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, path := range sortedNames(st.may) {
			a := st.may[path]
			if st.deferred[path] || strings.HasPrefix(a.method, "Try") || a.pos < unit.Pos() || a.pos >= unit.End() {
				continue
			}
			pass.Reportf(ret.Pos(), "return leaks %s.%s held since line %d; unlock before returning or defer the unlock",
				path, a.method, pass.Fset.Position(a.pos).Line)
		}
	}})
	return nil
}
