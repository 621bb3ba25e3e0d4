package analyzers

import (
	"go/ast"
	"go/types"
)

// serverPath is the package the lockorder invariants belong to.
const serverPath = "graphgen/internal/server"

// LockOrderAnalyzer enforces internal/server's two locking contracts
// (established in PR 3 and documented on Server):
//
//  1. Lock order is dbMu before sessMu. Acquiring dbMu — directly or by
//     calling a method that does, at any call depth — while sessMu is
//     held inverts the order and can deadlock against Close.
//  2. Everything that touches relational tables runs inside a dbMu
//     critical section: relstore.Table mutators and stats
//     (Insert/Delete/DeleteWhere/CreateIndex/NDistinct/IndexedColumns),
//     DB loads, Engine extractions, and LiveGraph.Close (which cancels
//     change-log subscriptions that mutations walk concurrently — the
//     exact race PR 3 fixed).
//
// Both are checked on the shared lock simulator (summary.go), which gives every
// call the locks held on every path to it (must) and on some path to it
// (may). Acquiring dbMu, or calling a function whose summary acquires it
// at any call depth, is an inversion when sessMu is may-held. A table op,
// or a call to a helper annotated "// graphlint:requires dbMu", needs
// dbMu must-held; such a helper's own body is checked as if locked.
// Inline function literals (callbacks run before the call returns) see
// the call site's locks; escaping ones (go, defer, stored) see none.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "internal/server: dbMu before sessMu; table/extraction/live-close calls only under dbMu",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	if pass.Pkg.Path() != serverPath {
		return nil
	}
	idx := buildIndex(pass, nil)
	idx.computeSummaries()
	idx.check(checker{visit: func(st *simState, _ *ast.BlockStmt, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if _, name, method, ok := mutexOp(pass.Info, call); ok {
			if name == "dbMu" && method != "Unlock" && method != "RUnlock" && heldNamed(st.may, "sessMu") {
				pass.Reportf(call.Pos(), "dbMu acquired while sessMu is held; the lock order is dbMu before sessMu (see Server.Close)")
			}
			return
		}
		f := calleeFunc(pass.Info, call)
		if fi := idx.funcs[f]; fi != nil {
			if fi.annotated["dbMu"] != modeNone && !heldNamed(st.must, "dbMu") {
				pass.Reportf(call.Pos(), "%s requires dbMu held on entry (graphlint:requires) and is called outside a dbMu critical section", f.Name())
			}
			if fi.sum.acquires["dbMu"] != modeNone && heldNamed(st.may, "sessMu") {
				pass.Reportf(call.Pos(), "%s acquires dbMu and must not be called while sessMu is held; the lock order is dbMu before sessMu", f.Name())
			}
			return
		}
		if name, ok := tableOpName(f); ok && !heldNamed(st.must, "dbMu") {
			pass.Reportf(call.Pos(), "%s outside a dbMu critical section; relational tables and live-session teardown are serialized on dbMu", name)
		}
	}})
	return nil
}

// tableOpName reports whether f is a call that must run under dbMu, and
// returns a human-readable name for it.
func tableOpName(f *types.Func) (string, bool) {
	type op struct{ pkg, typ, name string }
	ops := []op{
		{relstorePath, "Table", "Insert"},
		{relstorePath, "Table", "Delete"},
		{relstorePath, "Table", "DeleteWhere"},
		{relstorePath, "Table", "CreateIndex"},
		{relstorePath, "Table", "NDistinct"},
		{relstorePath, "Table", "IndexedColumns"},
		{relstorePath, "DB", "Create"},
		{relstorePath, "DB", "Attach"},
		{relstorePath, "DB", "LoadCSV"},
		{relstorePath, "DB", "LoadCSVFiles"},
		{"graphgen", "Engine", "Extract"},
		{"graphgen", "Engine", "ExtractLive"},
		{"graphgen", "Engine", "ExtractProgram"},
		{"graphgen", "LiveGraph", "Close"},
	}
	for _, o := range ops {
		if isMethod(f, o.pkg, o.typ, o.name) {
			return "(" + o.typ + ")." + o.name, true
		}
	}
	return "", false
}
