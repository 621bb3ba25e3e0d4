package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// iterPkgs are the packages that build and drain relstore row-iterator
// pipelines; only there does the Close obligation below apply.
var iterPkgs = map[string]bool{
	"graphgen/internal/relstore":    true,
	"graphgen/internal/conj":        true,
	"graphgen/internal/extract":     true,
	"graphgen/internal/datalogeval": true,
	"graphgen/internal/incremental": true,
}

// IterCloseAnalyzer flags row iterators that are acquired and then
// abandoned — the streaming-pipeline counterpart of lockedreturn's leaked
// mutex. A leaked RowIter pins its operator state (join build sides,
// distinct sets, index gathers) and its Tracker accounting for the life
// of the process.
//
// The iterator contract (internal/relstore/iter.go) discharges the Close
// obligation in exactly one of three ways: the holder calls Close itself,
// hands the iterator to a consumer (any call taking it as an argument —
// Collect, Materialize, closeAll, or a downstream constructor, which owns
// its inputs on success), or passes it along (returns it, stores it in a
// variable, field, or composite literal). Detection is positional, like
// lockedreturn: within one function body (closures are independent units,
// but a capture by a nested closure counts as a handoff), a local
// variable assigned from a call whose static type has the RowIter shape —
// a method set with Next() (row, bool, error) and Close() error — must be
// followed by at least one discharging use. Merely draining the iterator
// (x.Next(), x.Cols() receiver uses) does not discharge it: that is
// precisely the "looped over it, forgot the Close" leak. Intentional
// leaks take a //lint:ignore iterclose <why>.
var IterCloseAnalyzer = &Analyzer{
	Name: "iterclose",
	Doc:  "row iterators must be closed or handed off on every path in relstore/conj/extract/datalogeval/incremental",
	Run:  runIterClose,
}

func runIterClose(pass *Pass) error {
	if !iterPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		funcUnits(file, func(_ string, body *ast.BlockStmt) {
			iterCloseUnit(pass, body)
		})
	}
	return nil
}

// isRowIterType reports whether t's method set has the RowIter shape:
// Next() (T, bool, error) and Close() error. Structural matching keeps
// the check honest across the concrete operator types and the interface
// itself without importing relstore into the analyzer.
func isRowIterType(t types.Type) bool {
	if t == nil {
		return false
	}
	next := methodSig(t, "Next")
	if next == nil || next.Params().Len() != 0 || next.Results().Len() != 3 ||
		!isBasic(next.Results().At(1).Type(), types.Bool) || !isErrorType(next.Results().At(2).Type()) {
		return false
	}
	closeSig := methodSig(t, "Close")
	return closeSig != nil && closeSig.Params().Len() == 0 &&
		closeSig.Results().Len() == 1 && isErrorType(closeSig.Results().At(0).Type())
}

func methodSig(t types.Type, name string) *types.Signature {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Name() == name {
			if sig, ok := f.Type().(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

func isBasic(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func iterCloseUnit(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info

	// Acquisitions: iterator-typed locals assigned from a call result in
	// this unit (not inside nested closures — those are their own units).
	type acquire struct {
		obj  types.Object
		pos  token.Pos
		name string
	}
	var acquires []acquire
	inspectUnit(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) == 0 {
			return true
		}
		// Only call RHSs acquire: `a := b` is an alias of an existing
		// obligation, and `var it RowIter` holds nothing yet.
		fromCall := false
		for _, r := range as.Rhs {
			if _, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				fromCall = true
			}
		}
		if !fromCall {
			return true
		}
		for _, l := range as.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil || !isRowIterType(obj.Type()) {
				continue
			}
			acquires = append(acquires, acquire{obj: obj, pos: id.Pos(), name: id.Name})
		}
		return true
	})
	if len(acquires) == 0 {
		return
	}

	// Discharging uses, by object and position. The walk descends into
	// nested function literals: capturing an iterator in a closure (e.g.
	// a deferred cleanup) hands it off.
	discharges := map[types.Object][]token.Pos{}
	record := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := info.Uses[id]; obj != nil {
				discharges[obj] = append(discharges[obj], id.Pos())
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						discharges[obj] = append(discharges[obj], id.Pos())
					}
				}
			}
			for _, arg := range x.Args {
				record(arg)
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				record(r)
			}
		case *ast.AssignStmt:
			// RHS uses alias or store the iterator; the LHS of its own
			// acquisition is a definition, not a use, so it never
			// self-discharges.
			for _, r := range x.Rhs {
				if _, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					continue // call arguments are recorded above
				}
				record(r)
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				record(el)
			}
		}
		return true
	})

	for _, a := range acquires {
		ok := false
		for _, p := range discharges[a.obj] {
			if p > a.pos {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(a.pos, "iterator %s is acquired but never closed or handed off; call %s.Close(), pass it to a consumer, or return it", a.name, a.name)
		}
	}
}
