package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// spanPkgs are the traced execution layers: the packages that start
// obs spans around operators, rules, strata, and delta rounds. Only
// there does the End obligation below apply.
var spanPkgs = map[string]bool{
	"graphgen/internal/relstore":    true,
	"graphgen/internal/conj":        true,
	"graphgen/internal/extract":     true,
	"graphgen/internal/datalogeval": true,
	"graphgen/internal/incremental": true,
}

// SpanEndAnalyzer flags execution-trace spans that are started and then
// abandoned. A span that is never ended keeps its wall-clock open (its
// duration is taken at End) and, for container spans, leaves the trace's
// container stack pointing at it — every span started afterwards
// attaches under the leaked container, silently corrupting the tree
// EXPLAIN/ANALYZE reports.
//
// The span contract (internal/obs) discharges the obligation in one of
// three ways: the holder calls End itself (directly or deferred), hands
// the span to an owner that ends it (any call taking it as an argument —
// relstore's traced() wrapper ends the span at iterator Close), or
// passes it along (returns it, stores it in a variable, field, or
// composite literal, or captures it in a closure). Detection is
// positional and structural, like iterclose: within one function unit, a
// local assigned from a call whose static type has the span shape — a
// method set with End() and SetStrategy(string), both niladic-result —
// must be followed by at least one discharging use. Annotating the span
// (AddRows, SetStrategy, Set) does not discharge it: that is precisely
// the "measured the work, forgot the End" leak. Intentional leaks take a
// //lint:ignore spanend <why>.
var SpanEndAnalyzer = &Analyzer{
	Name: "spanend",
	Doc:  "trace spans must be ended or handed off on every path in relstore/conj/extract/datalogeval/incremental",
	Run:  runSpanEnd,
}

func runSpanEnd(pass *Pass) error {
	if !spanPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		funcUnits(file, func(_ string, body *ast.BlockStmt) {
			spanEndUnit(pass, body)
		})
	}
	return nil
}

// isSpanType reports whether t's method set has the span shape: End()
// with no parameters or results and SetStrategy(string) with no results.
// Structural matching keeps the check honest without importing obs into
// the analyzer (and lets fixtures define their own span type).
func isSpanType(t types.Type) bool {
	if t == nil {
		return false
	}
	end := methodSig(t, "End")
	if end == nil || end.Params().Len() != 0 || end.Results().Len() != 0 {
		return false
	}
	ss := methodSig(t, "SetStrategy")
	return ss != nil && ss.Params().Len() == 1 && ss.Results().Len() == 0 &&
		isBasic(ss.Params().At(0).Type(), types.String)
}

func spanEndUnit(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info

	// Acquisitions: span-typed locals assigned from a call result in this
	// unit (not inside nested closures — those are their own units).
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
		// Only call RHSs acquire: `a := b` aliases an existing
		// obligation, and `var sp *Span` holds nothing yet.
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
			if obj == nil || !isSpanType(obj.Type()) {
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
	// nested function literals: capturing a span in a closure (e.g. a
	// deferred cleanup) hands it off.
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
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
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
			// RHS uses alias or store the span; the LHS of its own
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
			pass.Reportf(a.pos, "span %s is started but never ended or handed off; call %s.End() (or defer it), pass it to an owner, or return it", a.name, a.name)
		}
	}
}
