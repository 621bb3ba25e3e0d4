package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

const relstorePath = "graphgen/internal/relstore"

// KeyencodeAnalyzer flags composite map/dedup keys built from
// relstore.Value (or row) data with fmt.Sprintf/Sprint, strings.Join, or
// manual string concatenation. Such keys are ambiguous the moment a
// string value contains the chosen separator — the PR 4 tuple-drop bug,
// where "a|b"+"c" and "a"+"b|c" collided in a dedup set. The safe string
// encoding is relstore.AppendRowKey (each value length-prefixed by
// Value.AppendKeyBytes), which keys the persistent index buckets; a dedup
// or build set needs no string key at all — relstore.RowSet hashes the
// Values in place, and is what the relational operators, conj's negation
// sets and the Datalog evaluator's tuple sets use.
//
// Detection is taint-based within one function: strings derived from
// Value data (field reads, String() calls, carried through assignments)
// that pass through a composite builder and end up indexing a map (or as
// a map-literal key, or a delete() key) are reported at the build site.
var KeyencodeAnalyzer = &Analyzer{
	Name: "keyencode",
	Doc:  "composite keys over relstore.Value data must use relstore.AppendRowKey, not Sprintf/Join/concatenation",
	Run:  runKeyencode,
}

func runKeyencode(pass *Pass) error {
	for _, file := range pass.Files {
		funcUnits(file, func(_ string, body *ast.BlockStmt) {
			keyencodeUnit(pass, body)
		})
	}
	return nil
}

// keyencodeUnit analyzes one function body.
func keyencodeUnit(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info

	// carriers: objects holding string data derived from Value contents.
	carriers := map[types.Object]bool{}
	// composites: carrier objects whose value was built by a composite
	// builder (Sprintf/Sprint/Join/+), mapped to the build expression.
	composites := map[types.Object]ast.Expr{}

	// containsValueData reports whether any subexpression of e is typed
	// relstore.Value (directly, or as a slice/array/pointer element, so
	// whole rows count) or is a known carrier identifier.
	containsValueData := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			ex, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if id, ok := ex.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && carriers[obj] {
					found = true
					return false
				}
			}
			if tv, ok := info.Types[ex]; ok && containsValueType(tv.Type) {
				found = true
				return false
			}
			return true
		})
		return found
	}

	// compositeBuilder classifies e as a composite string builder over
	// Value-derived data and names the builder, or returns "".
	compositeBuilder := func(e ast.Expr) string {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			f := calleeFunc(info, x)
			switch {
			case isPkgFunc(f, "fmt", "Sprintf"), isPkgFunc(f, "fmt", "Sprint"), isPkgFunc(f, "fmt", "Sprintln"):
				if containsValueData(x) {
					return "fmt." + f.Name()
				}
			case isPkgFunc(f, "strings", "Join"):
				if containsValueData(x) {
					return "strings.Join"
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && isStringType(tv.Type) && containsValueData(x) {
					return "string concatenation"
				}
			}
		}
		return ""
	}

	report := func(e ast.Expr, builder string) {
		pass.Reportf(e.Pos(), "map key built from relstore.Value data with %s is ambiguous when a value contains the separator; encode the components with relstore.AppendRowKey", builder)
	}

	// checkKeyUse flags e when it is a composite Value-derived builder or
	// an identifier whose value was built by one.
	reported := map[token.Pos]bool{}
	checkKeyUse := func(e ast.Expr) {
		e = ast.Unparen(e)
		if b := compositeBuilder(e); b != "" {
			if !reported[e.Pos()] {
				reported[e.Pos()] = true
				report(e, b)
			}
			return
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if build, ok := composites[obj]; ok {
					if !reported[build.Pos()] {
						reported[build.Pos()] = true
						report(build, "a "+obj.Name()+" key assembled above")
					}
				}
			}
		}
	}

	// Taint pass: propagate carrier/composite facts through assignments.
	// A couple of fixpoint rounds cover the loop-carried cases that occur
	// in practice (key accumulated across iterations).
	for range 3 {
		inspectUnit(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				root := rootIdent(lhs)
				if root == nil {
					continue
				}
				obj := info.Defs[root]
				if obj == nil {
					obj = info.Uses[root]
				}
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				// s += expr is a concatenation build in disguise.
				if as.Tok == token.ADD_ASSIGN && containsValueData(rhs) {
					carriers[obj] = true
					if _, ok := composites[obj]; !ok {
						composites[obj] = rhs
					}
					continue
				}
				if b := compositeBuilder(rhs); b != "" {
					carriers[obj] = true
					if _, ok := composites[obj]; !ok {
						composites[obj] = rhs
					}
					continue
				}
				if isStringish(info, lhs) && containsValueData(rhs) {
					carriers[obj] = true
				}
			}
			return true
		})
	}

	// Use pass: find key positions.
	inspectUnit(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); isMap {
					checkKeyUse(x.Index)
				}
			}
		case *ast.CallExpr:
			// delete(m, k)
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 2 {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					checkKeyUse(x.Args[1])
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); isMap {
					for _, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							checkKeyUse(kv.Key)
						}
					}
				}
			}
		}
		return true
	})
}

// containsValueType reports whether t is relstore.Value or a
// slice/array/pointer (transitively) of it.
func containsValueType(t types.Type) bool {
	for range 4 {
		if t == nil {
			return false
		}
		if typeIs(t, relstorePath, "Value") {
			return true
		}
		switch u := types.Unalias(t).Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringish(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isStringType(tv.Type)
}
