package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GuardedByAnalyzer verifies the annotated mutex-guard discipline, in
// the style of Clang's GUARDED_BY thread-safety analysis: every read or
// write of a struct field annotated "// graphlint:guardedby mu" must
// happen while the named sibling mutex is held — a write hold (Lock)
// for writes, at least a read hold (RLock) for reads.
//
// The check is interprocedural within the package: unlocked accesses
// through the receiver become inferred entry requirements that
// propagate to callers over the call-graph fixpoint (summary.go), so a
// helper called under the lock needs no annotation, while the unlocked
// call one or two levels up is the site that gets flagged. Exported
// functions must not rely on an inferred requirement — cross-package
// callers are never analyzed — so they either lock internally or carry
// an explicit "// graphlint:requires mu" annotation, which doubles as
// the documented contract.
//
// Fields annotated "guardedby external:<name>" are serialized by a lock
// that lives outside the declaring package (relstore's tables under the
// server's dbMu). Export data carries no comments, so holding cannot be
// checked across packages; what is enforced is the choke point: such
// fields may be mutated only from methods of the declaring package
// (closures nested in them included), keeping every mutation path on
// the externally-serialized surface.
//
// Known approximations, documented in docs/ARCHITECTURE.md: guard
// tracking is field-granular (state reached through an alias — e.g.
// re := m.routes[k]; re.count++ — is beyond it), TryLock is treated as
// acquired, loops are simulated single-pass, and composite literals
// (construction, before the value is shared) are exempt.
var GuardedByAnalyzer = &Analyzer{
	Name: "guardedby",
	Doc:  "annotated struct fields are accessed only with their guarding mutex held; external-guard fields mutate only via methods of their package",
	Run:  runGuardedBy,
}

func runGuardedBy(pass *Pass) error {
	idx := buildIndex(pass, pass.Reportf)
	annotated := len(idx.guards) > 0
	for _, fi := range idx.order {
		if len(fi.annotated) > 0 {
			annotated = true
		}
	}
	if !annotated {
		return nil // unannotated packages opt out entirely
	}
	idx.computeSummaries()
	idx.check(checker{assumeInferred: true, reportf: pass.Reportf})
	for _, fi := range idx.order {
		if fi.obj.Exported() && fi.recv != "" {
			// An exported function's inferred requirement is invisible to
			// the cross-package callers that can actually violate it.
			for _, name := range sortedNames(fi.sum.requires) {
				if fi.annotated[name] == modeNone {
					pass.Reportf(fi.decl.Name.Pos(),
						"exported %s relies on callers holding %s; acquire it internally or annotate // graphlint:requires %s",
						fi.obj.Name(), name, name)
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			checkExternalWrites(pass, idx, decl)
		}
	}
	return nil
}

// checkExternalWrites enforces the external-guard choke point: fields
// serialized outside the package may be mutated only from (closures
// nested in) methods of the declaring package.
func checkExternalWrites(pass *Pass, idx *pkgIndex, decl ast.Decl) {
	fd, isFn := decl.(*ast.FuncDecl)
	inMethod := isFn && fd.Recv != nil
	if inMethod {
		return
	}
	writes := map[ast.Expr]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				markWriteSpine(writes, l)
			}
		case *ast.IncDecStmt:
			markWriteSpine(writes, x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markWriteSpine(writes, x.X)
			}
		case *ast.CallExpr:
			if isBuiltinDelete(pass.Info, x) && len(x.Args) > 0 {
				markWriteSpine(writes, x.Args[0])
			}
		case *ast.SelectorExpr:
			if !writes[x] {
				return true
			}
			v, _ := pass.Info.Uses[x.Sel].(*types.Var)
			if v == nil {
				return true
			}
			if g, ok := idx.guards[v]; ok && g.external != "" {
				pass.Reportf(x.Pos(),
					"%s is serialized externally (graphlint:guardedby external:%s); mutate it only from methods of this package",
					g.field, g.external)
			}
		}
		return true
	})
}
