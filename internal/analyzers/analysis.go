// Package analyzers is graphlint's home: a small, dependency-free
// static-analysis framework (the shape of golang.org/x/tools/go/analysis,
// which this repo cannot vendor) plus the repo-specific analyzers that
// machine-check GraphGen's hand-enforced invariants:
//
//   - keyencode:    composite map/dedup keys built from relstore.Value data
//     must go through relstore.AppendRowKey (the PR 4 "|"-collision bug class)
//   - lockorder:    internal/server must not take dbMu while sessMu may be
//     held, and must touch relational tables only with dbMu held on every path
//   - notifyorder:  relstore mutators must route through Table.notify, and
//     notify must bring indexes up to date before subscribers run
//   - determinism:  the deterministic packages (datagen, parallel, workload,
//     and the worker-pool merge paths) must not read wall clocks, use the
//     global math/rand source, or feed ordered appends from map iteration
//   - lockedreturn: a return must not leak a sync.Mutex/RWMutex that some
//     path into it holds
//   - iterclose:   a row iterator acquired in relstore/conj/extract/datalogeval/incremental
//     must be closed or handed off (consumer call, return, store)
//   - spanend:     a trace span started in relstore/conj/extract/datalogeval/incremental
//     must be ended or handed off (End call, owner handoff, return, store)
//   - guardedby:   struct fields annotated "graphlint:guardedby mu" are
//     accessed only while the named sibling mutex is held
//
// The three lock analyzers (guardedby, lockedreturn, lockorder) run on one
// branch-aware simulator over per-function lock summaries (summary.go),
// which tracks the locks held on every path (must) and on some path (may).
// iterclose and spanend are one positional obligation checker
// (obligation.go) with two specs.
//   - nilsafe:     internal/obs: exported *Trace/*Span methods begin with
//     a nil-receiver guard (the tracing-off fast path)
//
// Each analyzer inspects one type-checked package at a time (a Pass) and
// reports diagnostics. RunAnalyzers applies the suppression policy: a
// finding is silenced only by an inline "//lint:ignore <analyzer> <why>"
// comment on the same or the preceding line — for a multi-line statement,
// a trailing directive on its last line covers the whole statement — and
// the comment itself is checked: a missing justification, an unknown
// analyzer name, or a directive that no longer suppresses anything is a
// diagnostic in its own right (reported under the pseudo-analyzer "lint").
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding, with its position resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// LintName is the pseudo-analyzer under which suppression-policy
// violations (malformed or stale lint:ignore directives) are reported.
const LintName = "lint"

// ignoreMarker is the directive prefix, staticcheck-compatible:
// //lint:ignore NAME[,NAME...] justification
const ignoreMarker = "lint:ignore"

// ignoreDirective is one parsed lint:ignore comment.
type ignoreDirective struct {
	pos      token.Pos
	line     int
	fromLine int      // start line of the statement the directive trails, else line
	names    []string // analyzer names the directive silences
	reason   string
	used     bool
}

// parseDirectives extracts the lint:ignore directives of one file and
// reports malformed ones (missing analyzer list or justification, unknown
// analyzer names) as diagnostics. The analyzer list and the justification
// may be separated by any whitespace, not only a single space.
func parseDirectives(fset *token.FileSet, file *ast.File, known map[string]bool, report func(Diagnostic)) []*ignoreDirective {
	spans := stmtSpans(fset, file)
	var out []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, ignoreMarker)
			if !ok || (rest != "" && !startsWithSpace(rest)) {
				// "lint:ignoreXYZ" is not a directive at all.
				continue
			}
			pos := fset.Position(c.Pos())
			rest = strings.TrimSpace(rest)
			nameList, reason := cutAnySpace(rest)
			if nameList == "" || reason == "" {
				report(Diagnostic{Pos: pos, Analyzer: LintName,
					Message: "lint:ignore needs an analyzer list and a justification: //lint:ignore <analyzer>[,<analyzer>] <why>"})
				continue
			}
			names := strings.Split(nameList, ",")
			ok = true
			for _, n := range names {
				if !known[n] {
					report(Diagnostic{Pos: pos, Analyzer: LintName,
						Message: fmt.Sprintf("lint:ignore names unknown analyzer %q", n)})
					ok = false
				}
			}
			if !ok {
				continue
			}
			from := pos.Line
			if s, hit := spans[pos.Line]; hit && s < from {
				from = s
			}
			out = append(out, &ignoreDirective{pos: c.Pos(), line: pos.Line, fromLine: from, names: names, reason: reason})
		}
	}
	return out
}

func startsWithSpace(s string) bool {
	return s[0] == ' ' || s[0] == '\t'
}

// cutAnySpace splits at the first whitespace run, so a tab between the
// analyzer list and the justification parses the same as a space.
func cutAnySpace(s string) (head, tail string) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// stmtSpans maps each line on which a (non-block) statement ends to the
// start line of the innermost such statement: a directive trailing the
// last line of a multi-line statement suppresses diagnostics anchored
// anywhere on it, matching where gofmt leaves room for the comment.
func stmtSpans(fset *token.FileSet, file *ast.File) map[int]int {
	spans := map[int]int{}
	ast.Inspect(file, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if _, isBlock := s.(*ast.BlockStmt); isBlock {
			return true // a block's closing brace would cover far too much
		}
		start, end := fset.Position(s.Pos()).Line, fset.Position(s.End()).Line
		if cur, hit := spans[end]; !hit || start > cur {
			spans[end] = start // innermost statement ending here wins
		}
		return true
	})
	return spans
}

// RunAnalyzers applies every analyzer to every package, applies the
// suppression policy for ignore directives, and returns the surviving
// diagnostics sorted by position. A suppressed diagnostic marks its
// directive used; unused directives are reported — the ratchet must not
// accumulate stale escape hatches.
func RunAnalyzers(pkgs []*Package, as []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range as {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var directives []*ignoreDirective
		for _, f := range pkg.Files {
			directives = append(directives, parseDirectives(pkg.Fset, f, known, func(d Diagnostic) {
				out = append(out, d)
			})...)
		}
		suppress := func(d Diagnostic) bool {
			for _, dir := range directives {
				sameOrNext := dir.line == d.Pos.Line || dir.line == d.Pos.Line-1
				inSpan := dir.fromLine <= d.Pos.Line && d.Pos.Line <= dir.line
				if !sameOrNext && !inSpan {
					continue
				}
				for _, n := range dir.names {
					if n == d.Analyzer {
						dir.used = true
						return true
					}
				}
			}
			return false
		}
		for _, a := range as {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !suppress(d) {
					out = append(out, d)
				}
			}
		}
		for _, dir := range directives {
			if !dir.used {
				out = append(out, Diagnostic{Pos: pkg.Fset.Position(dir.pos), Analyzer: LintName,
					Message: fmt.Sprintf("lint:ignore for %s suppresses nothing; remove it", strings.Join(dir.names, ","))})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// All returns the graphlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		GuardedByAnalyzer,
		IterCloseAnalyzer,
		KeyencodeAnalyzer,
		LockedReturnAnalyzer,
		LockOrderAnalyzer,
		NilSafeAnalyzer,
		NotifyOrderAnalyzer,
		SpanEndAnalyzer,
	}
}

// typeIs reports whether t (unaliased, through one pointer) is the named
// type pkgPath.name. Aliases (e.g. graphgen.Value = relstore.Value)
// resolve to the same named type.
func typeIs(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or package function), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	}
	f, _ := obj.(*types.Func)
	return f
}

// isPkgFunc reports whether f is the package-level function pkgPath.name
// (not a method).
func isPkgFunc(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}

// isMethod reports whether f is the method typePkg.typeName.name.
func isMethod(f *types.Func, typePkg, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeIs(sig.Recv().Type(), typePkg, typeName)
}

// rootIdent returns the leftmost identifier of a selector/index/slice
// chain (x in x.y[i].z), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcUnits yields every function body in the file — declarations and
// function literals — each as an independent unit: stmts of a nested
// literal are excluded from the enclosing unit, so lock/taint state never
// leaks across goroutine or closure boundaries.
func funcUnits(file *ast.File, fn func(name string, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Name.Name, d.Body)
			}
		case *ast.FuncLit:
			fn("func literal", d.Body)
		}
		return true
	})
}

// inspectUnit walks body but does not descend into nested function
// literals (they are separate units).
func inspectUnit(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
