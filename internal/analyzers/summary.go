package analyzers

// The shared interprocedural layer behind the three lock analyzers —
// guardedby, lockedreturn and lockorder: guard annotations parsed from
// struct-field comments, a per-package index of function declarations,
// per-function lock summaries — which locks a function acquires
// (transitively), which it holds on exit or releases for its caller, and
// which it requires held on entry — computed to fixpoint over the
// package call graph so mutually recursive helpers converge, and the
// branch-aware simulator that computes them and then checks each body.
//
// Lock identity is textual and receiver-relative. At a call site or
// access site a lock is the rendered path of its owner expression plus
// the field name ("lv.mu", "s.sessMu"); in a summary it is the bare
// field name, valid only for paths rooted at the receiver. Translating
// between the two at call boundaries ("x.flush()" + summary {mu} ->
// "x.mu") is what makes the summaries composable without alias
// analysis. The approximation is deliberate: two variables denoting the
// same struct are different paths, and a lock reached through a
// non-receiver base can never be summarized — those sites are checked
// (and reported) directly instead.
//
// Control flow is simulated per statement, branch-aware, with two lock
// sets per point. The must-held set is what every path holds: if/else
// arms merge by intersection (an arm that returns drops out), and it is
// what an access or a call needs. The may-held set is what some path
// holds, with where it was taken: arms merge by union, and it is what a
// return can leak or an acquisition can invert. Loop bodies run once and
// merge with the pre-state. Deferred unlocks are tracked per path and
// run at function exit: they hold their lock to the end without counting
// as held-at-exit. Function literals passed directly as call arguments
// (iterator callbacks, sort.Slice comparators, worker-pool bodies) are
// simulated inline with the lock sets at the call site — they run before
// the call returns, so the enclosing critical section still covers them.
// Every other literal (go, defer, assigned, returned, stored) escapes the
// critical section and is simulated with nothing held.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// Annotation grammar (struct-field and func-doc comments):
//
//	// graphlint:guardedby <field>       field is read/written only while
//	//                                   the sibling mutex <field> is held
//	// graphlint:guardedby external:<n>  field is serialized by a lock that
//	//                                   lives outside this package (named
//	//                                   <n> for documentation); enforced as
//	//                                   "mutated only from methods of the
//	//                                   declaring package"
//	// graphlint:requires <field>[,...]  on a func: callers must hold the
//	//                                   receiver's mutex field(s); the body
//	//                                   is checked assuming they are held
const (
	guardedByMarker = "graphlint:guardedby"
	requiresMarker  = "graphlint:requires"
	externalPrefix  = "external:"
)

// lockMode orders how strongly a lock is held: a write hold (Lock)
// satisfies a read need, a read hold (RLock) does not satisfy a write
// need.
type lockMode int

const (
	modeNone lockMode = iota
	modeRead
	modeWrite
)

func (m lockMode) String() string {
	switch m {
	case modeRead:
		return "read"
	case modeWrite:
		return "write"
	}
	return "none"
}

// guardInfo is one parsed graphlint:guardedby annotation.
type guardInfo struct {
	field    string // annotated field name, for diagnostics
	lock     string // sibling mutex field name ("" for external guards)
	external string // external serialization domain ("" for sibling guards)
}

// funcInfo is one function or method declaration of the package under
// analysis.
type funcInfo struct {
	obj       *types.Func
	decl      *ast.FuncDecl
	recv      string              // receiver identifier ("" for functions and unnamed receivers)
	annotated map[string]lockMode // explicit graphlint:requires entries
	sum       *lockSummary
}

// lockSummary is the interprocedural abstract of one function, keyed by
// receiver-relative lock field names.
type lockSummary struct {
	// acquires: locks this function, or anything it transitively calls,
	// may take at some point (not necessarily still held on return).
	acquires map[string]lockMode
	// exitHeld: net acquisitions — locks held on every return that were
	// not held on entry (the acquire()-style helper shape).
	exitHeld map[string]lockMode
	// exitReleased: net releases — locks the function unlocks on behalf
	// of its caller.
	exitReleased map[string]bool
	// requires: locks that must be held on entry: explicit annotations
	// plus requirements inferred from guarded accesses and callee
	// requirements reached through the receiver.
	requires map[string]lockMode
}

func newSummary() *lockSummary {
	return &lockSummary{
		acquires:     map[string]lockMode{},
		exitHeld:     map[string]lockMode{},
		exitReleased: map[string]bool{},
		requires:     map[string]lockMode{},
	}
}

func summaryEqual(a, b *lockSummary) bool {
	return maps.Equal(a.acquires, b.acquires) &&
		maps.Equal(a.exitHeld, b.exitHeld) &&
		maps.Equal(a.exitReleased, b.exitReleased) &&
		maps.Equal(a.requires, b.requires)
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// pkgIndex is the shared interprocedural view of one package.
type pkgIndex struct {
	fset   *token.FileSet
	files  []*ast.File
	info   *types.Info
	pkg    *types.Package
	guards map[*types.Var]guardInfo
	funcs  map[*types.Func]*funcInfo
	order  []*funcInfo // declaration order, for deterministic fixpoint sweeps
}

// buildIndex collects guard and requires annotations and the function
// declarations of the package. Malformed annotations are reported through
// report when it is non-nil (guardedby owns those diagnostics;
// lockedreturn and lockorder pass nil to avoid duplicates).
func buildIndex(pass *Pass, report func(pos token.Pos, format string, args ...any)) *pkgIndex {
	idx := &pkgIndex{
		fset:   pass.Fset,
		files:  pass.Files,
		info:   pass.Info,
		pkg:    pass.Pkg,
		guards: map[*types.Var]guardInfo{},
		funcs:  map[*types.Func]*funcInfo{},
	}
	if report == nil {
		report = func(token.Pos, string, ...any) {}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if ok {
				idx.collectGuards(st, report)
			}
			return true
		})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &funcInfo{obj: obj, decl: fd, annotated: map[string]lockMode{}}
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				if name := fd.Recv.List[0].Names[0].Name; name != "_" {
					fi.recv = name
				}
			}
			idx.collectRequires(fi, report)
			idx.funcs[obj] = fi
			idx.order = append(idx.order, fi)
		}
	}
	return idx
}

// directiveArg extracts "// graphlint:<marker> <arg>" from a comment
// group.
func directiveArg(cg *ast.CommentGroup, marker string) (string, token.Pos, bool) {
	if cg == nil {
		return "", token.NoPos, false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, marker); ok {
			return strings.TrimSpace(rest), c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// collectGuards parses the guardedby annotations of one struct type and
// validates sibling locks.
func (idx *pkgIndex) collectGuards(st *ast.StructType, report func(pos token.Pos, format string, args ...any)) {
	for _, field := range st.Fields.List {
		arg, pos, ok := directiveArg(field.Doc, guardedByMarker)
		if !ok {
			arg, pos, ok = directiveArg(field.Comment, guardedByMarker)
		}
		if !ok {
			continue
		}
		if len(field.Names) == 0 {
			report(pos, "graphlint:guardedby cannot annotate an embedded field")
			continue
		}
		g := guardInfo{field: field.Names[0].Name}
		if ext, isExt := strings.CutPrefix(arg, externalPrefix); isExt {
			if ext == "" {
				report(pos, "graphlint:guardedby external: needs a lock name")
				continue
			}
			g.external = ext
		} else {
			if arg == "" {
				report(pos, "graphlint:guardedby needs a sibling mutex field name")
				continue
			}
			if !siblingMutex(idx.info, st, arg) {
				report(pos, "graphlint:guardedby %s: %q is not a sibling sync.Mutex/RWMutex field", g.field, arg)
				continue
			}
			g.lock = arg
		}
		for _, name := range field.Names {
			if v, _ := idx.info.Defs[name].(*types.Var); v != nil {
				gi := g
				gi.field = name.Name
				idx.guards[v] = gi
			}
		}
	}
}

// siblingMutex reports whether st declares a field named name of type
// sync.Mutex or sync.RWMutex (value or pointer).
func siblingMutex(info *types.Info, st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name != name {
				continue
			}
			obj := info.Defs[n]
			if obj == nil {
				return false
			}
			return typeIs(obj.Type(), "sync", "Mutex") || typeIs(obj.Type(), "sync", "RWMutex")
		}
	}
	return false
}

// collectRequires parses a graphlint:requires annotation on a function
// declaration. Required locks must be mutex fields of the receiver's
// struct; a requirement is always a write hold.
func (idx *pkgIndex) collectRequires(fi *funcInfo, report func(pos token.Pos, format string, args ...any)) {
	arg, pos, ok := directiveArg(fi.decl.Doc, requiresMarker)
	if !ok {
		return
	}
	if arg == "" {
		report(pos, "graphlint:requires needs a comma-separated list of receiver mutex fields")
		return
	}
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !receiverMutexField(fi.obj, name) {
			report(pos, "graphlint:requires %s: the receiver has no sync.Mutex/RWMutex field %q", fi.obj.Name(), name)
			continue
		}
		fi.annotated[name] = modeWrite
	}
}

// receiverMutexField reports whether fn's receiver struct has a mutex
// field of the given name.
func receiverMutexField(fn *types.Func, name string) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	st, _ := t.Underlying().(*types.Struct)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == name {
			return typeIs(f.Type(), "sync", "Mutex") || typeIs(f.Type(), "sync", "RWMutex")
		}
	}
	return false
}

// computeSummaries runs the summary inference to fixpoint, in
// declaration order per sweep. requires and acquires only grow, so the
// iteration converges; the bound is a backstop.
func (idx *pkgIndex) computeSummaries() {
	for _, fi := range idx.order {
		fi.sum = newSummary()
		fi.sum.requires = maps.Clone(fi.annotated)
	}
	for range 20 {
		changed := false
		for _, fi := range idx.order {
			sc := idx.newSim(fi, true, checker{})
			sc.inferred = maps.Clone(fi.sum.requires)
			ns := sc.run()
			if !summaryEqual(ns, fi.sum) {
				fi.sum = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// checker is what one analyzer asks of a check-mode simulation.
type checker struct {
	// assumeInferred enters each body holding its inferred entry
	// requirements as well as its annotated ones. guardedby sets it: an
	// unmet need is then reported at the callers that fail to supply it.
	// lockorder checks each graphlint:requires call where it is made, so
	// it assumes only what is annotated.
	assumeInferred bool
	// reportf receives the unmet needs of accesses and calls.
	reportf func(pos token.Pos, format string, args ...any)
	// visit sees every return and every call with the lock state just
	// before it applies, and the body being simulated.
	visit func(st *simState, unit *ast.BlockStmt, n ast.Node)
}

// check simulates every function of the package in check mode, once
// computeSummaries has converged. Function literals outside any function
// body (package variable initializers) run with nothing held.
func (idx *pkgIndex) check(c checker) {
	for _, fi := range idx.order {
		idx.newSim(fi, false, c).run()
	}
	pkgLevel := &funcInfo{sum: newSummary()}
	for _, file := range idx.files {
		for _, decl := range file.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				if _, isFunc := n.(*ast.FuncDecl); isFunc {
					return false
				}
				if lit, ok := n.(*ast.FuncLit); ok {
					idx.newSim(pkgLevel, false, c).simEscapedClosure(lit)
					return false
				}
				return true
			})
		}
	}
}

// simCtx simulates one function body. In summary mode (infer=true) unmet
// receiver-rooted needs become inferred entry requirements; in check
// mode they go to the checker.
type simCtx struct {
	checker
	idx      *pkgIndex
	fi       *funcInfo
	infer    bool
	top      *ast.BlockStmt // the declaration's body: only its returns exit the function
	unit     *ast.BlockStmt // the body being simulated: top or a function literal's
	escaped  bool           // inside an escaping function literal: nothing may be assumed held
	inferred map[string]lockMode
	acquires map[string]lockMode
	released map[string]bool
	exits    []map[string]lockMode
	reported map[string]bool
}

// simState is the lock state of the paths reaching one point.
type simState struct {
	must     map[string]lockMode    // held on every live path, at the weakest mode
	may      map[string]acquisition // held on at least one live path
	deferred map[string]bool        // unlock deferred to function exit on some path
	dead     bool                   // all paths through this state returned or branched away
}

// acquisition is where a may-held lock was taken.
type acquisition struct {
	pos    token.Pos // token.NoPos for a lock required on entry
	method string    // Lock, RLock, TryLock or TryRLock; a callee's net acquisition reads as Lock or RLock
}

func newState() *simState {
	return &simState{must: map[string]lockMode{}, may: map[string]acquisition{}, deferred: map[string]bool{}}
}

func (st *simState) clone() *simState {
	return &simState{must: maps.Clone(st.must), may: maps.Clone(st.may), deferred: maps.Clone(st.deferred), dead: st.dead}
}

// mergeInto joins other into st: the must set by intersection, the may
// and deferred sets by union (the later acquisition wins a tie).
func (st *simState) mergeInto(other *simState) {
	if other.dead {
		return
	}
	if st.dead {
		*st = *other
		return
	}
	intersectModes(st.must, other.must)
	for k, a := range other.may {
		if cur, ok := st.may[k]; !ok || a.pos > cur.pos {
			st.may[k] = a
		}
	}
	for k := range other.deferred {
		st.deferred[k] = true
	}
}

// intersectModes keeps in dst only the locks src holds too, at the
// weaker of the two modes.
func intersectModes(dst, src map[string]lockMode) {
	for k, v := range dst {
		sv, ok := src[k]
		if !ok {
			delete(dst, k)
		} else if sv < v {
			dst[k] = sv
		}
	}
}

// raise records that m holds k at least at mode.
func raise(m map[string]lockMode, k string, mode lockMode) {
	if m[k] < mode {
		m[k] = mode
	}
}

// hold makes path held on this path, taken by the call at pos.
func (st *simState) hold(path string, mode lockMode, pos token.Pos, method string) {
	raise(st.must, path, mode)
	st.may[path] = acquisition{pos: pos, method: method}
}

// heldNamed reports whether set holds a lock whose field name is name,
// on any owner path ("s.dbMu", "dbMu").
func heldNamed[V any](set map[string]V, name string) bool {
	for p := range set {
		if p == name || strings.HasSuffix(p, "."+name) {
			return true
		}
	}
	return false
}

func lockMethod(mode lockMode) string {
	if mode == modeRead {
		return "RLock"
	}
	return "Lock"
}

func (idx *pkgIndex) newSim(fi *funcInfo, infer bool, c checker) *simCtx {
	return &simCtx{
		checker:  c,
		idx:      idx,
		fi:       fi,
		infer:    infer,
		inferred: map[string]lockMode{},
		acquires: map[string]lockMode{},
		released: map[string]bool{},
		reported: map[string]bool{},
	}
}

// run simulates the function from the given summary's entry assumptions
// and returns the resulting summary.
func (sc *simCtx) run() *lockSummary {
	st := newState()
	if !sc.infer && sc.fi.recv != "" {
		// Check mode assumes the entry requirements hold.
		entry := sc.fi.annotated
		if sc.assumeInferred {
			entry = sc.fi.sum.requires
		}
		for name, mode := range entry {
			st.hold(sc.fi.recv+"."+name, mode, token.NoPos, lockMethod(mode))
		}
	}
	sc.top, sc.unit = sc.fi.decl.Body, sc.fi.decl.Body
	sc.simBlock(st, sc.top.List)
	if !st.dead {
		sc.exit(st)
	}
	return sc.finalize()
}

// exit records the locks one path holds when it leaves the function. Its
// deferred unlocks run first: one whose lock the path holds cancels that
// net acquisition, one whose lock it does not hold releases the caller's.
func (sc *simCtx) exit(st *simState) {
	held := maps.Clone(st.must)
	for p := range st.deferred {
		if _, ok := held[p]; ok {
			delete(held, p)
		} else if name, ok := recvRel(sc.fi.recv, p); ok {
			sc.released[name] = true
		}
	}
	sc.exits = append(sc.exits, held)
}

// finalize merges the exit states by intersection into the summary.
func (sc *simCtx) finalize() *lockSummary {
	sum := newSummary()
	sum.acquires = sc.acquires
	sum.requires = sc.inferred
	sum.exitReleased = sc.released
	var merged map[string]lockMode
	for i, e := range sc.exits {
		if i == 0 {
			merged = e
		} else {
			intersectModes(merged, e)
		}
	}
	for p, m := range merged {
		if name, ok := recvRel(sc.fi.recv, p); ok {
			sum.exitHeld[name] = m
		}
	}
	return sum
}

// recvRel maps a lock path rooted at the receiver ("lv.mu") to its
// receiver-relative name ("mu").
func recvRel(recv, path string) (string, bool) {
	if recv == "" {
		return "", false
	}
	rest, ok := strings.CutPrefix(path, recv+".")
	if !ok || rest == "" || strings.Contains(rest, ".") {
		return "", false
	}
	return rest, true
}

func (sc *simCtx) simBlock(st *simState, stmts []ast.Stmt) {
	for _, s := range stmts {
		sc.simStmt(st, s)
	}
}

func (sc *simCtx) simStmt(st *simState, stmt ast.Stmt) {
	if stmt == nil || st.dead {
		return
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		sc.simBlock(st, s.List)
	case *ast.IfStmt:
		sc.simStmt(st, s.Init)
		sc.simExpr(st, s.Cond)
		then := st.clone()
		sc.simBlock(then, s.Body.List)
		els := st.clone()
		sc.simStmt(els, s.Else)
		*st = *then
		st.mergeInto(els)
	case *ast.ForStmt:
		sc.simStmt(st, s.Init)
		sc.simExpr(st, s.Cond)
		body := st.clone()
		sc.simBlock(body, s.Body.List)
		sc.simStmt(body, s.Post)
		// Zero iterations is always possible; one body pass merged with
		// the pre-state is the (single-pass) loop approximation.
		if s.Cond != nil {
			st.mergeInto(body)
		} else if !body.dead {
			// `for {` only exits via break/return inside the body; keep
			// the pre-state (break paths were pruned conservatively).
			_ = body
		}
	case *ast.RangeStmt:
		sc.simExpr(st, s.X)
		body := st.clone()
		sc.simBlock(body, s.Body.List)
		st.mergeInto(body)
	case *ast.SwitchStmt:
		sc.simStmt(st, s.Init)
		sc.simExpr(st, s.Tag)
		sc.simClauses(st, s.Body.List, hasDefaultClause(s.Body.List))
	case *ast.TypeSwitchStmt:
		sc.simStmt(st, s.Init)
		sc.simStmt(st, s.Assign)
		sc.simClauses(st, s.Body.List, hasDefaultClause(s.Body.List))
	case *ast.SelectStmt:
		// Exactly one clause runs (a default clause is itself a clause).
		sc.simClauses(st, s.Body.List, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			sc.simExpr(st, r)
		}
		sc.observe(st, s)
		if sc.unit == sc.top {
			sc.exit(st)
		}
		st.dead = true
	case *ast.BranchStmt:
		// break/continue/goto: prune the path; joins fall back to the
		// conservative pre-state kept by the enclosing construct.
		st.dead = true
	case *ast.DeferStmt:
		sc.simDefer(st, s.Call)
	case *ast.GoStmt:
		sc.observe(newState(), s.Call) // the goroutine starts holding nothing
		sc.simAsyncCall(st, s.Call)
	case *ast.LabeledStmt:
		sc.simStmt(st, s.Stmt)
	case *ast.EmptyStmt:
	default:
		// Simple statements: assignments, expressions, sends, inc/dec,
		// declarations — position-ordered event extraction.
		sc.simExpr(st, stmt)
	}
}

func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		switch cl := c.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				return true
			}
		case *ast.CommClause:
			if cl.Comm == nil {
				return true
			}
		}
	}
	return false
}

// simClauses simulates switch/select clause bodies independently from
// the pre-state and joins the outcomes; without a default clause the
// pre-state itself stays a possible outcome.
func (sc *simCtx) simClauses(st *simState, clauses []ast.Stmt, exhaustive bool) {
	pre := st.clone()
	var outcome *simState
	for _, c := range clauses {
		branch := pre.clone()
		switch cl := c.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				sc.simExpr(branch, e)
			}
			sc.simBlock(branch, cl.Body)
		case *ast.CommClause:
			sc.simStmt(branch, cl.Comm)
			sc.simBlock(branch, cl.Body)
		}
		if outcome == nil {
			outcome = branch
		} else {
			outcome.mergeInto(branch)
		}
	}
	if outcome == nil {
		return
	}
	if !exhaustive {
		outcome.mergeInto(pre)
	}
	*st = *outcome
}

// simDefer handles a defer: a deferred direct unlock holds its lock to
// function exit on this path (and is excluded from exitHeld); any other
// deferred call is observed with the locks held where it is deferred, and
// a deferred function literal escapes the critical section.
func (sc *simCtx) simDefer(st *simState, call *ast.CallExpr) {
	if path, _, method, ok := mutexOp(sc.idx.info, call); ok {
		if method == "Unlock" || method == "RUnlock" {
			st.deferred[path] = true
		}
		return
	}
	sc.observe(st, call)
	sc.simAsyncCall(st, call)
}

// simAsyncCall evaluates a go/defer call's operands now but applies no
// callee effects: the call body runs outside the current position.
func (sc *simCtx) simAsyncCall(st *simState, call *ast.CallExpr) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		sc.simEscapedClosure(lit)
	}
	for _, a := range call.Args {
		sc.simExpr(st, a)
	}
}

// simInlineClosure simulates a function literal passed directly as a
// call argument: it runs before the call returns, under whatever the
// caller holds at the call site. Its own defers run at its own exit, and
// its returns leave only the literal.
func (sc *simCtx) simInlineClosure(st *simState, lit *ast.FuncLit) {
	inner := st.clone()
	inner.deferred = map[string]bool{}
	saveUnit := sc.unit
	sc.unit = lit.Body
	sc.simBlock(inner, lit.Body.List)
	sc.unit = saveUnit
}

// simEscapedClosure simulates a literal that outlives the statement
// (go, defer, assigned, returned, stored): nothing is held on entry and
// no requirement can be inferred for it.
func (sc *simCtx) simEscapedClosure(lit *ast.FuncLit) {
	if sc.infer {
		return // escaping bodies contribute nothing to the summary
	}
	saveUnit, saveEsc := sc.unit, sc.escaped
	sc.unit, sc.escaped = lit.Body, true
	sc.simBlock(newState(), lit.Body.List)
	sc.unit, sc.escaped = saveUnit, saveEsc
}

// observe hands one return or call to the check-mode visitor.
func (sc *simCtx) observe(st *simState, n ast.Node) {
	if sc.visit != nil {
		sc.visit(st, sc.unit, n)
	}
}

// simExpr extracts and applies the events of one simple statement or
// expression in source order: mutex operations, guarded-field accesses,
// calls to summarized functions, and nested function literals.
func (sc *simCtx) simExpr(st *simState, node ast.Node) {
	if node == nil || st.dead {
		return
	}
	writes := map[ast.Expr]bool{}
	inline := map[*ast.FuncLit]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if inline[x] {
				sc.simInlineClosure(st, x)
			} else {
				sc.simEscapedClosure(x)
			}
			return false
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				markWriteSpine(writes, l)
			}
		case *ast.IncDecStmt:
			markWriteSpine(writes, x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				// Taking the address lets the value escape its guard;
				// require the strongest hold at the site.
				markWriteSpine(writes, x.X)
			}
		case *ast.CallExpr:
			sc.observe(st, x)
			if path, name, method, ok := mutexOp(sc.idx.info, x); ok {
				sc.applyMutexOp(st, x.Pos(), path, name, method)
				return true
			}
			if isBuiltinDelete(sc.idx.info, x) && len(x.Args) > 0 {
				markWriteSpine(writes, x.Args[0])
			}
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				inline[lit] = true
			}
			for _, a := range x.Args {
				if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
					inline[lit] = true
				}
			}
			sc.applyCall(st, x)
		case *ast.SelectorExpr:
			sc.checkAccess(st, x, writes[x])
		}
		return true
	})
}

// markWriteSpine marks every selector on the access path of a write
// target: `s.sessions[k] = v`, `lv.stats.Rebuilds++`, and `delete(m.routes, r)`
// all mutate the state behind the annotated field on their spine.
func markWriteSpine(writes map[ast.Expr]bool, e ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			writes[x] = true
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

func isBuiltinDelete(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "delete"
}

// mutexOp classifies a call as a sync.Mutex/RWMutex method on a lock
// path, returning the rendered owner path ("lv.mu"), the lock's field
// name, and the method.
func mutexOp(info *types.Info, call *ast.CallExpr) (path, name, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || !isSyncLockMethod(info, sel) {
		return "", "", "", false
	}
	base := ast.Unparen(sel.X)
	path = types.ExprString(base)
	switch b := base.(type) {
	case *ast.SelectorExpr:
		name = b.Sel.Name
	case *ast.Ident:
		name = b.Name
	default:
		name = path
	}
	return path, name, sel.Sel.Name, true
}

// isSyncLockMethod reports whether sel resolves to a method of
// sync.Mutex or sync.RWMutex.
func isSyncLockMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	f, _ := info.Uses[sel.Sel].(*types.Func)
	if f == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeIs(sig.Recv().Type(), "sync", "Mutex") || typeIs(sig.Recv().Type(), "sync", "RWMutex")
}

func (sc *simCtx) applyMutexOp(st *simState, pos token.Pos, path, name, method string) {
	switch method {
	case "Lock", "TryLock":
		st.hold(path, modeWrite, pos, method)
		raise(sc.acquires, name, modeWrite)
	case "RLock", "TryRLock":
		st.hold(path, modeRead, pos, method)
		raise(sc.acquires, name, modeRead)
	case "Unlock", "RUnlock":
		_, held := st.must[path]
		delete(st.must, path)
		delete(st.may, path)
		if rel, ok := recvRel(sc.fi.recv, path); ok && !held && !sc.escaped {
			// Releasing a lock this function never took: it unlocks on
			// behalf of the caller.
			sc.released[rel] = true
		}
	}
}

// applyCall checks a callee's entry requirements against the held set
// and applies its net effects, translating receiver-relative summary
// names through the call's receiver expression.
func (sc *simCtx) applyCall(st *simState, call *ast.CallExpr) {
	f := calleeFunc(sc.idx.info, call)
	if f == nil {
		return
	}
	fi := sc.idx.funcs[f]
	if fi == nil || fi.sum == nil {
		return
	}
	basePath := ""
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		basePath = types.ExprString(ast.Unparen(sel.X))
	}
	for name, mode := range fi.sum.acquires {
		raise(sc.acquires, name, mode)
	}
	if basePath == "" {
		return // requirements and net effects are receiver-relative
	}
	for _, name := range sortedNames(fi.sum.requires) {
		mode := fi.sum.requires[name]
		if st.must[basePath+"."+name] < mode {
			sc.unmet(call.Pos(), basePath, name, mode,
				fmt.Sprintf("call to %s, which needs %s.%s %s-held on entry", f.Name(), basePath, name, mode))
		}
	}
	for name := range fi.sum.exitReleased {
		delete(st.must, basePath+"."+name)
		delete(st.may, basePath+"."+name)
	}
	for name, mode := range fi.sum.exitHeld {
		st.hold(basePath+"."+name, mode, call.Pos(), lockMethod(mode))
	}
}

// checkAccess handles one selector that may resolve to a guarded field.
func (sc *simCtx) checkAccess(st *simState, sel *ast.SelectorExpr, write bool) {
	v, _ := sc.idx.info.Uses[sel.Sel].(*types.Var)
	if v == nil {
		return
	}
	g, ok := sc.idx.guards[v]
	if !ok || g.external != "" {
		return // external guards are enforced by the write-site rule
	}
	basePath := types.ExprString(ast.Unparen(sel.X))
	need := modeRead
	verb := "read"
	if write {
		need = modeWrite
		verb = "written"
	}
	have := st.must[basePath+"."+g.lock]
	if have >= need {
		return
	}
	if have == modeRead && need == modeWrite {
		sc.report(sel.Pos(), "%s.%s is %s while %s.%s is only read-held (RLock); writes need Lock",
			basePath, g.field, verb, basePath, g.lock)
		return
	}
	sc.unmet(sel.Pos(), basePath, g.lock, need,
		fmt.Sprintf("%s.%s is %s without %s.%s held (graphlint:guardedby %s)",
			basePath, g.field, verb, basePath, g.lock, g.lock))
}

// unmet resolves an unsatisfied lock need: inferred as an entry
// requirement when the lock is rooted at the receiver (summary mode),
// reported otherwise.
func (sc *simCtx) unmet(pos token.Pos, basePath, name string, mode lockMode, what string) {
	if !sc.escaped && basePath == sc.fi.recv && sc.fi.recv != "" {
		if sc.infer {
			raise(sc.inferred, name, mode)
			return
		}
		// Check mode runs with the converged requirements held, so a
		// receiver-rooted need only lands here if inference was cut off
		// (escaping literal handled above); fall through and report.
	}
	if sc.escaped {
		what += " — this function literal escapes the enclosing critical section (go/defer/stored); acquire the lock inside it"
	}
	sc.report(pos, "%s", what)
}

func (sc *simCtx) report(pos token.Pos, format string, args ...any) {
	if sc.reportf == nil {
		return
	}
	key := fmt.Sprintf("%d:%s", pos, fmt.Sprintf(format, args...))
	if sc.reported[key] {
		return
	}
	sc.reported[key] = true
	sc.reportf(pos, format, args...)
}
