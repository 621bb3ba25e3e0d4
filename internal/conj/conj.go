// Package conj is the one translation from a conjunctive rule body to a
// relstore.RowIter pipeline. The extraction planner (internal/extract), the
// semi-naive Datalog rounds (internal/datalogeval) and live delta
// maintenance (internal/incremental) each describe what they want as a Plan
// — data, not caller identity — and Open compiles it: per-occurrence scans
// with constant selections pushed into the table (or index-bucket) walk,
// streaming joins on all shared variables, comparison filters as soon as
// their variables are bound, anti-join filters for the negated atoms, and a
// final projection onto the output variables.
//
// Join order: the start occurrence, then repeatedly the first pending
// occurrence in body order that shares a variable with the accumulated
// side; when none does, the first pending occurrence joins as a cross
// product (a variable-free atom is just a zero-column component of it).
// Table-backed occurrences go through NewScan/NewTableJoin and keep the
// deferred index-vs-scan choice; occurrences with explicit rows (a
// semi-naive delta, a changed tuple, a pre-update view) never take an
// index path — their row source is the slice, not the table. Every access
// path yields the same row stream, so results do not depend on which
// indexes exist.
//
// Liveness: after a stage a variable is live when it is an output variable
// or occurs in an occurrence, comparison or negated atom still to be
// applied. Scans and joins emit only live columns (the join cursors build
// the pruned row directly, in a reused scratch row). Under Distinct — the
// consumer keeps a set — a stage that dropped a column and still has a
// join ahead also drops the duplicates the narrowing exposed, in stream
// order: a pruned-away attribute is exactly what made those rows differ,
// and each would otherwise multiply through every later join. First
// occurrences are kept on what becomes the next join's build side and
// join output is probe-major, so only rows repeating an earlier one leave
// the stream: the first occurrences of the distinct rows arrive in the
// unpruned plan's order. The final projection never deduplicates; the
// consumer's set drops what repeats (Extract does so on resolved slot
// pairs, EvalConjunctive through relstore). Bag plans only project: their
// consumers count multiplicities (support counts, the derived-row budget).
//
// Close contract: Open returns a pipeline with one Close obligation, its
// head; when Open fails, everything it had built is already closed.
package conj

import (
	"fmt"
	"slices"

	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// Occurrence is one positive body atom with its resolved table. Explicit
// substitutes Rows for the table's own rows as the row source; the table
// still supplies the schema.
type Occurrence struct {
	Atom     datalog.Atom
	Table    *relstore.Table
	Rows     [][]relstore.Value
	Explicit bool
}

// Plan describes one conjunctive evaluation: what to compute (atoms, start,
// comparisons, negations, output) and the execution context to compute it
// under. It carries no execution setting of its own.
type Plan struct {
	Atoms []Occurrence
	// Start indexes the occurrence the join order begins with: the small
	// side every result row must use (the delta slice, the changed tuple),
	// otherwise 0.
	Start int
	Comps []datalog.Comparison
	Negs  []*Negation
	// Out lists the output variables. Distinct says the consumer keeps a
	// set of the rows, which permits early duplicate elimination: the
	// output may still repeat a row, and dropping the repeats is the
	// consumer's. A pipeline that already carries exactly Out skips the
	// final projection.
	Out      []string
	Distinct bool
	// Guard, when non-nil, wraps the stream behind every join stage (after
	// the comparisons that stage made applicable). Its owner uses it to
	// bound the rows a body may produce mid-join.
	Guard func(relstore.RowIter) relstore.RowIter
	// Exec is the caller's execution context, handed to every operator as
	// it came. Under relstore.MaterializingOracle (tests only) Open
	// materializes after every operator and prunes nothing.
	Exec relstore.ExecOpts
}

// Open compiles the plan into a pipeline yielding the Out columns.
func (p *Plan) Open() (relstore.RowIter, error) {
	if len(p.Atoms) == 0 {
		return nil, fmt.Errorf("conj: empty rule body")
	}
	// Each occurrence is compiled exactly once, before any iterator exists,
	// so arity and safety diagnostics leave nothing to close.
	scans := make([]*atomScan, len(p.Atoms))
	bound := make(map[string]bool)
	for i, o := range p.Atoms {
		sc, err := compileAtom(o.Atom, o.Table)
		if err != nil {
			return nil, err
		}
		scans[i] = sc
		for _, v := range sc.names {
			bound[v] = true
		}
	}
	if err := p.checkBound(bound); err != nil {
		return nil, err
	}
	b := &builder{p: p, scans: scans, comps: slices.Clone(p.Comps), prune: true,
		stage: func(it relstore.RowIter) (relstore.RowIter, error) { return it, nil }}
	if p.Exec.Oracle() {
		b.prune = false
		b.stage = func(it relstore.RowIter) (relstore.RowIter, error) {
			return relstore.Materialize(it, p.Exec.Tracker)
		}
	}
	for i := range p.Atoms {
		if i != p.Start {
			b.pending = append(b.pending, i)
		}
	}

	start := scans[p.Start]
	startWide := len(start.names)
	if b.prune {
		start.restrict(b.live())
	}
	cur, err := start.open(p.Atoms[p.Start], p.Exec)
	if err != nil {
		return nil, err
	}
	if cur, err = b.finish(cur, startWide, false); err != nil {
		return nil, err
	}
	for len(b.pending) > 0 {
		// Shared variables are live, so pruning never changes which
		// occurrence is picked.
		k, shared := 0, []string(nil)
		for j, i := range b.pending {
			if s := sharedVars(cur.Cols(), scans[i].names); len(s) > 0 {
				k, shared = j, s
				break
			}
		}
		i := b.pending[k]
		b.pending = slices.Delete(b.pending, k, k+1)
		sc := scans[i]
		wide := len(cur.Cols()) + len(sc.names) - len(shared)
		var keep []string
		if b.prune {
			live := b.live()
			keep = slices.DeleteFunc(slices.Clone(cur.Cols()), func(c string) bool { return !live[c] })
			// The occurrence's scan feeds only this join: it projects the
			// join keys and what stays live, and the join keeps the latter.
			for _, v := range shared {
				live[v] = true
			}
			sc.restrict(live)
			for _, n := range sc.names {
				if !slices.Contains(shared, n) {
					keep = append(keep, n)
				}
			}
		}
		if cur, err = b.join(cur, p.Atoms[i], sc, shared, keep); err != nil {
			return nil, err
		}
		if cur, err = b.finish(cur, wide, true); err != nil {
			return nil, err
		}
	}
	for _, n := range p.Negs {
		if cur, err = b.stage(n.filter(cur, p.Exec)); err != nil {
			return nil, err
		}
	}
	if slices.Equal(cur.Cols(), p.Out) {
		return cur, nil
	}
	return relstore.NewProject(cur, p.Out, false, p.Exec)
}

// checkBound rejects output variables, comparisons and negated atoms over
// variables no positive occurrence binds.
func (p *Plan) checkBound(bound map[string]bool) error {
	for _, v := range p.Out {
		if !bound[v] {
			return fmt.Errorf("conj: output variable %q is not bound by the rule body", v)
		}
	}
	for _, c := range p.Comps {
		for _, v := range c.Vars() {
			if !bound[v] {
				return fmt.Errorf("conj: %scomparison %s over variables the body never binds", position(c.Line, c.Col), c)
			}
		}
	}
	for _, n := range p.Negs {
		for _, v := range n.names {
			if !bound[v] {
				return fmt.Errorf("conj: %sunsafe negation: variable %q in %s is unbound", position(n.atom.Line, n.atom.Col), v, n.atom)
			}
		}
	}
	return nil
}

// builder is the state of one Open: what is still to be applied.
type builder struct {
	p       *Plan
	scans   []*atomScan
	pending []int // occurrences not yet joined, in body order
	comps   []datalog.Comparison
	prune   bool
	// stage closes every operator group: a no-op when streaming, a tracked
	// materialization under the oracle.
	stage func(relstore.RowIter) (relstore.RowIter, error)
}

// live is the liveness rule.
func (b *builder) live() map[string]bool {
	live := make(map[string]bool, len(b.p.Out))
	add := func(vars []string) {
		for _, v := range vars {
			live[v] = true
		}
	}
	add(b.p.Out)
	for _, i := range b.pending {
		add(b.scans[i].names)
	}
	for _, c := range b.comps {
		add(c.Vars())
	}
	for _, n := range b.p.Negs {
		add(n.names)
	}
	return live
}

// join extends the pipeline with one more occurrence, emitting the keep
// columns (nil: all). A table-backed occurrence without repeated variables
// goes through NewTableJoin, which defers the index-vs-scan choice (probing
// the persistent index touches ~|cur| * N/d table rows versus all N for a
// scan plus a throwaway hash table) until cur has drained and its exact
// cardinality is known. An occurrence sharing no variable is an explicit
// cross product: cur's columns are all still live and the scan is already
// restricted, so there is nothing for keep to drop.
func (b *builder) join(cur relstore.RowIter, o Occurrence, sc *atomScan, shared, keep []string) (relstore.RowIter, error) {
	exec := b.p.Exec
	if len(shared) > 0 && !o.Explicit && len(sc.equalities) == 0 {
		return relstore.NewTableJoin(cur, o.Table, sc.preds, sc.cols, sc.names, shared, keep, exec)
	}
	rel, err := sc.open(o, exec)
	if err != nil {
		cur.Close()
		return nil, err
	}
	if len(shared) == 0 {
		return relstore.NewCross(cur, rel, exec), nil
	}
	return relstore.NewJoin(cur, rel, shared, keep, exec)
}

// finish closes a scan or join stage whose natural output is wide columns:
// the comparisons it made applicable filter, the guard (join stages only)
// counts what survives, and duplicates are dropped early when the stage
// kept fewer columns, the plan wants a set, and a later join would
// otherwise multiply them.
func (b *builder) finish(cur relstore.RowIter, wide int, joined bool) (relstore.RowIter, error) {
	cur = b.applyReadyComps(cur)
	if joined && b.p.Guard != nil {
		cur = b.p.Guard(cur)
	}
	if b.prune && b.p.Distinct && len(b.pending) > 0 && len(cur.Cols()) < wide {
		cur = relstore.NewDistinct(cur, b.p.Exec)
	}
	return b.stage(cur)
}

// applyReadyComps filters the stream with every pending comparison whose
// variables are all bound, leaving the rest pending.
func (b *builder) applyReadyComps(cur relstore.RowIter) relstore.RowIter {
	cols := cur.Cols()
	type compiled struct {
		op   datalog.CompOp
		l, r operand
	}
	// Operands are variables or constants (the parser rejects wildcards).
	compile := func(t datalog.Term) (operand, bool) {
		switch t.Kind {
		case datalog.TermVar:
			j := slices.Index(cols, t.Var)
			return operand{col: j}, j >= 0
		case datalog.TermInt:
			return operand{col: -1, val: relstore.IntVal(t.Int)}, true
		default:
			return operand{col: -1, val: relstore.StrVal(t.Str)}, true
		}
	}
	var ready []compiled
	waiting := b.comps[:0]
	for _, c := range b.comps {
		l, lok := compile(c.L)
		r, rok := compile(c.R)
		if lok && rok {
			ready = append(ready, compiled{op: c.Op, l: l, r: r})
		} else {
			waiting = append(waiting, c)
		}
	}
	b.comps = waiting
	if len(ready) == 0 {
		return cur
	}
	return relstore.NewFilter(cur, b.p.Exec, func(row []relstore.Value) bool {
		for _, c := range ready {
			if !holds(c.op, c.l.of(row).Compare(c.r.of(row))) {
				return false
			}
		}
		return true
	})
}

// operand is one side of a compiled comparison: a pipeline column, or
// (col < 0) a constant.
type operand struct {
	col int
	val relstore.Value
}

func (o operand) of(row []relstore.Value) relstore.Value {
	if o.col >= 0 {
		return row[o.col]
	}
	return o.val
}

// holds interprets a comparison operator over a Compare result.
func holds(op datalog.CompOp, cmp int) bool {
	switch op {
	case datalog.OpEQ:
		return cmp == 0
	case datalog.OpNE:
		return cmp != 0
	case datalog.OpLT:
		return cmp < 0
	case datalog.OpLE:
		return cmp <= 0
	case datalog.OpGT:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

func sharedVars(cols, names []string) []string {
	return slices.DeleteFunc(slices.Clone(names), func(v string) bool { return !slices.Contains(cols, v) })
}

// atomScan is one atom compiled against its table's schema: constant terms
// as selection predicates, intra-atom repeated variables as equality
// filters, and the projection of the distinct variable positions (first
// occurrence each) under their variable names. Positive occurrences and
// negated-atom membership sets share it, so the two matching semantics
// cannot diverge.
type atomScan struct {
	preds      []relstore.Pred
	equalities [][2]int
	cols       []int
	names      []string
}

func compileAtom(atom datalog.Atom, t *relstore.Table) (*atomScan, error) {
	if err := CheckArity(atom, t); err != nil {
		return nil, err
	}
	sc := &atomScan{}
	firstPos := make(map[string]int)
	for i, term := range atom.Terms {
		switch term.Kind {
		case datalog.TermInt:
			sc.preds = append(sc.preds, relstore.Pred{Col: i, Value: relstore.IntVal(term.Int)})
		case datalog.TermString:
			sc.preds = append(sc.preds, relstore.Pred{Col: i, Value: relstore.StrVal(term.Str)})
		case datalog.TermWildcard:
			// ignored position
		case datalog.TermVar:
			if j, dup := firstPos[term.Var]; dup {
				sc.equalities = append(sc.equalities, [2]int{j, i})
				continue
			}
			firstPos[term.Var] = i
			sc.cols = append(sc.cols, i)
			sc.names = append(sc.names, term.Var)
		}
	}
	return sc, nil
}

// CheckArity is the one arity diagnostic: an atom may not have more terms
// than its table has columns.
func CheckArity(atom datalog.Atom, t *relstore.Table) error {
	if len(atom.Terms) <= len(t.Cols) {
		return nil
	}
	return fmt.Errorf("conj: %satom %s has %d terms but table %s has %d columns",
		position(atom.Line, atom.Col), atom, len(atom.Terms), t.Name, len(t.Cols))
}

// position renders a source position prefix for literals that carry one.
func position(line, col int) string {
	if line == 0 {
		return ""
	}
	return fmt.Sprintf("line %d col %d: ", line, col)
}

// restrict narrows the scan's projection to the variables in live.
func (sc *atomScan) restrict(live map[string]bool) {
	cols, names := sc.cols[:0], sc.names[:0]
	for i, n := range sc.names {
		if live[n] {
			cols, names = append(cols, sc.cols[i]), append(names, n)
		}
	}
	sc.cols, sc.names = cols, names
}

// open streams the compiled scan over o's row source. A table-backed
// occurrence without repeated variables is a table scan under the access-
// path choice (NewScan with IndexAuto/IndexOff); everything else is a
// one-pass select applying predicates, equality filters and the projection
// together.
func (sc *atomScan) open(o Occurrence, exec relstore.ExecOpts) (relstore.RowIter, error) {
	rows := o.Rows
	if !o.Explicit {
		if len(sc.equalities) == 0 {
			return relstore.NewScan(o.Table, sc.preds, sc.cols, sc.names, exec)
		}
		rows = o.Table.Rows
	}
	return relstore.NewSelect(rows, sc.preds, sc.equalities, sc.cols, sc.names, exec), nil
}

// matches reports whether a source row satisfies the constant selections
// and repeated-variable equalities.
func (sc *atomScan) matches(row []relstore.Value) bool {
	for _, p := range sc.preds {
		if !row[p.Col].Equal(p.Value) {
			return false
		}
	}
	for _, eq := range sc.equalities {
		if !row[eq[0]].Equal(row[eq[1]]) {
			return false
		}
	}
	return true
}

// Negation is one negated atom compiled against its complete table: the
// membership set of matching rows keyed on the atom's variable positions.
// It is immutable once built, so its owner may share it between plans for
// as long as the table does not change.
type Negation struct {
	atom  datalog.Atom
	names []string // distinct variables, key order
	// set holds the matching table rows themselves, keyed on the table
	// columns of names.
	set *relstore.RowSet
}

// NewNegation scans t once and builds the membership set of neg.
func NewNegation(neg datalog.Atom, t *relstore.Table) (*Negation, error) {
	sc, err := compileAtom(neg, t)
	if err != nil {
		return nil, err
	}
	n := &Negation{atom: neg, names: sc.names, set: relstore.NewRowSet(sc.cols, len(t.Rows))}
	for _, row := range t.Rows {
		if sc.matches(row) {
			n.set.Add(row)
		}
	}
	return n, nil
}

// filter anti-joins the stream: a row survives when no tuple of the negated
// predicate matches the atom's pattern under the row's bindings. (A fully
// ground negated atom has the empty key: it kills every row or none.)
func (n *Negation) filter(cur relstore.RowIter, exec relstore.ExecOpts) relstore.RowIter {
	idx := make([]int, len(n.names))
	for k, v := range n.names {
		idx[k] = slices.Index(cur.Cols(), v) // live until here, so present
	}
	return relstore.NewFilter(cur, exec, func(row []relstore.Value) bool {
		return n.set.Find(row, idx) < 0
	})
}
