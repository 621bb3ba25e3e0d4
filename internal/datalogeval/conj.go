package datalogeval

import (
	"fmt"

	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// This file evaluates one rule body as a fused pull-based pipeline: scan
// each positive atom (optionally substituting the semi-naive delta for one
// occurrence), stream hash joins on the shared variables through the
// worker pool, filter with comparison literals as soon as their variables
// are bound, and finish with anti-join filters for the negated atoms. The
// stream keeps one column per distinct body variable; insert drains it,
// projecting onto the head — the single materialization boundary of a
// delta round, so intermediates no longer accumulate as whole relations.
//
// Sources capture their row-slice headers before the first output row, so
// a recursive body evaluates against the pre-insert state of its own head
// table even while insert is appending to it — the same snapshot the old
// materialize-then-insert sequencing provided.
//
// Options.NoStream interposes a tracked materialization after every
// operator (the old operator-at-a-time execution, exactly); it is the
// equivalence oracle and the peak-memory baseline.

// atomPattern is the compiled term pattern of one atom against a table
// schema: constant selections, repeated-variable equality filters, and the
// projection positions of the distinct variables (first occurrence each).
// It is shared by positive-atom scans and negated-atom set builds so the
// two matching semantics cannot diverge.
type atomPattern struct {
	preds      []patPred
	equalities [][2]int
	cols       []int    // table position of each distinct variable
	names      []string // the variables, same order as cols
}

type patPred struct {
	col int
	val relstore.Value
}

func compilePattern(atom datalog.Atom, t *relstore.Table) (*atomPattern, error) {
	if len(atom.Terms) > len(t.Cols) {
		return nil, fmt.Errorf("datalogeval: line %d col %d: atom %s has %d terms but table %s has %d columns",
			atom.Line, atom.Col, atom, len(atom.Terms), t.Name, len(t.Cols))
	}
	p := &atomPattern{}
	firstPos := make(map[string]int)
	for i, term := range atom.Terms {
		switch term.Kind {
		case datalog.TermInt:
			p.preds = append(p.preds, patPred{i, relstore.IntVal(term.Int)})
		case datalog.TermString:
			p.preds = append(p.preds, patPred{i, relstore.StrVal(term.Str)})
		case datalog.TermWildcard:
			// ignored position
		case datalog.TermVar:
			if j, dup := firstPos[term.Var]; dup {
				p.equalities = append(p.equalities, [2]int{j, i})
				continue
			}
			firstPos[term.Var] = i
			p.cols = append(p.cols, i)
			p.names = append(p.names, term.Var)
		}
	}
	return p, nil
}

// scanPreds converts the pattern's constant selections into the
// relational operators' predicate form.
func (p *atomPattern) scanPreds() []relstore.Pred {
	if len(p.preds) == 0 {
		return nil
	}
	out := make([]relstore.Pred, len(p.preds))
	for i, pr := range p.preds {
		out[i] = relstore.Pred{Col: pr.col, Value: pr.val}
	}
	return out
}

// matches reports whether a table row satisfies the pattern's constant
// selections and repeated-variable equalities.
func (p *atomPattern) matches(row []relstore.Value) bool {
	for _, pr := range p.preds {
		if !row[pr.col].Equal(pr.val) {
			return false
		}
	}
	for _, eq := range p.equalities {
		if !row[eq[0]].Equal(row[eq[1]]) {
			return false
		}
	}
	return true
}

// key extracts the pattern's variable positions from a matching row.
func (p *atomPattern) key(row []relstore.Value) string {
	vals := make([]relstore.Value, len(p.cols))
	for k, c := range p.cols {
		vals[k] = row[c]
	}
	return rowKey(vals)
}

// negPattern is one negated atom compiled against its (complete) table:
// the membership set of matching rows keyed on the atom's variable
// positions. Stratification guarantees the table no longer changes while
// the stratum referencing it evaluates, so the set is built once per
// stratum and reused across every semi-naive iteration.
type negPattern struct {
	atom   datalog.Atom
	names  []string // distinct variables, key order
	exists map[string]struct{}
}

func (ev *evaluator) compileNegation(neg datalog.Atom) (*negPattern, error) {
	t, err := ev.db.Table(neg.Pred)
	if err != nil {
		return nil, err
	}
	p, err := compilePattern(neg, t)
	if err != nil {
		return nil, err
	}
	np := &negPattern{atom: neg, names: p.names, exists: make(map[string]struct{}, len(t.Rows))}
	for _, row := range t.Rows {
		if p.matches(row) {
			np.exists[p.key(row)] = struct{}{}
		}
	}
	return np, nil
}

// evalRuleBody builds the streaming pipeline for the
// positive/comparison/negation body of a compiled rule and returns its
// head iterator (the caller — insert — drains and closes it). deltaOcc
// >= 0 substitutes deltaRows for that positive-atom occurrence (the
// semi-naive rewriting); -1 evaluates against the full relations.
func (ev *evaluator) evalRuleBody(cr *compiledRule, deltaOcc int, deltaRows [][]relstore.Value) (relstore.RowIter, error) {
	rule := cr.rule
	if len(rule.Body) == 0 {
		return nil, fmt.Errorf("datalogeval: line %d col %d: rule for %q has no positive atoms", rule.Line, rule.Col, rule.Head.Pred)
	}
	exec := ev.exec()
	scan := func(i int) (relstore.RowIter, error) {
		atom := rule.Body[i]
		t, err := ev.db.Table(atom.Pred)
		if err != nil {
			return nil, err
		}
		p, err := compilePattern(atom, t)
		if err != nil {
			return nil, err
		}
		if i == deltaOcc {
			return relstore.NewSelect(deltaRows, p.scanPreds(), p.equalities, p.cols, p.names, exec), nil
		}
		// Full-relation occurrence: NewScan costs an index bucket lookup
		// against the parallel table walk (identical output either way).
		if len(p.equalities) == 0 {
			return relstore.NewScan(t, p.scanPreds(), p.cols, p.names, exec)
		}
		return relstore.NewSelect(t.Rows, p.scanPreds(), p.equalities, p.cols, p.names, exec), nil
	}
	// joinNext extends the pipeline with body atom i joined on the shared
	// variables. Full-relation occurrences without repeated variables go
	// through NewTableJoin, which defers the persistent-index-vs-scan
	// choice (the same cost rule the extraction planner uses: the index
	// wins when the accumulated side is small next to the column's
	// distinct count) until the accumulated side has drained. Delta
	// occurrences never take the index path: their row source is the
	// delta slice, not the table.
	joinNext := func(cur relstore.RowIter, i int, shared []string) (relstore.RowIter, error) {
		if i != deltaOcc && len(shared) > 0 {
			atom := rule.Body[i]
			t, err := ev.db.Table(atom.Pred)
			if err != nil {
				cur.Close()
				return nil, err
			}
			p, err := compilePattern(atom, t)
			if err != nil {
				cur.Close()
				return nil, err
			}
			if len(p.equalities) == 0 {
				return relstore.NewTableJoin(cur, t, p.scanPreds(), p.cols, p.names, shared, nil, exec)
			}
		}
		rel, err := scan(i)
		if err != nil {
			cur.Close()
			return nil, err
		}
		if len(shared) == 0 {
			// Disconnected body: an explicit cross product (the planner
			// invariant that every equi-join names its shared columns).
			return relstore.NewCross(cur, rel, exec), nil
		}
		return relstore.NewJoin(cur, rel, shared, nil, exec)
	}

	// Join order: start from the delta occurrence (it is the small side
	// and every derivation must use it), otherwise the first atom; then
	// repeatedly take an atom sharing a variable, falling back to a cross
	// product only when no pending atom connects.
	first := 0
	if deltaOcc >= 0 {
		first = deltaOcc
	}
	cur, err := scan(first)
	if err != nil {
		return nil, err
	}
	if cur, err = ev.stage(cur, rule, false); err != nil {
		return nil, err
	}
	pending := make([]int, 0, len(rule.Body)-1)
	for i := range rule.Body {
		if i != first {
			pending = append(pending, i)
		}
	}
	compsLeft := append([]datalog.Comparison(nil), rule.Comps...)
	var applied bool
	if cur, compsLeft, applied, err = applyReadyComps(cur, compsLeft, exec); err != nil {
		return nil, err
	}
	if applied {
		if cur, err = ev.stage(cur, rule, false); err != nil {
			return nil, err
		}
	}
	for len(pending) > 0 {
		picked := -1
		var shared []string
		for k, i := range pending {
			if s := sharedVars(cur.Cols(), rule.Body[i]); len(s) > 0 {
				picked, shared = k, s
				break
			}
		}
		if picked < 0 {
			picked = 0 // disconnected: cross product (shared stays empty)
		}
		if cur, err = joinNext(cur, pending[picked], shared); err != nil {
			return nil, err
		}
		pending = append(pending[:picked], pending[picked+1:]...)
		if cur, compsLeft, applied, err = applyReadyComps(cur, compsLeft, exec); err != nil {
			return nil, err
		}
		_ = applied
		// The intermediate budget guards every post-join stage: the
		// NoStream oracle checks the staged cardinality, the streaming
		// path counts rows as they flow.
		if cur, err = ev.stage(cur, rule, true); err != nil {
			return nil, err
		}
	}
	if len(compsLeft) > 0 {
		c := compsLeft[0]
		cur.Close()
		return nil, fmt.Errorf("datalogeval: line %d col %d: comparison %s over variables the body never binds", c.Line, c.Col, c)
	}
	for _, np := range cr.negs {
		if cur, err = applyNegation(cur, np, exec); err != nil {
			return nil, err
		}
		if ev.opts.NoStream {
			if cur, err = ev.stage(cur, rule, false); err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
}

// exec maps the evaluator options onto the operator execution knobs.
func (ev *evaluator) exec() relstore.ExecOpts {
	mode := relstore.IndexAuto
	if ev.opts.NoIndex {
		mode = relstore.IndexOff
	}
	return relstore.ExecOpts{Workers: ev.opts.Workers, UseIndex: mode, Tracker: ev.tracker, Trace: ev.opts.Trace}
}

// stage is the per-operator boundary. In NoStream mode it materializes
// the pipeline head (tracking the staged rows until the next stage drains
// them) and, when check is set, enforces the intermediate budget on the
// staged cardinality — the old operator-at-a-time behavior, exactly. In
// the streaming default it only arms the budget guard, which counts rows
// as they flow instead.
func (ev *evaluator) stage(cur relstore.RowIter, rule datalog.Rule, check bool) (relstore.RowIter, error) {
	max := ev.opts.MaxDerivedTuples
	if !ev.opts.NoStream {
		if check && max > 0 {
			return &budgetIter{RowIter: cur, rule: rule, limit: intermediateBudgetFactor * max}, nil
		}
		return cur, nil
	}
	rel, err := relstore.Collect(cur)
	if err != nil {
		return nil, err
	}
	if check && max > 0 && int64(len(rel.Rows)) > intermediateBudgetFactor*max {
		return nil, budgetErr(rule, int64(len(rel.Rows)), max)
	}
	return relstore.IterRelTracked(rel, ev.tracker), nil
}

// budgetIter enforces the intermediate-rows budget on a streaming stage:
// it fails the stream as soon as more rows flow through than the budget
// allows, so an exploding join dies at the guard instead of exhausting
// memory downstream.
type budgetIter struct {
	relstore.RowIter
	rule  datalog.Rule
	limit int64
	n     int64
}

func (it *budgetIter) Next() (relstore.Row, bool, error) {
	row, ok, err := it.RowIter.Next()
	if ok {
		it.n++
		if it.n > it.limit {
			return nil, false, budgetErr(it.rule, it.n, it.limit/intermediateBudgetFactor)
		}
	}
	return row, ok, err
}

func budgetErr(rule datalog.Rule, n, max int64) error {
	return fmt.Errorf("%w: rule for %q materialized %d intermediate rows (budget %d x %d)",
		ErrTooManyDerived, rule.Head.Pred, n, intermediateBudgetFactor, max)
}

// intermediateBudgetFactor scales MaxDerivedTuples into a bound on the
// rows a single rule body may materialize mid-join. Intermediates
// legitimately exceed the distinct output (duplicates before
// projection/dedup), so the guard leaves headroom — but an exploding join
// (cross products, skewed keys) must fail fast rather than exhaust memory,
// which matters most for the serving daemon evaluating untrusted programs
// while holding its database lock.
const intermediateBudgetFactor = 16

func sharedVars(cols []string, a datalog.Atom) []string {
	var out []string
	for _, v := range a.Vars() {
		for _, c := range cols {
			if c == v {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// applyReadyComps filters the stream with every comparison whose
// variables are all bound, returning the comparisons still waiting for a
// join to bind their variables and whether a filter was applied.
func applyReadyComps(cur relstore.RowIter, comps []datalog.Comparison, exec relstore.ExecOpts) (relstore.RowIter, []datalog.Comparison, bool, error) {
	cols := cur.Cols()
	colIndex := func(name string) (int, bool) {
		for j, c := range cols {
			if c == name {
				return j, true
			}
		}
		return 0, false
	}
	var ready []datalog.Comparison
	var waiting []datalog.Comparison
	for _, c := range comps {
		ok := true
		for _, v := range c.Vars() {
			if _, bound := colIndex(v); !bound {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, c)
		} else {
			waiting = append(waiting, c)
		}
	}
	if len(ready) == 0 {
		return cur, waiting, false, nil
	}
	type operand struct {
		col int // -1: constant
		val relstore.Value
	}
	type compiled struct {
		op   datalog.CompOp
		l, r operand
	}
	compile := func(t datalog.Term) (operand, error) {
		switch t.Kind {
		case datalog.TermVar:
			j, _ := colIndex(t.Var)
			return operand{col: j}, nil
		case datalog.TermInt:
			return operand{col: -1, val: relstore.IntVal(t.Int)}, nil
		case datalog.TermString:
			return operand{col: -1, val: relstore.StrVal(t.Str)}, nil
		default:
			return operand{}, fmt.Errorf("datalogeval: wildcard comparison operand")
		}
	}
	cs := make([]compiled, len(ready))
	for i, c := range ready {
		l, err := compile(c.L)
		if err != nil {
			cur.Close()
			return nil, nil, false, err
		}
		r, err := compile(c.R)
		if err != nil {
			cur.Close()
			return nil, nil, false, err
		}
		cs[i] = compiled{op: c.Op, l: l, r: r}
	}
	keep := func(row []relstore.Value) bool {
		for _, c := range cs {
			l, r := c.l.val, c.r.val
			if c.l.col >= 0 {
				l = row[c.l.col]
			}
			if c.r.col >= 0 {
				r = row[c.r.col]
			}
			if !holds(c.op, l.Compare(r)) {
				return false
			}
		}
		return true
	}
	return relstore.NewFilter(cur, exec, keep), waiting, true, nil
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

// applyNegation anti-joins the stream against a precompiled negated
// atom: a row survives when no tuple of the negated predicate matches the
// atom's pattern under the row's bindings.
func applyNegation(cur relstore.RowIter, np *negPattern, exec relstore.ExecOpts) (relstore.RowIter, error) {
	cols := cur.Cols()
	curCols := make([]int, len(np.names))
	for k, v := range np.names {
		j := -1
		for c, name := range cols {
			if name == v {
				j = c
				break
			}
		}
		if j < 0 {
			cur.Close()
			return nil, fmt.Errorf("datalogeval: line %d col %d: unsafe negation: variable %q in %s is unbound", np.atom.Line, np.atom.Col, v, np.atom)
		}
		curCols[k] = j
	}
	if len(curCols) == 0 {
		// Fully ground negated atom: it either kills every row or none.
		if len(np.exists) > 0 {
			cur.Close()
			return relstore.IterRows(cols, nil), nil
		}
		return cur, nil
	}
	return relstore.NewFilter(cur, exec, func(row []relstore.Value) bool {
		key := make([]relstore.Value, len(curCols))
		for k, c := range curCols {
			key[k] = row[c]
		}
		_, hit := np.exists[rowKey(key)]
		return !hit
	}), nil
}
