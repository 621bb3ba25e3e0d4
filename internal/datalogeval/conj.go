package datalogeval

import (
	"fmt"
	"slices"
	"strings"

	"graphgen/internal/conj"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// This file turns one rule of a stratum into plans for the conjunctive
// evaluator (internal/conj): the rule's positive atoms with their tables
// resolved once per stratum, the head's variables as the output, its
// comparison literals, the membership sets of its negated atoms, and the
// intermediate-rows guard. A delta round substitutes the semi-naive delta
// slice for one occurrence and starts the join order there; insert drains
// the pipeline, projecting onto the head — the single materialization
// boundary of a round, so intermediates never accumulate as whole
// relations.
//
// Sources capture their row-slice headers before the first output row, so
// a recursive body evaluates against the pre-insert state of its own head
// table even while insert is appending to it.

// compiledRule is one rule of the stratum under evaluation with the body
// positions of its recursive (same-stratum) atoms and its negated-atom
// membership sets precomputed. Negation sets are built once per stratum —
// stratified negation guarantees the negated tables are complete and
// unchanging while this stratum iterates — and reused by every semi-naive
// round.
type compiledRule struct {
	rule   datalog.Rule
	recOcc []int
	occs   []conj.Occurrence
	out    []string // the head's distinct variables
	negs   []*conj.Negation
}

// compileRule resolves the rule's tables and negation sets. negCache
// memoizes the sets per pattern: rules sharing a negated atom (same
// predicate and term shape) reuse one, since the sets are immutable for the
// stratum's lifetime. Only the predicate name is case-folded; terms keep
// their case (variable names and string constants are case-sensitive, so
// 'ABC' and 'abc' are different patterns).
func (ev *evaluator) compileRule(r datalog.Rule, negCache map[string]*conj.Negation) (*compiledRule, error) {
	if len(r.Body) == 0 {
		return nil, fmt.Errorf("datalogeval: line %d col %d: rule for %q has no positive atoms", r.Line, r.Col, r.Head.Pred)
	}
	cr := &compiledRule{rule: r, out: r.Head.Vars()}
	for _, a := range r.Body {
		t, err := ev.db.Table(a.Pred)
		if err != nil {
			return nil, err
		}
		cr.occs = append(cr.occs, conj.Occurrence{Atom: a, Table: t})
	}
	for _, neg := range r.Negated {
		key := datalog.Atom{Pred: strings.ToLower(neg.Pred), Terms: neg.Terms}.String()
		np, ok := negCache[key]
		if !ok {
			t, err := ev.db.Table(neg.Pred)
			if err != nil {
				return nil, err
			}
			if np, err = conj.NewNegation(neg, t); err != nil {
				return nil, err
			}
			negCache[key] = np
		}
		cr.negs = append(cr.negs, np)
	}
	return cr, nil
}

// evalRuleBody opens the pipeline for the rule's body and returns its head
// iterator (the caller — insert — drains and closes it). deltaOcc >= 0
// substitutes deltaRows for that positive-atom occurrence (the semi-naive
// rewriting) and starts the join order there: the delta is the small side
// and every derivation must use it. -1 evaluates against the full
// relations.
func (ev *evaluator) evalRuleBody(cr *compiledRule, deltaOcc int, deltaRows [][]relstore.Value) (relstore.RowIter, error) {
	plan := conj.Plan{Atoms: cr.occs, Comps: cr.rule.Comps, Negs: cr.negs, Out: cr.out, Exec: ev.opts.ExecOpts}
	if max := ev.opts.MaxDerivedTuples; max > 0 {
		plan.Guard = func(it relstore.RowIter) relstore.RowIter {
			return &budgetIter{RowIter: it, rule: cr.rule, limit: intermediateBudgetFactor * max}
		}
	}
	if deltaOcc >= 0 {
		plan.Atoms = slices.Clone(cr.occs)
		plan.Atoms[deltaOcc].Rows, plan.Atoms[deltaOcc].Explicit = deltaRows, true
		plan.Start = deltaOcc
	}
	return plan.Open()
}

// budgetIter enforces the intermediate-rows budget on a join stage: it
// fails the stream as soon as more rows flow through than the budget
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
			return nil, false, fmt.Errorf("%w: rule for %q materialized %d intermediate rows (budget %d x %d)",
				ErrTooManyDerived, it.rule.Head.Pred, it.n, intermediateBudgetFactor, it.limit/intermediateBudgetFactor)
		}
	}
	return row, ok, err
}

// intermediateBudgetFactor scales MaxDerivedTuples into a bound on the
// rows a single rule body may materialize mid-join. Intermediates
// legitimately exceed the distinct output (duplicates before
// projection/dedup), so the guard leaves headroom — but an exploding join
// (cross products, skewed keys) must fail fast rather than exhaust memory,
// which matters most for the serving daemon evaluating untrusted programs
// while holding its database lock.
const intermediateBudgetFactor = 16
