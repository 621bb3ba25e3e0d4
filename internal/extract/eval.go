package extract

import (
	"graphgen/internal/conj"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// EvalConjunctive collects the projection of a positive conjunctive body
// onto outVars: the single materialization boundary, for callers that want
// a segment's rows as a relation (the per-layer benchmark and the pruning
// oracle). Under distinct it is the consumer that keeps the set a
// distinct conj.Plan asks for, so it drops the stream's repeats itself,
// through a distinct projection (a "project" span with strategy
// "distinct", told apart from conj's "distinct early" stages). The
// extraction paths stream through Compile and Stream instead.
func EvalConjunctive(db *relstore.DB, atoms []datalog.Atom, outVars []string, distinct bool, opts Options) (*relstore.Rel, error) {
	p, err := SegmentPlan{Atoms: atoms}.Compile(db, outVars, distinct, opts)
	if err != nil {
		return nil, err
	}
	it, err := p.Open()
	if err != nil {
		return nil, err
	}
	if distinct {
		if it, err = relstore.NewProject(it, outVars, true, opts.ExecOpts); err != nil {
			return nil, err
		}
	}
	return relstore.Collect(it)
}

// Compile is the extraction layer's one adaptor onto the one
// conjunctive-body evaluator (internal/conj, which documents the pipeline):
// the segment's atoms with their tables resolved from db, its comparisons
// and the membership sets of its negated atoms, projected onto out and run
// under opts.ExecOpts as it is. Every Nodes body, Edges segment, live
// support count (a bag: multiplicities are support counts) and delta term
// is compiled here.
func (s SegmentPlan) Compile(db *relstore.DB, out []string, distinct bool, opts Options) (*conj.Plan, error) {
	p := &conj.Plan{Atoms: make([]conj.Occurrence, len(s.Atoms)), Comps: s.Comps,
		Out: out, Distinct: distinct, Exec: opts.ExecOpts}
	for i, a := range s.Atoms {
		t, err := db.Table(a.Pred)
		if err != nil {
			return nil, err
		}
		p.Atoms[i] = conj.Occurrence{Atom: a, Table: t}
	}
	for _, a := range s.Negated {
		t, err := db.Table(a.Pred)
		if err != nil {
			return nil, err
		}
		n, err := conj.NewNegation(a, t)
		if err != nil {
			return nil, err
		}
		p.Negs = append(p.Negs, n)
	}
	return p, nil
}

// Stream opens p and hands each row to fn as the pipeline yields it. An
// error from the pipeline or from fn stops the stream; the pipeline is
// closed on every path. It returns the rows read.
func Stream(p *conj.Plan, fn func(relstore.Row) error) (int64, error) {
	it, err := p.Open()
	if err != nil {
		return 0, err
	}
	var rows int64
	for {
		row, ok, err := it.Next()
		if err == nil && ok {
			rows++
			err = fn(row)
		}
		if err != nil || !ok {
			if cerr := it.Close(); err == nil {
				err = cerr
			}
			return rows, err
		}
	}
}

// EnsureIndexes walks the rules' positive bodies and creates (idempotently)
// hash indexes on every column an access path can use: columns bound to a
// constant term (equality predicates) and columns bound to a variable that
// occurs more than once in the rule body (join columns, including the
// chain planner's large-join attributes). Missing tables and excess terms
// are skipped silently — evaluation surfaces those errors later with full
// diagnostics. Indexes persist on the tables, maintained through the
// mutation path, so one EnsureIndexes call serves every later extraction,
// semi-naive delta round, and live rebuild over the same database.
func EnsureIndexes(db *relstore.DB, rules []datalog.Rule) {
	for _, r := range rules {
		occurrences := make(map[string]int)
		for _, a := range r.Body {
			for _, term := range a.Terms {
				if term.Kind == datalog.TermVar {
					occurrences[term.Var]++
				}
			}
		}
		for _, a := range r.Body {
			t, err := db.Table(a.Pred)
			if err != nil {
				continue
			}
			for i, term := range a.Terms {
				if i >= len(t.Cols) {
					break
				}
				switch term.Kind {
				case datalog.TermInt, datalog.TermString:
					_, _ = t.CreateIndex(t.Cols[i].Name)
				case datalog.TermVar:
					if occurrences[term.Var] >= 2 {
						_, _ = t.CreateIndex(t.Cols[i].Name)
					}
				}
			}
		}
	}
}
