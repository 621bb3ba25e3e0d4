package extract

import (
	"graphgen/internal/conj"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// EvalConjunctive is the extraction layer's adaptor onto the one
// conjunctive-body evaluator (internal/conj, which documents the pipeline:
// join order, column liveness, early duplicate elimination): it resolves
// each atom's table from db, joins the atoms on their shared variables —
// components sharing none are cross-producted — and collects the projection
// onto outVars, the single materialization boundary. The planner uses it
// both for the in-segment joins it "hands to the database" and for Case 2
// full expansion; incremental.ExtractLive calls it without distinct, since
// the row multiplicities are its initial support counts. The plan runs
// under opts.ExecOpts as it is.
func EvalConjunctive(db *relstore.DB, atoms []datalog.Atom, outVars []string, distinct bool, opts Options) (*relstore.Rel, error) {
	occs := make([]conj.Occurrence, len(atoms))
	for i, a := range atoms {
		t, err := db.Table(a.Pred)
		if err != nil {
			return nil, err
		}
		occs[i] = conj.Occurrence{Atom: a, Table: t}
	}
	plan := conj.Plan{Atoms: occs, Out: outVars, Distinct: distinct, Exec: opts.ExecOpts}
	it, err := plan.Open()
	if err != nil {
		return nil, err
	}
	return relstore.Collect(it)
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
