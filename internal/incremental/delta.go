package incremental

import (
	"fmt"

	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// This file evaluates segment deltas: the multiset of (InVar, OutVar) rows a
// single-tuple change contributes to one plan segment. It is the counting
// variant of the classic delta-rule evaluation for non-recursive queries
// (Berkholz et al., "Answering FO+MOD queries under updates", PAPERS.md):
// for a relation R occurring k times in a join, the delta of a single-tuple
// update decomposes into k disjoint joins, one per occurrence, with the
// occurrences before the changed one evaluated against the pre-update state
// and the occurrences after it against the post-update state:
//
//	Δ(R' ⋈ R') = (ΔR ⋈ R') ∪ (R ⋈ ΔR)        (insert: R' = R ∪ {t})
//	Δ(R ⋈ R)   = (ΔR ⋈ R)  ∪ (R' ⋈ ΔR)       (delete: R' = R − {t})
//
// Subscribers run after the table has mutated, so "current" is the new
// state: the pre-update view re-adds one copy of a deleted tuple and drops
// one copy of an inserted tuple.

// scanAtomRows compiles an atom over an explicit row slice into a
// streaming select (relstore.NewSelect): constant terms are selection
// predicates, intra-atom repeated variables are equality filters, and the
// surviving rows are projected onto the variable positions under their
// variable names. binds adds variable = value selection predicates — the
// semi-join pushdown that keeps a single-tuple delta proportional to its
// output instead of the table size.
//
// useIndex may be set only when rows is the table's own current row
// storage (never a pre-state view rebuilt by withoutOneCopy/withOneExtra):
// it narrows the row loop to the hash-index bucket of the most selective
// indexed predicate — typically the pushed-down join binding — so a
// single-tuple delta touches a bucket instead of the whole table. Indexes
// are updated inside the mutation path before change-log subscribers run,
// so the bucket reflects exactly the post-change state this path wants.
func scanAtomRows(atom datalog.Atom, t *relstore.Table, rows [][]relstore.Value, binds map[string]relstore.Value, useIndex bool) (relstore.RowIter, error) {
	if len(atom.Terms) > len(t.Cols) {
		return nil, fmt.Errorf("incremental: atom %s has %d terms but table %s has %d columns",
			atom, len(atom.Terms), t.Name, len(t.Cols))
	}
	var consts []relstore.Pred
	var equalities [][2]int
	var cols []int
	var names []string
	firstPos := make(map[string]int)
	for i, term := range atom.Terms {
		switch term.Kind {
		case datalog.TermInt:
			consts = append(consts, relstore.Pred{Col: i, Value: relstore.IntVal(term.Int)})
		case datalog.TermString:
			consts = append(consts, relstore.Pred{Col: i, Value: relstore.StrVal(term.Str)})
		case datalog.TermWildcard:
			// ignored position
		case datalog.TermVar:
			if j, dup := firstPos[term.Var]; dup {
				equalities = append(equalities, [2]int{j, i})
				continue
			}
			firstPos[term.Var] = i
			cols = append(cols, i)
			names = append(names, term.Var)
			if v, bound := binds[term.Var]; bound {
				consts = append(consts, relstore.Pred{Col: i, Value: v})
			}
		}
	}
	if useIndex {
		// Restrict the loop to the bucket of the most selective indexed
		// predicate; buckets preserve table order, so the output is
		// row-for-row what the full loop produces.
		var best *relstore.Index
		var bestVal relstore.Value
		for _, p := range consts {
			if ix := t.Index(t.Cols[p.Col].Name); ix != nil && (best == nil || ix.NKeys() > best.NKeys()) {
				best, bestVal = ix, p.Value
			}
		}
		if best != nil {
			rows = best.Lookup(bestVal)
		}
	}
	return relstore.NewSelect(rows, consts, equalities, cols, names, relstore.ExecOpts{Workers: 1}), nil
}

// withoutOneCopy returns rows minus the first copy equal to row.
func withoutOneCopy(rows [][]relstore.Value, row []relstore.Value) [][]relstore.Value {
	for i, r := range rows {
		if relstore.RowsEqual(r, row) {
			out := make([][]relstore.Value, 0, len(rows)-1)
			out = append(out, rows[:i]...)
			return append(out, rows[i+1:]...)
		}
	}
	return rows
}

// withOneExtra returns rows plus one copy of row.
func withOneExtra(rows [][]relstore.Value, row []relstore.Value) [][]relstore.Value {
	out := make([][]relstore.Value, 0, len(rows)+1)
	out = append(out, rows...)
	return append(out, row)
}

// segmentDelta returns the multiset of (inVar, outVar) pairs contributed to
// the segment join by a single-tuple change to t (insert when insert is
// true, delete otherwise), summed over every occurrence of t in the
// segment. tbls resolves each atom to its table. The caller turns each pair
// into a +1 or -1 count delta.
func segmentDelta(atoms []datalog.Atom, tbls []*relstore.Table, inVar, outVar string,
	t *relstore.Table, row []relstore.Value, insert bool, opts extract.Options) ([][2]relstore.Value, error) {
	var out [][2]relstore.Value
	for i := range atoms {
		if tbls[i] != t {
			continue
		}
		boundIter, err := scanAtomRows(atoms[i], t, [][]relstore.Value{row}, nil, false)
		if err != nil {
			return nil, err
		}
		bound, err := relstore.Collect(boundIter)
		if err != nil {
			return nil, err
		}
		if len(bound.Rows) == 0 {
			continue // the atom's constant selections filter the tuple out
		}
		// Greedy connected join starting from the bound single tuple.
		// Atoms are scanned lazily: while the intermediate is a single
		// row, the shared variables' values are pushed into the scan as
		// selection predicates, so the delta join stays a handful of
		// filtered scans instead of full hash joins.
		cur := bound
		var pending []int
		for j := range atoms {
			if j != i {
				pending = append(pending, j)
			}
		}
		for len(pending) > 0 {
			picked := -1
			var shared []string
			for k, j := range pending {
				s := sharedVars(cur, atoms[j])
				if len(s) > 0 {
					picked, shared = k, s
					break
				}
			}
			if picked < 0 {
				return nil, fmt.Errorf("incremental: segment body is disconnected (atom %s shares no variable)", atoms[pending[0]])
			}
			j := pending[picked]
			rows := tbls[j].Rows
			current := true // rows is the live post-change storage
			if tbls[j] == t {
				// The occurrence convention of the delta rules above.
				if insert && j < i {
					rows = withoutOneCopy(rows, row) // pre-insert state
					current = false
				} else if !insert && j > i {
					rows = withOneExtra(rows, row) // pre-delete state
					current = false
				}
			}
			var binds map[string]relstore.Value
			if len(cur.Rows) == 1 {
				binds = make(map[string]relstore.Value, len(shared))
				for _, v := range shared {
					c, _ := cur.ColIndex(v)
					binds[v] = cur.Rows[0][c]
				}
			}
			rel, err := scanAtomRows(atoms[j], tbls[j], rows, binds, current && !opts.NoIndex)
			if err != nil {
				return nil, err
			}
			// Stream the scan straight into the join probe; the join
			// output is collected because the next step's binds pushdown
			// inspects the accumulated cardinality.
			joined, err := relstore.NewJoin(relstore.IterRel(cur), rel, shared, nil, relstore.ExecOpts{Workers: opts.Workers})
			if err != nil {
				return nil, err
			}
			if cur, err = relstore.Collect(joined); err != nil {
				return nil, err
			}
			pending = append(pending[:picked], pending[picked+1:]...)
		}
		proj, err := relstore.NewProject(relstore.IterRel(cur), []string{inVar, outVar}, false, relstore.ExecOpts{Workers: 1})
		if err != nil {
			return nil, err
		}
		pairs, err := relstore.Collect(proj)
		if err != nil {
			return nil, err
		}
		for _, prow := range pairs.Rows {
			out = append(out, [2]relstore.Value{prow[0], prow[1]})
		}
	}
	return out, nil
}

func sharedVars(r *relstore.Rel, a datalog.Atom) []string {
	var out []string
	for _, v := range a.Vars() {
		if _, ok := r.ColIndex(v); ok {
			out = append(out, v)
		}
	}
	return out
}
