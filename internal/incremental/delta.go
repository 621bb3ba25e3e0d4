package incremental

import (
	"slices"

	"graphgen/internal/conj"
	"graphgen/internal/datalog"
	"graphgen/internal/extract"
	"graphgen/internal/relstore"
)

// This file evaluates segment deltas: the signed multiset of (InVar, OutVar)
// rows a single-tuple change contributes to one plan segment. It is the
// counting variant of the classic delta-rule evaluation for non-recursive
// queries (Berkholz et al., "Answering FO+MOD queries under updates",
// PAPERS.md): for a relation R occurring k times in a join, the delta of a
// single-tuple update decomposes into k disjoint joins, one per occurrence,
// with the occurrences before the changed one evaluated against the
// pre-update state and the occurrences after it against the post-update
// state:
//
//	Δ(R' ⋈ R') = (ΔR ⋈ R') ∪ (R ⋈ ΔR)        (insert: R' = R ∪ {t})
//	Δ(R ⋈ R)   = (ΔR ⋈ R)  ∪ (R' ⋈ ΔR)       (delete: R' = R − {t})
//
// Subscribers run after the table has mutated, so "current" is the new
// state, and the pre-update state is the current table plus one copy of a
// deleted tuple, or minus one copy of an inserted one. A join is linear in
// each of its inputs, so a join over such a pre-update occurrence is the
// join over the current table plus (delete) or minus (insert) the join over
// the changed tuple alone:
//
//	R ⋈ ΔR = (R' ⋈ ΔR) − (ΔR ⋈ ΔR)             (insert)
//	R ⋈ ΔR = (R' ⋈ ΔR) + (ΔR ⋈ ΔR)             (delete)
//
// Every term then reads only current tables, through their persistent
// indexes, and copies of the changed tuple: no term walks a table to
// rebuild what it looked like before the change, so a delta costs what it
// outputs.

// segmentDelta returns the (inVar, outVar) pairs a single-tuple change to t
// (insert when insert is true, delete otherwise) contributes to the segment
// join, each with the sign of its contribution to the pair's support count
// (the caller fills in rule and segment), summed over every occurrence of t
// in the segment. tbls resolves each atom to its table.
//
// Each term is one plan for the conjunctive evaluator (internal/conj) over
// the same atoms, differing only in row sources. The changed tuple stands
// in for the occurrence itself, where the join order starts, so every later
// join probes a persistent index from a small accumulated side. Indexes are
// updated inside the mutation path before change-log subscribers run, so
// table-backed occurrences see exactly the post-change state.
func segmentDelta(atoms []datalog.Atom, tbls []*relstore.Table, inVar, outVar string,
	t *relstore.Table, row []relstore.Value, insert bool, opts extract.Options) ([]countDelta, error) {
	changed := [][]relstore.Value{row}
	current := make([]conj.Occurrence, len(atoms))
	for j := range atoms {
		current[j] = conj.Occurrence{Atom: atoms[j], Table: tbls[j]}
	}
	var out []countDelta
	for i := range atoms {
		if tbls[i] != t {
			continue
		}
		// The occurrences the convention evaluates in the pre-update state.
		var pre []int
		for j := range atoms {
			if tbls[j] == t && j != i && insert == (j < i) {
				pre = append(pre, j)
			}
		}
		// One term per subset of pre: the changed tuple at the subset's
		// occurrences, the current table at the others.
		for subset := 0; subset < 1<<len(pre); subset++ {
			occs := slices.Clone(current)
			occs[i].Rows, occs[i].Explicit = changed, true
			n := 1
			if !insert {
				n = -1
			}
			for k, j := range pre {
				if subset>>k&1 == 1 {
					occs[j].Rows, occs[j].Explicit = changed, true
					if insert {
						n = -n
					}
				}
			}
			plan := conj.Plan{Atoms: occs, Start: i, Out: []string{inVar, outVar}, Exec: opts.Exec()}
			it, err := plan.Open()
			if err != nil {
				return nil, err
			}
			pairs, err := relstore.Collect(it)
			if err != nil {
				return nil, err
			}
			for _, prow := range pairs.Rows {
				out = append(out, countDelta{pair: [2]relstore.Value{prow[0], prow[1]}, n: n})
			}
		}
	}
	return out, nil
}
