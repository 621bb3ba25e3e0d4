package incremental

import (
	"fmt"
	"math/bits"
	"slices"

	"graphgen/internal/conj"
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
// state R', and the pre-update state is R' plus one copy of a deleted
// tuple, or minus one copy of an inserted one. A join is linear in each of
// its inputs, so a join over a pre-update occurrence is the join over the
// current table plus (delete) or minus (insert) the join over the changed
// tuple alone. Expanding every pre-update occurrence that way leaves one
// term per non-empty set S of R's occurrences — the changed tuple at S, the
// current table at the others:
//
//	insert:  Δ = Σ_S (−1)^(|S|+1) · J[ΔR at S, R' elsewhere]
//	delete:  Δ = −Σ_S J[ΔR at S, R' elsewhere]
//
// Every term reads only current tables, through their persistent indexes,
// and copies of the changed tuple: no term walks a table to rebuild what it
// looked like before the change, so a delta costs what it outputs.

// maxOccurrences bounds k: the expansion has 2^k − 1 terms — 1, 3, 7 small
// pipelines for the bodies extraction queries have, but exponential in a
// body the user writes. Past it segmentDelta fails, which onChange answers
// with one rebuild instead of hundreds of pipelines inside a subscriber.
const maxOccurrences = 8

// segmentDelta returns the (inVar, outVar) pairs a single-tuple change to t
// (insert when insert is true, delete otherwise) contributes to the
// segment's bag plan seg, each with the sign of its contribution to the
// pair's support count (the caller fills in rule and segment). The terms
// run under exec, not under the context seg was compiled in: that may
// carry the trace of the request that built the graph.
//
// Each term is seg over the same atoms and filters, differing only in row
// sources: a comparison is a selection, linear like the join, so it filters
// every term as it filters the segment. The join order starts at an
// occurrence holding the changed tuple, so every later join probes a
// persistent index from a small accumulated side. Indexes are updated
// inside the mutation path before change-log subscribers run, so
// table-backed occurrences see exactly the post-change state.
func segmentDelta(seg *conj.Plan, t *relstore.Table, row []relstore.Value, insert bool, exec relstore.ExecOpts) ([]countDelta, error) {
	changed := [][]relstore.Value{row}
	var occ []int // the occurrences of t
	for j, o := range seg.Atoms {
		if o.Table == t {
			occ = append(occ, j)
		}
	}
	if len(occ) > maxOccurrences {
		return nil, fmt.Errorf("incremental: %s occurs %d times in one segment: a delta would take %d terms", t.Name, len(occ), 1<<len(occ)-1)
	}
	var out []countDelta
	for subset := 1; subset < 1<<len(occ); subset++ {
		term := *seg
		term.Atoms, term.Exec = slices.Clone(seg.Atoms), exec
		n := -1
		if insert && bits.OnesCount(uint(subset))%2 == 1 {
			n = 1
		}
		for k, j := range occ {
			if subset>>k&1 == 1 {
				term.Atoms[j].Rows, term.Atoms[j].Explicit = changed, true
				term.Start = j
			}
		}
		_, err := extract.Stream(&term, func(prow relstore.Row) error {
			out = append(out, countDelta{pair: [2]relstore.Value{prow[0], prow[1]}, n: n})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
