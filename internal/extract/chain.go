package extract

import (
	"fmt"
	"slices"
	"strings"

	"graphgen/internal/core"
	"graphgen/internal/datalog"
	"graphgen/internal/relstore"
)

// This file implements the condensed extraction algorithm of Section 4.2:
// classify each join of a Case-1 chain as large-output or not, split the
// chain into segments at the large joins, evaluate the segments as database
// queries, and materialize virtual nodes per distinct large-join attribute
// value with the three kinds of condensed edges.
//
// Planning (PlanEdges) is exposed separately from materialization
// (wirePlan) so that the incremental-maintenance subsystem
// (internal/incremental) can reuse the planner's segment structure to keep
// per-segment delta counts aligned with the wiring Extract produces.

// SegmentPlan is a maximal run of chain atoms without an interior
// large-output join. InVar/OutVar are its boundary variables: the left edge
// endpoint (or previous large-join attribute) and the right edge endpoint
// (or next large-join attribute). Comps and Negated are the rule's filters
// whose variables the segment's atoms all bind.
type SegmentPlan struct {
	Atoms   []datalog.Atom
	InVar   string
	OutVar  string
	Comps   []datalog.Comparison
	Negated []datalog.Atom
}

// EdgePlan is the extraction plan for one Edges rule. A single segment
// means the whole rule is handed to the database and loads direct edges;
// n > 1 segments are wired through n-1 virtual-node families (one per
// large-output join attribute, layered in chain order).
type EdgePlan struct {
	Rule     datalog.Rule
	Segments []SegmentPlan
	// Case2 records that the rule fell back to full expansion (its single
	// segment is the whole body with every filter): the body is not an
	// acyclic chain, or a filter spans two segments.
	Case2 bool
	// Symmetric records that the chain is its own mirror image and no
	// filter breaks the mirror, making the extracted edges undirected.
	Symmetric bool
	// LargeJoins and DatabaseJoins count the planner's classification of
	// the rule's joins.
	LargeJoins    int
	DatabaseJoins int
}

// PlanEdges classifies rule and returns its extraction plan. Chain rules
// split into segments at the large-output joins, and each comparison or
// negated atom filters every segment whose atoms bind all of its variables.
// Other rules (Case 2), and chains with a filter no segment binds, plan as
// one full-expansion segment — except for ID1 != ID2 while self loops are
// off, which the graph applies itself by dropping self edges.
func PlanEdges(db *relstore.DB, rule datalog.Rule, opts Options) (*EdgePlan, error) {
	id1 := rule.Head.Terms[0].Var
	id2 := rule.Head.Terms[1].Var
	// Case 2: the whole body, filters included, is one database query
	// over the head endpoints.
	expanded := &EdgePlan{Rule: rule, Case2: true, DatabaseJoins: len(rule.Body) - 1,
		Segments: []SegmentPlan{{Atoms: rule.Body, InVar: id1, OutVar: id2, Comps: rule.Comps, Negated: rule.Negated}}}
	chain, err := datalog.AnalyzeChain(rule)
	if err != nil {
		return expanded, nil
	}
	plan := &EdgePlan{Rule: rule}
	n := len(chain.Steps)
	// Classify each of the n-1 joins.
	large := make([]bool, len(chain.JoinVars))
	for i, v := range chain.JoinVars {
		isLarge, err := joinIsLarge(db, chain.Steps[i], chain.Steps[i+1], v, opts)
		if err != nil {
			return nil, err
		}
		large[i] = isLarge
		if isLarge {
			plan.LargeJoins++
		} else {
			plan.DatabaseJoins++
		}
	}
	// Split into segments at the large joins.
	var bound []map[string]bool
	addSeg := func(lo, hi int) {
		atoms := make([]datalog.Atom, 0, hi-lo+1)
		vars := make(map[string]bool)
		for k := lo; k <= hi; k++ {
			atoms = append(atoms, chain.Steps[k].Atom)
			for _, v := range chain.Steps[k].Atom.Vars() {
				vars[v] = true
			}
		}
		plan.Segments = append(plan.Segments, SegmentPlan{
			Atoms: atoms, InVar: chain.Steps[lo].InVar, OutVar: chain.Steps[hi].OutVar,
		})
		bound = append(bound, vars)
	}
	lo := 0
	for i := 0; i < len(large); i++ {
		if large[i] {
			addSeg(lo, i)
			lo = i + 1
		}
	}
	addSeg(lo, n-1)

	// Place the filters. Only ID1 != ID2 keeps the mirror image.
	place := func(vars []string, add func(*SegmentPlan)) bool {
		found := false
		for i := range plan.Segments {
			if !slices.ContainsFunc(vars, func(v string) bool { return !bound[i][v] }) {
				add(&plan.Segments[i])
				found = true
			}
		}
		return found
	}
	plan.Symmetric = chainSymmetric(chain)
	for _, c := range rule.Comps {
		vs := c.Vars()
		endpoints := c.Op == datalog.OpNE && len(vs) == 2 && slices.Contains(vs, id1) && slices.Contains(vs, id2)
		if place(vs, func(s *SegmentPlan) { s.Comps = append(s.Comps, c) }) {
			plan.Symmetric = plan.Symmetric && endpoints
		} else if !endpoints || opts.SelfLoops {
			return expanded, nil
		}
	}
	for _, a := range rule.Negated {
		if !place(a.Vars(), func(s *SegmentPlan) { s.Negated = append(s.Negated, a) }) {
			return expanded, nil
		}
		plan.Symmetric = false
	}
	return plan, nil
}

// wirePlan evaluates the plan's segments against the database and
// materializes the edges: direct edges for a single-segment plan, condensed
// virtual-node wiring otherwise (Steps 4-5 of Section 4.2). Segments are
// evaluated in chain order and each row is wired as its pipeline yields
// it; no segment is materialized.
func wirePlan(db *relstore.DB, g *core.Graph, plan *EdgePlan, opts Options, st *Stats) error {
	last := len(plan.Segments) - 1
	if last == 0 {
		// No large-output join: the whole rule was handed to the
		// database; load direct (expanded) edges.
		var count int64
		return streamSegment(db, plan.Segments[0], opts, func(row relstore.Row) error {
			u, okU := g.RealIndex(AsID(row[0]))
			v, okV := g.RealIndex(AsID(row[1]))
			if !okU || !okV {
				st.SkippedRows++
				return nil
			}
			g.AddDirectEdgeIdx(u, v)
			count++
			if opts.MaxEdges > 0 && count > opts.MaxEdges {
				return core.ErrTooLarge
			}
			return nil
		})
	}

	// Step 4: one virtual-node family per large join attribute; a virtual
	// node per distinct value. Layer k is the k-th large join (1-based).
	virtOf := make([]map[relstore.Value]int32, last)
	for k := range virtOf {
		virtOf[k] = make(map[relstore.Value]int32)
	}
	getVirt := func(attr int, v relstore.Value) int32 {
		if idx, ok := virtOf[attr][v]; ok {
			return idx
		}
		idx := g.AddVirtualNode(int32(attr + 1))
		virtOf[attr][v] = idx
		return idx
	}

	// Step 5: wire the condensed edges.
	for i, s := range plan.Segments {
		err := streamSegment(db, s, opts, func(row relstore.Row) error {
			switch {
			case i == 0:
				r, ok := g.RealIndex(AsID(row[0]))
				if !ok {
					st.SkippedRows++
					return nil
				}
				g.ConnectRealToVirt(r, getVirt(0, row[1]))
			case i == last:
				r, ok := g.RealIndex(AsID(row[1]))
				if !ok {
					st.SkippedRows++
					return nil
				}
				g.ConnectVirtToReal(getVirt(i-1, row[0]), r)
			default:
				g.ConnectVirtToVirt(getVirt(i-1, row[0]), getVirt(i, row[1]))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// streamSegment evaluates one segment's (InVar, OutVar) projection and
// hands each row to wire as the pipeline yields it, under a "segment" span
// that records the rows out.
func streamSegment(db *relstore.DB, s SegmentPlan, opts Options, wire func(relstore.Row) error) error {
	sp := opts.Trace.Push("segment", s.InVar+"->"+s.OutVar)
	defer sp.End()
	p, err := s.Compile(db, []string{s.InVar, s.OutVar}, true, opts)
	if err != nil {
		return err
	}
	rows, err := Stream(p, wire)
	sp.AddRows(rows)
	return err
}

// joinIsLarge applies the planner rule of Section 4.2 Step 2: the join on
// attribute v between the tables of two adjacent steps is large-output when
// |R||S|/d > factor*(|R|+|S|), with d the catalog distinct count of the join
// attribute (the larger side under the uniformity assumption).
func joinIsLarge(db *relstore.DB, left, right datalog.ChainStep, v string, opts Options) (bool, error) {
	if opts.ForceExpand {
		return false, nil
	}
	if opts.ForceCondensed {
		return true, nil
	}
	lt, lcol, err := tableColumnFor(db, left.Atom, v)
	if err != nil {
		return false, err
	}
	rt, rcol, err := tableColumnFor(db, right.Atom, v)
	if err != nil {
		return false, err
	}
	dl, err := lt.NDistinct(lcol)
	if err != nil {
		return false, err
	}
	dr, err := rt.NDistinct(rcol)
	if err != nil {
		return false, err
	}
	d := dl
	if dr > d {
		d = dr
	}
	if d == 0 {
		return false, nil
	}
	nl, nr := int64(lt.NumRows()), int64(rt.NumRows())
	return float64(nl*nr)/float64(d) > opts.LargeOutputFactor*float64(nl+nr), nil
}

// tableColumnFor resolves the table and column name bound to variable v in
// the atom (positional binding).
func tableColumnFor(db *relstore.DB, atom datalog.Atom, v string) (*relstore.Table, string, error) {
	t, err := db.Table(atom.Pred)
	if err != nil {
		return nil, "", err
	}
	idx, ok := atom.TermIndex(v)
	if !ok {
		return nil, "", fmt.Errorf("extract: variable %q not in atom %s", v, atom)
	}
	if idx >= len(t.Cols) {
		return nil, "", fmt.Errorf("extract: atom %s has more terms than table %s has columns", atom, t.Name)
	}
	return t, t.Cols[idx].Name, nil
}

// chainSymmetric reports whether a chain is its own mirror image, which
// makes the extracted graph undirected (e.g. the co-authors query, whose
// two halves scan the same table with swapped roles).
func chainSymmetric(c *datalog.Chain) bool {
	n := len(c.Steps)
	for i := 0; i < n; i++ {
		a := c.Steps[i]
		b := c.Steps[n-1-i]
		if !strings.EqualFold(a.Atom.Pred, b.Atom.Pred) {
			return false
		}
		ai, _ := a.Atom.TermIndex(a.InVar)
		ao, _ := a.Atom.TermIndex(a.OutVar)
		bi, _ := b.Atom.TermIndex(b.InVar)
		bo, _ := b.Atom.TermIndex(b.OutVar)
		if ai != bo || ao != bi {
			return false
		}
	}
	return true
}

// AsID maps a relational value into the real-node ID space. String IDs hash
// into the int64 space; the generators use integer keys, so that path only
// serves ad-hoc schemas.
func AsID(v relstore.Value) int64 {
	if v.T == relstore.Int {
		return v.I
	}
	var h int64 = 1469598103934665603
	for i := 0; i < len(v.S); i++ {
		h ^= int64(v.S[i])
		h *= 1099511628211
	}
	return h
}
