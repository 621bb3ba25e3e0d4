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
// classify each join of a Case-1 chain as large-output or not and split the
// chain into segments at the large joins (PlanEdges), then turn each
// segment row into a condensed edge (Wiring, whose doc comment carries the
// mapping). Extract and the live graph (internal/incremental) share both.
// A build records every rule's edges in one core.Batch and loads them into
// the graph once (Build). Extract streams each segment as a bag that may
// repeat a row (conj drops only the duplicates a later join would
// multiply) and drops the repeats itself once Wiring has resolved a row to
// its (src, dst) slot pair, in one pairSet per segment (wirePlan); the live
// graph wires each row whose support count is positive. After the load,
// the live graph wires and unwires rows by edge surgery as their support
// counts move.

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
	// JoinValues holds, per large join in chain order, the catalog
	// distinct count of its attribute (the larger side; 0 under
	// ForceCondensed, which reads no statistics): the size hint of the
	// join's value -> virtual-node map.
	JoinValues []int
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
		isLarge, d, err := joinIsLarge(db, chain.Steps[i], chain.Steps[i+1], v, opts)
		if err != nil {
			return nil, err
		}
		large[i] = isLarge
		if isLarge {
			plan.LargeJoins++
			plan.JoinValues = append(plan.JoinValues, d)
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

// Wiring is the one mapping from segment rows to condensed edges (Steps 4-5
// of Section 4.2), for one Edges rule's plan on one graph:
//
//   - a single-segment plan's row (u, w) is the direct edge u -> w;
//   - segment 0's row (u, a) is the membership edge u -> V(a);
//   - an interior segment's row (a, b) is the virtual edge V(a) -> W(b);
//   - the last segment's row (a, w) is the membership edge V(a) -> w;
//
// where a and b are values of the large joins that bound the segment, and
// each value has one virtual node, created on first use, in layer k for the
// k-th large join (1-based). A row whose real endpoint is not the ID of a
// vertex is skipped; IDs are Int values, the only ones LoadNodes admits.
//
// A row is wired in two steps: resolve maps it to its edge's (src, dst)
// slots, creating the virtual nodes it names, and record adds the edge.
// Extract drops a repeated row between the two; Wire does both.
//
// A Wiring has two phases. While Build runs, Wire records each edge and
// each new virtual node in the build's core.Batch, numbered in arrival
// order, and Build loads every rule's batch into the graph at once. After
// that, Wire and Unwire edit the graph by edge surgery, as the live graph
// (internal/incremental) does when a row's support count becomes positive
// or returns to zero. Unwire is for the second phase only.
type Wiring struct {
	g    *core.Graph
	to   builder      // the build's batch until Build loads it, then g
	last int          // index of the last segment
	virt []valueNodes // per large join: value -> virtual node
}

// valueNodes maps one large join's values to their virtual nodes. An Int
// value is keyed on its int64 and a String value on its string, in two
// maps, so Int 5 and String "5" keep two nodes.
type valueNodes struct {
	ints map[int64]int32
	strs map[string]int32 // nil until the first String value
}

func (m *valueNodes) get(v relstore.Value) (int32, bool) {
	if v.T == relstore.Int {
		idx, ok := m.ints[v.I]
		return idx, ok
	}
	idx, ok := m.strs[v.S]
	return idx, ok
}

func (m *valueNodes) put(v relstore.Value, idx int32) {
	if v.T == relstore.Int {
		m.ints[v.I] = idx
		return
	}
	if m.strs == nil {
		m.strs = make(map[string]int32)
	}
	m.strs[v.S] = idx
}

func (m *valueNodes) remove(v relstore.Value) {
	if v.T == relstore.Int {
		delete(m.ints, v.I)
	} else {
		delete(m.strs, v.S)
	}
}

// builder is what a Wiring adds virtual nodes and edges to: a core.Batch
// during the build, the graph itself afterwards.
type builder interface {
	AddVirtualNode(layer int32) int32
	AddDirectEdgeIdx(u, w int32)
	ConnectRealToVirt(r, v int32)
	ConnectVirtToReal(v, r int32)
	ConnectVirtToVirt(v, w int32)
}

// newWiring returns the wiring of plan's segment rows onto g, recording
// into b until Build loads it. Each large join's Int map is presized from
// the join's catalog distinct count.
func newWiring(g *core.Graph, b *core.Batch, plan *EdgePlan) *Wiring {
	w := &Wiring{g: g, to: b, last: len(plan.Segments) - 1, virt: make([]valueNodes, len(plan.Segments)-1)}
	for k := range w.virt {
		w.virt[k].ints = make(map[int64]int32, plan.JoinValues[k])
	}
	return w
}

// real returns the slot of the vertex whose ID is v.
func (w *Wiring) real(v relstore.Value) (int32, bool) {
	if v.T != relstore.Int {
		return 0, false
	}
	return w.g.RealIndex(v.I)
}

// virtual returns the virtual node of value v of large join k, creating it
// on first use.
func (w *Wiring) virtual(k int, v relstore.Value) int32 {
	if idx, ok := w.virt[k].get(v); ok {
		return idx
	}
	idx := w.to.AddVirtualNode(int32(k + 1))
	w.virt[k].put(v, idx)
	return idx
}

// resolve returns the slots of the edge of segment seg's row (in, out):
// src and dst are real slots or virtual nodes, as the segment's kind says.
// A real endpoint is looked up first, so a skipped row (ok false) creates
// no virtual node.
func (w *Wiring) resolve(seg int, in, out relstore.Value) (src, dst int32, ok bool) {
	switch {
	case w.last == 0:
		u, okU := w.real(in)
		t, okT := w.real(out)
		if !okU || !okT {
			return 0, 0, false
		}
		return u, t, true
	case seg == 0:
		r, ok := w.real(in)
		if !ok {
			return 0, 0, false
		}
		return r, w.virtual(0, out), true
	case seg == w.last:
		r, ok := w.real(out)
		if !ok {
			return 0, 0, false
		}
		return w.virtual(seg-1, in), r, true
	default:
		v := w.virtual(seg-1, in)
		return v, w.virtual(seg, out), true
	}
}

// record adds segment seg's edge src -> dst, as resolve returned it.
func (w *Wiring) record(seg int, src, dst int32) {
	switch {
	case w.last == 0:
		w.to.AddDirectEdgeIdx(src, dst)
	case seg == 0:
		w.to.ConnectRealToVirt(src, dst)
	case seg == w.last:
		w.to.ConnectVirtToReal(src, dst)
	default:
		w.to.ConnectVirtToVirt(src, dst)
	}
}

// Wire adds the edge of segment seg's row (in, out). It returns the edge's
// source, a real slot or (virt) a virtual node, and ok false when the row
// is skipped.
func (w *Wiring) Wire(seg int, in, out relstore.Value) (src int32, virt, ok bool) {
	src, dst, ok := w.resolve(seg, in, out)
	if !ok {
		return 0, false, false
	}
	w.record(seg, src, dst)
	return src, w.last > 0 && seg > 0, true
}

// Unwire removes the edge Wire added for segment seg's row (in, out),
// handing its source to before ahead of the surgery, and releases every
// virtual node the removal left without edges, so that a later Wire of its
// value creates a fresh node. A row Wire skipped unwires nothing. Only that
// one edge goes: every other logical edge, including those through the
// same virtual node, survives.
func (w *Wiring) Unwire(seg int, in, out relstore.Value, before func(src int32, virt bool)) {
	switch {
	case w.last == 0:
		u, okU := w.real(in)
		t, okT := w.real(out)
		if !okU || !okT {
			return
		}
		before(u, false)
		w.g.RemoveDirectEdgeIdx(u, t)
	case seg == 0:
		r, okR := w.real(in)
		v, okV := w.virt[0].get(out)
		if !okR || !okV {
			return
		}
		before(r, false)
		w.g.DisconnectRealToVirt(r, v)
		w.release(0, out)
	case seg == w.last:
		r, okR := w.real(out)
		v, okV := w.virt[seg-1].get(in)
		if !okR || !okV {
			return
		}
		before(v, true)
		w.g.DisconnectVirtToReal(v, r)
		w.release(seg-1, in)
	default:
		v, okV := w.virt[seg-1].get(in)
		x, okX := w.virt[seg].get(out)
		if !okV || !okX {
			return
		}
		before(v, true)
		w.g.DisconnectVirtToVirt(v, x)
		w.release(seg-1, in)
		w.release(seg, out)
	}
}

// release removes the virtual node of value v of large join k, and forgets
// the value, when the node has no edge left. The graph frees its slot, and
// the next virtual node a Wire creates reuses it.
func (w *Wiring) release(k int, v relstore.Value) {
	idx, _ := w.virt[k].get(v)
	g := w.g
	if len(g.VirtSources(idx)) > 0 || len(g.VirtTargets(idx)) > 0 ||
		len(g.VirtInVirt(idx)) > 0 || len(g.VirtOutVirt(idx)) > 0 || len(g.VirtUndirected(idx)) > 0 {
		return
	}
	g.RemoveVirtualNode(idx)
	w.virt[k].remove(v)
}

// wirePlan evaluates the plan's segments against the database in chain
// order and wires each row through w as its pipeline yields it; no
// segment is materialized. A segment's stream is a bag, so each segment
// drops its own repeats: a row's (src, dst) pair is recorded the first
// time the segment's pairSet (one table, reset per segment) sees it, and
// a skipped row counts in st the first time a set of skipped rows (rare,
// so built on the first) sees it. Both sets' entries count on
// opts.Tracker until their segment ends, as the rows the segment holds.
// A single-segment plan's new direct edges count against opts.MaxEdges.
func wirePlan(db *relstore.DB, w *Wiring, plan *EdgePlan, opts Options, st *Stats) error {
	var wired int64
	var seen pairSet
	for i, s := range plan.Segments {
		seen.reset(s.maxRows(db))
		var skipped *relstore.RowSet
		var slab relstore.RowSlab
		err := streamSegment(db, s, opts, func(row relstore.Row) error {
			src, dst, ok := w.resolve(i, row[0], row[1])
			if !ok {
				if skipped == nil {
					skipped = relstore.NewRowSet([]int{0, 1}, 0)
				}
				if _, added := skipped.AddCopy(row, &slab); added {
					st.SkippedRows++
					opts.Tracker.Acquire(1)
				}
				return nil
			}
			if !seen.add(src, dst) {
				return nil
			}
			opts.Tracker.Acquire(1)
			w.record(i, src, dst)
			wired++
			if w.last == 0 && opts.MaxEdges > 0 && wired > opts.MaxEdges {
				return core.ErrTooLarge
			}
			return nil
		})
		held := seen.n
		if skipped != nil {
			held += skipped.Len()
		}
		opts.Tracker.Release(held)
		if err != nil {
			return err
		}
	}
	return nil
}

// maxRows returns the row count of the largest table the segment's atoms
// read (0 when none resolves): the size hint of its pairSet.
func (s SegmentPlan) maxRows(db *relstore.DB) int {
	n := 0
	for _, a := range s.Atoms {
		if t, err := db.Table(a.Pred); err == nil {
			n = max(n, t.NumRows())
		}
	}
	return n
}

// streamSegment evaluates one segment's (InVar, OutVar) projection and
// hands each row to wire as the pipeline yields it, under a "segment" span
// that records the rows out. The plan permits early duplicate elimination
// but keeps no final set, so a row may come more than once.
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
// attribute (the larger side under the uniformity assumption). It returns
// d too; a forced decision consults no statistics and returns 0.
func joinIsLarge(db *relstore.DB, left, right datalog.ChainStep, v string, opts Options) (bool, int, error) {
	if opts.ForceExpand {
		return false, 0, nil
	}
	if opts.ForceCondensed {
		return true, 0, nil
	}
	lt, lcol, err := tableColumnFor(db, left.Atom, v)
	if err != nil {
		return false, 0, err
	}
	rt, rcol, err := tableColumnFor(db, right.Atom, v)
	if err != nil {
		return false, 0, err
	}
	dl, err := lt.NDistinct(lcol)
	if err != nil {
		return false, 0, err
	}
	dr, err := rt.NDistinct(rcol)
	if err != nil {
		return false, 0, err
	}
	d := max(dl, dr)
	if d == 0 {
		return false, 0, nil
	}
	factor := opts.LargeOutputFactor
	if factor <= 0 {
		factor = 2
	}
	nl, nr := int64(lt.NumRows()), int64(rt.NumRows())
	return float64(nl*nr)/float64(d) > factor*float64(nl+nr), d, nil
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
