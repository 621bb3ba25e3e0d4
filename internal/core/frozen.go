package core

import (
	"cmp"
	"slices"
)

// Frozen is an immutable CSR view of a Graph's logical edges: the live real
// nodes renumbered densely 0..n-1 in ascending external-ID order, with
// out-adjacency (offsets + targets) and in-adjacency (offsets + sources) as
// flat arrays. Each logical edge appears exactly once in each direction,
// whatever representation the source graph was in, so analytics on a view
// see the graph only through getNeighbors (Section 3.4) without walking
// virtual nodes, mark sets or tombstones again.
//
// A view holds its own copy of the source graph's property columns,
// gathered into dense order by Freeze, so SetProperty on the source after
// Freeze is not visible through it. A view derived by FreezeFrom shares
// its predecessor's columns (and IDs) read-only: the vertex set is the
// same, and no path sets a property on a graph a view is derived from —
// the incremental flush (internal/incremental) only does edge surgery and
// virtual-node bookkeeping, and a rebuild installs a brand-new Graph.
//
// A Frozen is safe for concurrent use and satisfies the traversal surface
// of internal/algo, so every algorithm runs on it unchanged; OutRow and
// InRow also hand out its rows as flat slices, which the BFS-shaped
// kernels range over instead of calling back once per edge.
type Frozen struct {
	ids    []int64 // dense -> external, ascending
	outOff []int64 // len n+1
	out    []int32
	inOff  []int64 // len n+1
	in     []int32
	props  []propColumn // by dense index; shared with derived views, read-only
	// first is the dense index of the source graph's lowest live slot —
	// the vertex its Vertices iterator yields first — or -1 when empty.
	first int32
}

// Freeze builds the CSR view of g's current logical graph: one
// ForNeighbors pass per live vertex (so SelfLoops and every
// representation's deduplication apply exactly as for any reader), then a
// counting-sort transpose for the in-adjacency. g must not be mutated
// while Freeze runs; the view stays valid after g changes.
func (g *Graph) Freeze() *Frozen {
	n := g.NumRealNodes()
	order := make([]int32, 0, n) // dense -> source slot
	g.ForEachReal(func(r int32) bool {
		order = append(order, r)
		return true
	})
	firstSlot := none
	if n > 0 {
		firstSlot = order[0]
	}
	byID := func(a, b int32) int { return cmp.Compare(g.realID[a], g.realID[b]) }
	if !slices.IsSortedFunc(order, byID) {
		slices.SortFunc(order, byID)
	}
	dense := make([]int32, len(g.realID)) // source slot -> dense
	f := &Frozen{
		ids:    make([]int64, n),
		outOff: make([]int64, n+1),
		inOff:  make([]int64, n+1),
		props:  gatherColumns(g.props, order),
		first:  none,
	}
	for i, r := range order {
		dense[r] = int32(i)
		f.ids[i] = g.realID[r]
	}
	if firstSlot != none {
		f.first = dense[firstSlot]
	}
	out := make([]int32, 0, n)
	add := func(t int32) bool {
		out = append(out, dense[t])
		return true
	}
	for i, r := range order {
		g.ForNeighbors(r, add)
		f.outOff[i+1] = int64(len(out))
	}
	f.out = out
	// Transpose: count in-degrees, prefix-sum, then place each source in
	// ascending source order.
	for _, t := range out {
		f.inOff[t+1]++
	}
	for i := 0; i < n; i++ {
		f.inOff[i+1] += f.inOff[i]
	}
	f.in = make([]int32, len(out))
	next := slices.Clone(f.inOff[:n])
	for s := 0; s < n; s++ {
		for _, t := range out[f.outOff[s]:f.outOff[s+1]] {
			f.in[next[t]] = int32(s)
			next[t]++
		}
	}
	return f
}

// FreezeFrom derives the view of g's current logical graph from prev, a
// view of an earlier state of the same graph, re-walking only the rows in
// dirty. It requires that g's live vertex set is prev's and that dirty —
// live source slots, in any order, repeats allowed — names every vertex
// whose ForNeighbors emission may differ from its row in prev. Under that
// contract the result equals g.Freeze() array for array.
//
// The derived view shares prev's ids and property columns (the vertex set
// is unchanged), copies each run of clean out-rows with one copy, appends
// the re-walked dirty rows in place, and patches the in-rows of the targets
// a dirty row had or now has; every other in-row is copied. prev is not
// modified, so views handed out earlier stay valid.
func (g *Graph) FreezeFrom(prev *Frozen, dirty []int32) *Frozen {
	n := int32(len(prev.ids))
	dense := func(slot int32) int32 {
		d, _ := prev.RealIndex(g.realID[slot])
		return d
	}
	rows := make([]int32, len(dirty)) // dirty rows, dense, ascending
	for i, s := range dirty {
		rows[i] = dense(s)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	isDirty := func(d int32) bool {
		_, ok := slices.BinarySearch(rows, d)
		return ok
	}

	// Re-walk the dirty rows back to back, and collect the in-edges they
	// contribute, grouped by target in ascending source order.
	var fresh []int32
	freshOff := make([]int, len(rows)+1)
	add := func(t int32) bool {
		fresh = append(fresh, dense(t))
		return true
	}
	touched := make([]int32, 0, 2*len(rows))
	var removed int64
	for i, d := range rows {
		r, _ := g.RealIndex(prev.ids[d])
		g.ForNeighbors(r, add)
		freshOff[i+1] = len(fresh)
		old := prev.out[prev.outOff[d]:prev.outOff[d+1]]
		removed += int64(len(old))
		touched = append(touched, old...)
	}
	touched = append(touched, fresh...)
	slices.Sort(touched)
	touched = slices.Compact(touched)
	type edge struct{ t, s int32 }
	added := make([]edge, 0, len(fresh))
	for i, d := range rows {
		for _, t := range fresh[freshOff[i]:freshOff[i+1]] {
			added = append(added, edge{t, d})
		}
	}
	slices.SortStableFunc(added, func(a, b edge) int { return cmp.Compare(a.t, b.t) })

	m := int64(len(prev.out)) - removed + int64(len(fresh))
	f := &Frozen{
		ids:    prev.ids,
		props:  prev.props,
		first:  prev.first,
		outOff: make([]int64, n+1),
		out:    make([]int32, 0, m),
		inOff:  make([]int64, n+1),
		in:     make([]int32, 0, m),
	}
	// Out-rows: clean runs between dirty rows are copied, offsets shifted.
	var lo int32
	for i, d := range rows {
		f.out = appendRows(f.outOff, f.out, prev.outOff, prev.out, lo, d)
		f.out = append(f.out, fresh[freshOff[i]:freshOff[i+1]]...)
		f.outOff[d+1] = int64(len(f.out))
		lo = d + 1
	}
	f.out = appendRows(f.outOff, f.out, prev.outOff, prev.out, lo, n)
	// In-rows: a touched target keeps its clean sources and merges in the
	// dirty ones, still in ascending source order.
	lo = 0
	for _, t := range touched {
		f.in = appendRows(f.inOff, f.in, prev.inOff, prev.in, lo, t)
		k := 0 // every target in added is touched, so added is consumed in order
		for k < len(added) && added[k].t == t {
			k++
		}
		srcs := added[:k]
		added = added[k:]
		for _, s := range prev.in[prev.inOff[t]:prev.inOff[t+1]] {
			if isDirty(s) {
				continue
			}
			for len(srcs) > 0 && srcs[0].s < s {
				f.in = append(f.in, srcs[0].s)
				srcs = srcs[1:]
			}
			f.in = append(f.in, s)
		}
		for _, e := range srcs {
			f.in = append(f.in, e.s)
		}
		f.inOff[t+1] = int64(len(f.in))
		lo = t + 1
	}
	f.in = appendRows(f.inOff, f.in, prev.inOff, prev.in, lo, n)
	return f
}

// appendRows appends the CSR rows [lo, hi) of (srcOff, src) to dst, whose
// offsets dstOff are filled through row lo, and fills dstOff through hi.
func appendRows(dstOff []int64, dst []int32, srcOff []int64, src []int32, lo, hi int32) []int32 {
	if lo >= hi {
		return dst
	}
	shift := int64(len(dst)) - srcOff[lo]
	dst = append(dst, src[srcOff[lo]:srcOff[hi]]...)
	for i := lo; i < hi; i++ {
		dstOff[i+1] = srcOff[i+1] + shift
	}
	return dst
}

// NumRealNodes returns the vertex count n.
func (f *Frozen) NumRealNodes() int { return len(f.ids) }

// NumRealSlots equals NumRealNodes: a view has no tombstones.
func (f *Frozen) NumRealSlots() int { return len(f.ids) }

// NumEdges returns the logical edge count.
func (f *Frozen) NumEdges() int64 { return int64(len(f.out)) }

// Alive reports whether r is a dense index of the view.
func (f *Frozen) Alive(r int32) bool { return r >= 0 && int(r) < len(f.ids) }

// IDs returns the external IDs in ascending order, indexed by dense index.
// Callers must not mutate the returned slice.
func (f *Frozen) IDs() []int64 { return f.ids }

// RealID returns the external ID of dense index r.
func (f *Frozen) RealID(r int32) int64 { return f.ids[r] }

// RealIndex returns the dense index of external ID id (binary search).
func (f *Frozen) RealIndex(id int64) (int32, bool) {
	i, ok := slices.BinarySearch(f.ids, id)
	return int32(i), ok
}

// First returns the external ID the source graph's Vertices iterator
// yielded first (its lowest live slot, not in general the smallest ID).
func (f *Frozen) First() (int64, bool) {
	if f.first == none {
		return 0, false
	}
	return f.ids[f.first], true
}

// OutRow returns the logical out-neighbors of r as a slice of dense
// indexes, in the order ForNeighbors yields them. The slice is part of the
// view: callers must not mutate it (its capacity ends with the row, so an
// append copies).
func (f *Frozen) OutRow(r int32) []int32 {
	lo, hi := f.outOff[r], f.outOff[r+1]
	return f.out[lo:hi:hi]
}

// InRow returns the logical in-neighbors of r, in the order
// ForInNeighbors yields them, under OutRow's contract.
func (f *Frozen) InRow(r int32) []int32 {
	lo, hi := f.inOff[r], f.inOff[r+1]
	return f.in[lo:hi:hi]
}

// ForNeighbors calls fn for each logical out-neighbor of r, in the order
// the source graph's ForNeighbors emitted them.
func (f *Frozen) ForNeighbors(r int32, fn func(t int32) bool) {
	for _, t := range f.OutRow(r) {
		if !fn(t) {
			return
		}
	}
}

// ForInNeighbors calls fn for each logical in-neighbor of r, in ascending
// dense (and so external-ID) order.
func (f *Frozen) ForInNeighbors(r int32, fn func(s int32) bool) {
	for _, s := range f.InRow(r) {
		if !fn(s) {
			return
		}
	}
}

// PropertyOf returns the named property of the vertex with external ID id.
func (f *Frozen) PropertyOf(id int64, key string) (string, bool) {
	r, ok := f.RealIndex(id)
	if !ok {
		return "", false
	}
	return lookupProperty(f.props, r, key)
}

// Diff names the first part in which f and o differ — "ids", "outOff",
// "out", "inOff", "in" or "first" — or returns "" when the two views are
// identical array for array. It is the oracle check that a view from
// FreezeFrom equals a from-scratch Freeze.
func (f *Frozen) Diff(o *Frozen) string {
	switch {
	case !slices.Equal(f.ids, o.ids):
		return "ids"
	case !slices.Equal(f.outOff, o.outOff):
		return "outOff"
	case !slices.Equal(f.out, o.out):
		return "out"
	case !slices.Equal(f.inOff, o.inOff):
		return "inOff"
	case !slices.Equal(f.in, o.in):
		return "in"
	case f.first != o.first:
		return "first"
	}
	return ""
}
