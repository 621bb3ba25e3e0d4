// Package dedup implements the preprocessing and deduplication algorithms of
// Section 5 of the GraphGen paper: BITMAP-1 and BITMAP-2 (set-cover based)
// for the BITMAP representation, four algorithms producing DEDUP-1 (Naive /
// Greedy x Virtual-Nodes-First / Real-Nodes-First), and the greedy splitting
// algorithm of Appendix B producing DEDUP-2.
//
// Input contract: all functions take a C-DUP graph and return a new graph in
// the target representation; the input is never modified. The BITMAP
// algorithms accept arbitrary (multi-layer, asymmetric) condensed graphs.
// The DEDUP-1 and DEDUP-2 algorithms follow the paper's scope (Section 5.2:
// "a series of novel algorithms ... for single-layer condensed graphs") and
// require single-layer symmetric membership graphs, where every virtual node
// V satisfies I(V) == O(V); they return ErrUnsupported otherwise — the paper
// likewise found the multi-layer variants "infeasible to run even on small
// multi-layer graphs" and recommends BITMAP-2 there.
package dedup

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"

	"graphgen/internal/core"
)

// ErrUnsupported is returned when an algorithm is applied to a graph outside
// its supported class (e.g. DEDUP-1 on a multi-layer or asymmetric graph).
var ErrUnsupported = errors.New("dedup: representation conversion unsupported for this graph class")

// Ordering selects the node processing order studied in Figure 12b.
type Ordering int

// Processing orders. The paper's sortByDuplication is approximated by
// membership size, its dominant term.
const (
	// OrderRandom processes nodes in a seeded random shuffle (the paper's
	// recommended robust default).
	OrderRandom Ordering = iota
	// OrderSizeAsc processes smaller virtual nodes (or lower-membership
	// real nodes) first.
	OrderSizeAsc
	// OrderSizeDesc processes larger nodes first.
	OrderSizeDesc
)

func (o Ordering) String() string {
	switch o {
	case OrderRandom:
		return "RAND"
	case OrderSizeAsc:
		return "ASC"
	case OrderSizeDesc:
		return "DESC"
	default:
		return "?"
	}
}

// Options configures a deduplication run.
type Options struct {
	// Ordering is the node processing order (Figure 12b).
	Ordering Ordering
	// Seed drives the random ordering and random choices; runs are
	// deterministic for a fixed seed.
	Seed int64
}

// Stats reports what a deduplication run did.
type Stats struct {
	// RepEdgesBefore / RepEdgesAfter are physical edge counts.
	RepEdgesBefore, RepEdgesAfter int64
	// DirectEdgesAdded counts compensating direct edges added (directed).
	DirectEdgesAdded int64
	// MembershipsRemoved counts virtual-membership removals.
	MembershipsRemoved int64
	// BitmapsCreated counts bitmaps attached (BITMAP algorithms).
	BitmapsCreated int64
	// VirtualNodesCreated counts virtual nodes created (DEDUP-2 splits).
	VirtualNodesCreated int64
}

// --- shared helpers ---

// requireSymmetricSingleLayer validates the DEDUP-1/DEDUP-2 input contract:
// one virtual layer, member-set virtual nodes (I(V) == O(V)), symmetric
// direct edges, and no logical self loops (a member of two virtual nodes
// would emit its self edge once per membership, which membership surgery
// cannot deduplicate — the BITMAP representations handle that case).
func requireSymmetricSingleLayer(g *core.Graph) error {
	if g.SelfLoops || g.MaxLayer() > 1 {
		return ErrUnsupported
	}
	for v := int32(0); int(v) < g.NumVirtualSlots(); v++ {
		if g.VirtAlive(v) && !slices.Equal(g.VirtSources(v), g.VirtTargets(v)) {
			return ErrUnsupported
		}
	}
	for u := int32(0); int(u) < g.NumRealSlots(); u++ {
		if !g.Alive(u) {
			continue
		}
		for _, w := range g.OutDirect(u) {
			if !slices.Contains(g.OutDirect(w), u) {
				return ErrUnsupported
			}
		}
	}
	return nil
}

// intersectSorted returns the intersection of two ascending-sorted slices.
func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// coveredPair reports whether the symmetric pair (a, b) is currently covered
// by the full graph through a direct edge or any virtual node other than
// exclude. Deduplication removals consult it before compensating so that no
// logical edge is ever lost. Virtual target lists stay sorted throughout
// deduplication (removals preserve order), so they are binary-searched.
func coveredPair(g *core.Graph, a, b, exclude int32) bool {
	if slices.Contains(g.OutDirect(a), b) {
		return true
	}
	for _, v := range g.OutVirtuals(a) {
		if v == exclude {
			continue
		}
		if containsSorted(g.VirtTargets(v), b) {
			return true
		}
	}
	return false
}

// containsSorted binary-searches an ascending slice, falling back to a scan
// on short slices.
func containsSorted(s []int32, x int32) bool {
	if len(s) <= 16 {
		return slices.Contains(s, x)
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// removeMembershipWithCompensation removes real node r from virtual node v
// (both the source and target side), then restores any pair (r, y) for
// y in M(v) that lost its only path by adding an undirected direct edge.
func removeMembershipWithCompensation(g *core.Graph, v, r int32, st *Stats) {
	others := append([]int32(nil), g.VirtTargets(v)...)
	g.DisconnectRealToVirt(r, v)
	g.DisconnectVirtToReal(v, r)
	st.MembershipsRemoved++
	for _, y := range others {
		if y == r {
			continue
		}
		if coveredPair(g, r, y, -1) {
			continue
		}
		g.AddDirectEdgeIdx(r, y)
		g.AddDirectEdgeIdx(y, r)
		st.DirectEdgesAdded += 2
	}
}

// virtualOrder returns the processing order over live virtual nodes.
func virtualOrder(g *core.Graph, opts Options) []int32 {
	var vs []int32
	g.ForEachVirtual(func(v int32) bool { vs = append(vs, v); return true })
	orderBySize(vs, opts, func(v int32) int { return len(g.VirtTargets(v)) })
	return vs
}

// realOrder returns the processing order over live real nodes.
func realOrder(g *core.Graph, opts Options) []int32 {
	var rs []int32
	g.ForEachReal(func(r int32) bool { rs = append(rs, r); return true })
	orderBySize(rs, opts, func(r int32) int { return len(g.OutVirtuals(r)) })
	return rs
}

func orderBySize(s []int32, opts Options, size func(int32) int) {
	switch opts.Ordering {
	case OrderRandom:
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	case OrderSizeAsc:
		slices.SortFunc(s, func(a, b int32) int { return cmp.Or(cmp.Compare(size(a), size(b)), cmp.Compare(a, b)) })
	case OrderSizeDesc:
		slices.SortFunc(s, func(a, b int32) int { return cmp.Or(cmp.Compare(size(b), size(a)), cmp.Compare(a, b)) })
	}
}
