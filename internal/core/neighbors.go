package core

import (
	"slices"
	"sync"

	"graphgen/internal/markset"
)

// This file implements getNeighbors for every representation (Section 4.3).
// The fundamental contract: ForNeighbors(r, fn) invokes fn exactly once for
// every logical out-neighbor of real node r, however many physical paths the
// representation stores between them.
//
//   - EXP:     scan the direct out list.
//   - C-DUP:   depth-first traversal through virtual nodes, deduplicating on
//     the fly against a dense mark set over the real nodes already
//     emitted (the paper's "naive solution to deduplication", with
//     its hash set replaced by an epoch-stamped array).
//   - DEDUP-1: plain traversal; the deduplication algorithms guarantee at
//     most one path between any two real nodes, so no visited set
//     over real nodes is needed.
//   - BITMAP:  traversal consults the per-(origin, virtual node) bitmaps to
//     decide which outgoing edges of a virtual node to follow; in
//     the backward direction it deduplicates like C-DUP.
//   - DEDUP-2: a real node reaches the targets of each directly adjacent
//     virtual node V plus the targets of V's undirected 1-hop
//     virtual neighborhood.
//
// Traversal scratch. Every walk that goes through virtual nodes borrows a
// scratch (mark sets and DFS stack) from a package-level pool for exactly the
// duration of the call, so a steady-state neighbor call allocates nothing.
// The contract this gives callers:
//
//   - concurrent readers each hold their own scratch; nothing is shared
//     through the Graph, which stays read-only;
//   - fn may itself call ForNeighbors, ForInNeighbors or HasEdgeIdx on this
//     or any other graph: the nested call borrows a second scratch;
//   - a scratch is sized to the graph on every borrow, so graphs of different
//     sizes, and graphs that grow between calls, share the pool;
//   - early stop returns the scratch; a panicking fn also returns it, and the
//     next borrower starts from a fresh epoch and an empty stack.
//
// A scratch costs 4 bytes per real slot plus 4 per virtual slot (the latter
// only touched on multi-layer graphs) per concurrently active traversal. It
// belongs to the pool, not to the representation: the garbage collector may
// drop idle ones, and MemBytes does not count it.

// scratch is the working memory of one traversal through virtual nodes.
type scratch struct {
	real  markset.Set // real nodes already emitted
	virt  markset.Set // virtual nodes already expanded (multi-layer graphs)
	stack []int32     // DFS stack of virtual nodes
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) pop() int32 {
	v := sc.stack[len(sc.stack)-1]
	sc.stack = sc.stack[:len(sc.stack)-1]
	return v
}

// ForNeighbors calls fn for each logical out-neighbor of real index r,
// exactly once per neighbor. If fn returns false the iteration stops early.
func (g *Graph) ForNeighbors(r int32, fn func(t int32) bool) {
	if !g.Alive(r) {
		return
	}
	switch g.mode {
	case EXP:
		g.scanDirect(r, g.outReal[r], fn)
	case CDUP:
		// Direct edges participate in the duplicate check too: a direct
		// edge added by AddEdge may coexist with a virtual path in C-DUP.
		g.walkMarked(r, g.outReal[r], g.outVirt[r], g.vOut, g.vOutVirt, fn)
	case DEDUP1:
		g.walkPlain(r, g.outReal[r], g.outVirt[r], g.vOut, g.vOutVirt, fn)
	case BITMAP:
		g.forNeighborsBitmap(r, fn)
	case DEDUP2:
		g.forNeighborsDedup2(r, fn)
	}
}

// ForInNeighbors calls fn exactly once for every logical in-neighbor of r.
// EXP and DEDUP-1 walk backward without a visited set (the unique-path
// guarantee holds in both directions); C-DUP and BITMAP deduplicate against
// the mark set — bitmaps mask forward duplicate paths only, and since BITMAP
// never removes a logical edge, backward physical reachability equals the
// logical in-neighbor set. DEDUP-2 graphs are symmetric, so in-neighbors
// equal out-neighbors.
func (g *Graph) ForInNeighbors(r int32, fn func(s int32) bool) {
	if !g.Alive(r) {
		return
	}
	switch g.mode {
	case EXP:
		g.scanDirect(r, g.inReal[r], fn)
	case DEDUP1:
		g.walkPlain(r, g.inReal[r], g.inVirt[r], g.vIn, g.vInVirt, fn)
	case DEDUP2:
		g.forNeighborsDedup2(r, fn)
	default: // CDUP, BITMAP
		g.walkMarked(r, g.inReal[r], g.inVirt[r], g.vIn, g.vInVirt, fn)
	}
}

// emit filters tombstones and self loops; returns false to stop iteration.
func (g *Graph) emit(r, t int32, fn func(int32) bool) bool {
	if g.dead[t] || (t == r && !g.SelfLoops) {
		return true
	}
	return fn(t)
}

// scanDirect emits a direct adjacency list; it returns false when fn stopped
// the iteration.
func (g *Graph) scanDirect(r int32, direct []int32, fn func(int32) bool) bool {
	for _, t := range direct {
		if !g.emit(r, t, fn) {
			return false
		}
	}
	return true
}

// walkMarked emits r's direct neighbors and everything reachable through the
// virtual nodes in first, each real node once. It serves both directions:
// vReal/vVirt are the virtual nodes' real and virtual adjacency on the far
// side (vOut/vOutVirt forward, vIn/vInVirt backward). Virtual nodes can be
// reached through multiple paths in multi-layer graphs, so there they are
// marked too, which bounds the traversal.
func (g *Graph) walkMarked(r int32, direct, first []int32, vReal, vVirt [][]int32, fn func(int32) bool) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.real.Reset(len(g.realID))
	for _, t := range direct {
		if sc.real.Mark(t) && !g.emit(r, t, fn) {
			return
		}
	}
	multi := g.multiLayer()
	if multi {
		sc.virt.Reset(len(g.vLayer))
	}
	sc.stack = append(sc.stack[:0], first...)
	for len(sc.stack) > 0 {
		v := sc.pop()
		if multi && !sc.virt.Mark(v) {
			continue
		}
		for _, t := range vReal[v] {
			if sc.real.Mark(t) && !g.emit(r, t, fn) {
				return
			}
		}
		sc.stack = append(sc.stack, vVirt[v]...)
	}
}

// walkPlain is walkMarked without the duplicate checks, for DEDUP-1.
func (g *Graph) walkPlain(r int32, direct, first []int32, vReal, vVirt [][]int32, fn func(int32) bool) {
	if !g.scanDirect(r, direct, fn) {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.stack = append(sc.stack[:0], first...)
	for len(sc.stack) > 0 {
		v := sc.pop()
		for _, t := range vReal[v] {
			if !g.emit(r, t, fn) {
				return
			}
		}
		sc.stack = append(sc.stack, vVirt[v]...)
	}
}

func (g *Graph) forNeighborsBitmap(r int32, fn func(int32) bool) {
	if !g.scanDirect(r, g.outReal[r], fn) {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// In multi-layer graphs the same virtual node may be physically
	// reachable via several upper-layer paths; the bitmap for (r, V) must
	// be applied once, so visited virtual nodes are marked.
	multi := g.multiLayer()
	if multi {
		sc.virt.Reset(len(g.vLayer))
	}
	sc.stack = append(sc.stack[:0], g.outVirt[r]...)
	for len(sc.stack) > 0 {
		v := sc.pop()
		if multi && !sc.virt.Mark(v) {
			continue
		}
		bmp, hasBmp := g.Bitmap(v, r)
		nOut := len(g.vOut[v])
		for i, t := range g.vOut[v] {
			if hasBmp && !bmp.Get(i) {
				continue
			}
			if !g.emit(r, t, fn) {
				return
			}
		}
		for i, w := range g.vOutVirt[v] {
			if hasBmp && bmp.Len() > nOut && !bmp.Get(nOut+i) {
				continue
			}
			sc.stack = append(sc.stack, w)
		}
	}
}

func (g *Graph) forNeighborsDedup2(r int32, fn func(int32) bool) {
	if !g.scanDirect(r, g.outReal[r], fn) {
		return
	}
	for _, v := range g.outVirt[r] {
		for _, t := range g.vOut[v] {
			if t == r {
				continue // u itself is a member of V
			}
			if !g.emit(r, t, fn) {
				return
			}
		}
		for _, w := range g.vUndir[v] {
			for _, t := range g.vOut[w] {
				if t == r {
					continue
				}
				if !g.emit(r, t, fn) {
					return
				}
			}
		}
	}
}

// NeighborsIdx returns the logical out-neighbors of r as a fresh slice.
func (g *Graph) NeighborsIdx(r int32) []int32 {
	var out []int32
	g.ForNeighbors(r, func(t int32) bool {
		out = append(out, t)
		return true
	})
	return out
}

// OutDegree returns the number of logical out-neighbors of r.
func (g *Graph) OutDegree(r int32) int {
	n := 0
	g.ForNeighbors(r, func(int32) bool { n++; return true })
	return n
}

// HasEdgeIdx reports whether the logical edge u -> w exists. Because no
// representation ever removes a logical edge — bitmaps and DEDUP surgery
// only remove redundant paths — physical forward reachability equals
// logical edge existence, so the check ignores bitmaps and mode-specific
// filtering except for DEDUP-2's 1-hop rule.
func (g *Graph) HasEdgeIdx(u, w int32) bool {
	if !g.Alive(u) || !g.Alive(w) {
		return false
	}
	if u == w && !g.SelfLoops {
		return false
	}
	return slices.Contains(g.outReal[u], w) || g.reachableViaVirtual(u, w)
}

// reachableViaVirtual reports whether w is reachable from u through at least
// one virtual path (ignoring direct edges): a forward DFS through virtual
// nodes with early exit, or DEDUP-2's 1-hop rule.
func (g *Graph) reachableViaVirtual(u, w int32) bool {
	if g.mode == DEDUP2 {
		for _, v := range g.outVirt[u] {
			if g.virtHasTarget(v, w) {
				return true
			}
			for _, x := range g.vUndir[v] {
				if g.virtHasTarget(x, w) {
					return true
				}
			}
		}
		return false
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	multi := g.multiLayer()
	if multi {
		sc.virt.Reset(len(g.vLayer))
	}
	sc.stack = append(sc.stack[:0], g.outVirt[u]...)
	for len(sc.stack) > 0 {
		v := sc.pop()
		if multi && !sc.virt.Mark(v) {
			continue
		}
		if g.virtHasTarget(v, w) {
			return true
		}
		sc.stack = append(sc.stack, g.vOutVirt[v]...)
	}
	return false
}

// virtHasTarget reports whether w is a real target of virtual node v. The
// auxiliary index the paper mentions is the sorted target list: while every
// list is known to be sorted (see vOutSorted) the probe is a binary search,
// otherwise a scan — a miss never pays for both.
func (g *Graph) virtHasTarget(v, w int32) bool {
	if g.vOutSorted {
		_, found := slices.BinarySearch(g.vOut[v], w)
		return found
	}
	return slices.Contains(g.vOut[v], w)
}

// ForEachReal calls fn for every live real index.
func (g *Graph) ForEachReal(fn func(r int32) bool) {
	for r := int32(0); int(r) < len(g.realID); r++ {
		if g.dead[r] {
			continue
		}
		if !fn(r) {
			return
		}
	}
}

// ForEachVirtual calls fn for every live virtual index.
func (g *Graph) ForEachVirtual(fn func(v int32) bool) {
	for v := int32(0); int(v) < len(g.vLayer); v++ {
		if g.vDead[v] {
			continue
		}
		if !fn(v) {
			return
		}
	}
}
