package core

import (
	"fmt"
	"slices"
)

// This file implements the mutating half of the Graph API (Section 3.4):
// AddVertex, DeleteVertex (lazy), AddEdge, DeleteEdge, and the batch
// compaction that physically removes tombstoned vertices.

// AddVertexID adds an isolated real vertex with the given external ID.
func (g *Graph) AddVertexID(id int64) error {
	if _, ok := g.realIdx[id]; ok {
		return fmt.Errorf("graphgen: vertex %d already exists", id)
	}
	g.AddRealNode(id)
	return nil
}

// DeleteVertexID logically removes the vertex with external ID id: it is
// dropped from the vertex index immediately and tombstoned, and physically
// removed later in batch by Compact (the paper's lazy deletion mechanism,
// Section 3.4, which avoids rebuilding the vertex index per deletion).
func (g *Graph) DeleteVertexID(id int64) error {
	r, ok := g.realIdx[id]
	if !ok {
		return fmt.Errorf("graphgen: vertex %d not found", id)
	}
	delete(g.realIdx, id)
	if !g.dead[r] {
		g.dead[r] = true
		g.numDead++
	}
	return nil
}

// DeletedFraction returns the fraction of real-node slots that are
// tombstoned; callers can use it to trigger Compact.
func (g *Graph) DeletedFraction() float64 {
	if len(g.realID) == 0 {
		return 0
	}
	return float64(g.numDead) / float64(len(g.realID))
}

// AddEdgeIdx adds the logical edge u -> w as a direct edge. It is
// idempotent: if the logical edge already exists (directly or through a
// virtual path — C-DUP included), nothing is added, so a later DeleteEdge
// removes the edge completely.
func (g *Graph) AddEdgeIdx(u, w int32) error {
	if !g.Alive(u) || !g.Alive(w) {
		return fmt.Errorf("graphgen: AddEdge on missing vertex")
	}
	if g.HasEdgeIdx(u, w) {
		return nil
	}
	g.AddDirectEdgeIdx(u, w)
	return nil
}

// DeleteEdgeIdx removes the logical edge u -> w while preserving every other
// logical edge. For a direct edge this is list surgery. For an edge realized
// through shared virtual nodes the operation is the "quite involved" case
// the paper describes: u's source side is detached from its virtual nodes
// and replaced by direct edges to its remaining logical neighbors.
func (g *Graph) DeleteEdgeIdx(u, w int32) error {
	if !g.Alive(u) || !g.Alive(w) {
		return fmt.Errorf("graphgen: DeleteEdge on missing vertex")
	}
	if !g.HasEdgeIdx(u, w) {
		return fmt.Errorf("graphgen: edge %d -> %d not found", g.realID[u], g.realID[w])
	}
	if g.mode == DEDUP2 {
		return g.deleteEdgeDedup2(u, w)
	}
	// Fast path: the edge is direct (it may ALSO exist through a virtual
	// path in C-DUP, in which case the slow path below is still needed).
	hadDirect := slices.Contains(g.outReal[u], w)
	viaVirtual := g.reachableViaVirtual(u, w)
	if hadDirect {
		g.RemoveDirectEdgeIdx(u, w)
	}
	if !viaVirtual {
		return nil
	}
	// Detach u's out side: collect the current logical neighborhood,
	// disconnect u from all its virtual nodes, and re-add every neighbor
	// except w as a direct edge (skipping ones already direct).
	neighbors := g.NeighborsIdx(u)
	for _, v := range append([]int32(nil), g.outVirt[u]...) {
		g.DisconnectRealToVirt(u, v)
	}
	have := make(map[int32]struct{}, len(g.outReal[u]))
	for _, t := range g.outReal[u] {
		have[t] = struct{}{}
	}
	for _, t := range neighbors {
		if t == w {
			continue
		}
		if _, ok := have[t]; ok {
			continue
		}
		have[t] = struct{}{}
		g.AddDirectEdgeIdx(u, t)
	}
	return nil
}

// deleteEdgeDedup2 removes the undirected logical edge u <-> w in a DEDUP-2
// graph. The representation is symmetric, so both directions go. The paper
// notes deletion here is cheap because a real node connects to few virtual
// nodes; we detach u from the virtual node realizing the edge and patch the
// lost connectivity with direct (undirected) edges.
func (g *Graph) deleteEdgeDedup2(u, w int32) error {
	// Direct edge case.
	for _, t := range g.outReal[u] {
		if t == w {
			g.RemoveDirectEdgeIdx(u, w)
			g.RemoveDirectEdgeIdx(w, u)
			return nil
		}
	}
	neighbors := g.NeighborsIdx(u)
	// Detach u from every virtual node it belongs to (membership = both
	// in and out edges), then re-add all former neighbors except w as
	// undirected direct edges.
	for _, v := range append([]int32(nil), g.outVirt[u]...) {
		g.DisconnectRealToVirt(u, v)
		g.DisconnectVirtToReal(v, u)
	}
	have := make(map[int32]struct{}, len(g.outReal[u]))
	for _, t := range g.outReal[u] {
		have[t] = struct{}{}
	}
	for _, t := range neighbors {
		if t == w {
			continue
		}
		if _, ok := have[t]; ok {
			continue
		}
		have[t] = struct{}{}
		g.AddDirectEdgeIdx(u, t)
		g.AddDirectEdgeIdx(t, u)
	}
	return nil
}

// NormalizeDirects removes every direct edge that duplicates a virtual
// path (the logical edge survives through the virtual node). Deduplication
// algorithms call it on their working copy so that direct-vs-virtual
// duplication is eliminated up front and only virtual-virtual duplication
// remains for them to resolve. Returns the number of edges removed.
func (g *Graph) NormalizeDirects() int {
	removed := 0
	g.ForEachReal(func(u int32) bool {
		for _, w := range append([]int32(nil), g.outReal[u]...) {
			if g.reachableViaVirtual(u, w) {
				g.RemoveDirectEdgeIdx(u, w)
				removed++
			}
		}
		return true
	})
	return removed
}

// Compact physically removes tombstoned real vertices: adjacency entries
// pointing at dead vertices are dropped and the dense index is rebuilt.
// This is the batched second half of lazy deletion.
func (g *Graph) Compact() {
	if g.numDead == 0 {
		return
	}
	// Remap old dense indices to new ones.
	remap := make([]int32, len(g.realID))
	var n int32
	for r := range g.realID {
		if g.dead[r] {
			remap[r] = none
		} else {
			remap[r] = n
			n++
		}
	}
	filter := func(s []int32) []int32 {
		out := s[:0]
		for _, e := range s {
			if remap[e] != none {
				out = append(out, remap[e])
			}
		}
		return out
	}
	// Virtual adjacency referencing real nodes.
	for v := range g.vLayer {
		if g.vDead[v] {
			continue
		}
		g.vIn[v] = filter(g.vIn[v])
		g.vOut[v] = filter(g.vOut[v])
		if g.bitmaps[v] != nil {
			// Bitmaps index positions in vOut, which just changed,
			// and are keyed by origin indices, which also changed.
			// Dropping them is safe for C-DUP semantics; BITMAP
			// graphs must be re-deduplicated after Compact.
			g.bitmaps[v] = nil
		}
	}
	// Real-node arrays.
	newID := make([]int64, 0, n)
	newProps := make([]map[string]string, 0, n)
	newOutVirt := make([][]int32, 0, n)
	newOutReal := make([][]int32, 0, n)
	newInVirt := make([][]int32, 0, n)
	newInReal := make([][]int32, 0, n)
	for r := range g.realID {
		if g.dead[r] {
			continue
		}
		newID = append(newID, g.realID[r])
		newProps = append(newProps, g.props[r])
		newOutVirt = append(newOutVirt, g.outVirt[r])
		newOutReal = append(newOutReal, filter(g.outReal[r]))
		newInVirt = append(newInVirt, g.inVirt[r])
		newInReal = append(newInReal, filter(g.inReal[r]))
	}
	g.realID, g.props = newID, newProps
	g.outVirt, g.outReal, g.inVirt, g.inReal = newOutVirt, newOutReal, newInVirt, newInReal
	g.dead = make([]bool, n)
	g.numDead = 0
	g.realIdx = make(map[int64]int32, n)
	for r, id := range g.realID {
		g.realIdx[id] = int32(r)
	}
	// Drop virtual nodes that lost all sources or targets.
	for v := int32(0); int(v) < len(g.vLayer); v++ {
		if g.vDead[v] {
			continue
		}
		if len(g.vIn[v])+len(g.vInVirt[v]) == 0 || len(g.vOut[v])+len(g.vOutVirt[v]) == 0 {
			if g.mode == DEDUP2 && len(g.vOut[v]) > 0 {
				continue // DEDUP-2 members are reachable via undirected hops
			}
			g.RemoveVirtualNode(v)
		}
	}
}
