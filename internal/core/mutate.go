package core

import (
	"fmt"
	"slices"

	"graphgen/internal/markset"
)

// This file implements the mutating half of the Graph API (Section 3.4):
// AddVertex, DeleteVertex (lazy), AddEdge and DeleteEdge. The batch
// compaction that physically removes tombstoned vertices is in compact.go.

// AddVertexID adds an isolated real vertex with the given external ID.
func (g *Graph) AddVertexID(id int64) error {
	if _, ok := g.RealIndex(id); ok {
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
	r, ok := g.RealIndex(id)
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
// and replaced by direct edges to its remaining logical neighbors. DEDUP-2
// is symmetric, so there the undirected edge u <-> w goes: every removal
// and re-added edge covers both directions, and a virtual membership is
// detached both ways. The paper notes deletion there is cheap because a
// real node belongs to few virtual nodes.
func (g *Graph) DeleteEdgeIdx(u, w int32) error {
	if !g.Alive(u) || !g.Alive(w) {
		return fmt.Errorf("graphgen: DeleteEdge on missing vertex")
	}
	if !g.HasEdgeIdx(u, w) {
		return fmt.Errorf("graphgen: edge %d -> %d not found", g.realID[u], g.realID[w])
	}
	symmetric := g.mode == DEDUP2
	// The edge may be direct and ALSO exist through a virtual path in
	// C-DUP, in which case the detach below is still needed. A DEDUP-2
	// edge has exactly one realization.
	hadDirect := slices.Contains(g.outReal.row(u), w)
	viaVirtual := !hadDirect
	if !symmetric {
		viaVirtual = g.ReachableViaVirtual(u, w)
	}
	if hadDirect {
		g.RemoveDirectEdgeIdx(u, w)
		if symmetric {
			g.RemoveDirectEdgeIdx(w, u)
		}
	}
	if !viaVirtual {
		return nil
	}
	// Detach u's out side: collect the current logical neighborhood,
	// disconnect u from all its virtual nodes, and re-add every neighbor
	// except w as a direct edge (skipping ones already direct).
	neighbors := g.NeighborsIdx(u)
	for _, v := range append([]int32(nil), g.outVirt.row(u)...) {
		g.DisconnectRealToVirt(u, v)
		if symmetric {
			g.DisconnectVirtToReal(v, u)
		}
	}
	have := make(map[int32]struct{}, len(g.outReal.row(u)))
	for _, t := range g.outReal.row(u) {
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
		if symmetric {
			g.AddDirectEdgeIdx(t, u)
		}
	}
	return nil
}

// NormalizeDirects removes every direct edge that duplicates a virtual
// path (the logical edge survives through the virtual node) or an earlier
// direct edge; Step-6 expansion of two small virtual nodes that share two
// members adds that pair twice. On a single-layer graph it also removes
// every repeat of a real node's edge to a virtual node, which traversal
// would follow twice; multi-layer traversals mark virtual nodes, so there
// a repeat is left alone. Deduplication algorithms call it on their working
// copy so that these duplicates are eliminated up front and only
// duplication between distinct virtual paths remains for them to resolve.
// Returns the number of edges removed.
func (g *Graph) NormalizeDirects() int {
	removed := 0
	var seen markset.Set
	var row []int32
	single := !g.multiLayer()
	g.ForEachReal(func(u int32) bool {
		if single {
			seen.Reset(len(g.vLayer))
			row = append(row[:0], g.outVirt.row(u)...)
			for _, v := range row {
				if !seen.Mark(v) {
					g.DisconnectRealToVirt(u, v)
					removed++
				}
			}
		}
		seen.Reset(len(g.realID))
		row = append(row[:0], g.outReal.row(u)...)
		for _, w := range row {
			if !seen.Mark(w) || g.ReachableViaVirtual(u, w) {
				g.RemoveDirectEdgeIdx(u, w)
				removed++
			}
		}
		return true
	})
	return removed
}
