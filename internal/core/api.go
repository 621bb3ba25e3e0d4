package core

import (
	"fmt"

	"graphgen/internal/graphapi"
)

// This file adapts the dense-index core to the external-ID graph API of
// Section 3.4. *Graph satisfies graphapi.PropertyGraph.

var _ graphapi.PropertyGraph = (*Graph)(nil)

// Vertices returns an iterator over the external IDs of all live vertices.
func (g *Graph) Vertices() graphapi.Iterator {
	return &vertexIterator{g: g}
}

type vertexIterator struct {
	g   *Graph
	pos int32
}

func (it *vertexIterator) Next() (graphapi.NodeID, bool) {
	for int(it.pos) < len(it.g.realID) {
		r := it.pos
		it.pos++
		if !it.g.dead[r] {
			return it.g.realID[r], true
		}
	}
	return 0, false
}

// Neighbors returns an iterator over the logical out-neighbors of vertex v.
// The iteration is materialized eagerly: the paper's lazy iterators save
// memory during partial scans, but they would have to hold on to the
// traversal's working set between calls to Next. The paper's Section 4.3
// names that set — a hash set per call, and its garbage — as C-DUP's
// dominant cost; here it is a pooled mark set (see neighbors.go) borrowed
// only while ForNeighbors runs, so the slice of IDs is the one allocation.
func (g *Graph) Neighbors(v graphapi.NodeID) graphapi.Iterator {
	r, ok := g.RealIndex(v)
	if !ok {
		return graphapi.NewSliceIterator(nil)
	}
	ids := make([]graphapi.NodeID, 0, 8)
	g.ForNeighbors(r, func(t int32) bool {
		ids = append(ids, g.realID[t])
		return true
	})
	return graphapi.NewSliceIterator(ids)
}

// ExistsEdge reports whether the logical edge u -> v exists.
func (g *Graph) ExistsEdge(u, v graphapi.NodeID) bool {
	ui, ok := g.RealIndex(u)
	if !ok {
		return false
	}
	vi, ok := g.RealIndex(v)
	if !ok {
		return false
	}
	return g.HasEdgeIdx(ui, vi)
}

// AddVertex implements graphapi.Graph.
func (g *Graph) AddVertex(v graphapi.NodeID) error { return g.AddVertexID(v) }

// DeleteVertex implements graphapi.Graph.
func (g *Graph) DeleteVertex(v graphapi.NodeID) error { return g.DeleteVertexID(v) }

// AddEdge implements graphapi.Graph.
func (g *Graph) AddEdge(u, v graphapi.NodeID) error {
	ui, ok := g.RealIndex(u)
	if !ok {
		return fmt.Errorf("graphgen: vertex %d not found", u)
	}
	vi, ok := g.RealIndex(v)
	if !ok {
		return fmt.Errorf("graphgen: vertex %d not found", v)
	}
	return g.AddEdgeIdx(ui, vi)
}

// DeleteEdge implements graphapi.Graph.
func (g *Graph) DeleteEdge(u, v graphapi.NodeID) error {
	ui, ok := g.RealIndex(u)
	if !ok {
		return fmt.Errorf("graphgen: vertex %d not found", u)
	}
	vi, ok := g.RealIndex(v)
	if !ok {
		return fmt.Errorf("graphgen: vertex %d not found", v)
	}
	return g.DeleteEdgeIdx(ui, vi)
}

// NumVertices implements graphapi.Graph.
func (g *Graph) NumVertices() int { return g.NumRealNodes() }

// PropertyOf returns the named property of vertex v by external ID.
func (g *Graph) PropertyOf(v graphapi.NodeID, key string) (string, bool) {
	r, ok := g.RealIndex(v)
	if !ok {
		return "", false
	}
	return g.Property(r, key)
}

// SetPropertyOf sets the named property of vertex v by external ID.
func (g *Graph) SetPropertyOf(v graphapi.NodeID, key, value string) error {
	r, ok := g.RealIndex(v)
	if !ok {
		return fmt.Errorf("graphgen: vertex %d not found", v)
	}
	g.SetProperty(r, key, value)
	return nil
}
