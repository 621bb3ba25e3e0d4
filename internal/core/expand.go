package core

import (
	"errors"

	"graphgen/internal/parallel"
)

// This file implements (a) the Step-6 preprocessing of Section 4.2 — expand
// every virtual node whose expansion does not increase the edge count
// meaningfully — and (b) full expansion into the EXP representation, with a
// memory guard standing in for the paper's out-of-memory DNF cases.

// ErrTooLarge is returned when expansion would exceed the configured edge
// budget. It models the paper's "did not finish / > 64GB" outcomes for EXP
// on dense datasets (Table 3).
var ErrTooLarge = errors.New("graphgen: expanded graph exceeds the memory budget")

// PreprocessExpandSmall applies the paper's preprocessing rule: a virtual
// node V with in incoming and out outgoing edges is expanded (removed, with
// direct in->out edges added) when in*out <= in+out+1. The scan over virtual
// nodes is parallelized across workers; mutations are applied serially to
// keep adjacency surgery race-free (the paper notes its multi-threaded
// implementation needed non-trivial concurrency control for the same
// reason). Returns the number of virtual nodes expanded.
func (g *Graph) PreprocessExpandSmall(workers int) int {
	// Parallel phase: decide which virtual nodes qualify.
	n := len(g.vLayer)
	candidates := make([]bool, n)
	parallel.Run(n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if g.vDead[v] {
				continue
			}
			in := len(g.vIn[v]) + len(g.vInVirt[v])
			out := len(g.vOut[v]) + len(g.vOutVirt[v])
			if in*out <= in+out+1 {
				candidates[v] = true
			}
		}
	})
	// Serial phase: apply the expansions. Expanding one node can change
	// the degree of another, so each candidate is re-checked.
	expanded := 0
	for v := int32(0); int(v) < n; v++ {
		if !candidates[v] || g.vDead[v] {
			continue
		}
		in := len(g.vIn[v]) + len(g.vInVirt[v])
		out := len(g.vOut[v]) + len(g.vOutVirt[v])
		if in*out > in+out+1 {
			continue
		}
		g.expandVirtualNode(v)
		expanded++
	}
	return expanded
}

// expandVirtualNode removes virtual node v and connects every in-neighbor
// to every out-neighbor directly, preserving the path structure.
func (g *Graph) expandVirtualNode(v int32) {
	ins := append([]int32(nil), g.vIn[v]...)
	insV := append([]int32(nil), g.vInVirt[v]...)
	outs := append([]int32(nil), g.vOut[v]...)
	outsV := append([]int32(nil), g.vOutVirt[v]...)
	g.RemoveVirtualNode(v)
	for _, s := range ins {
		for _, t := range outs {
			g.AddDirectEdgeIdx(s, t)
		}
		for _, w := range outsV {
			g.ConnectRealToVirt(s, w)
		}
	}
	for _, sv := range insV {
		for _, t := range outs {
			g.ConnectVirtToReal(sv, t)
		}
		for _, w := range outsV {
			g.ConnectVirtToVirt(sv, w)
		}
	}
}

// FlattenToSingleLayer converts a multi-layer condensed graph into an
// equivalent single-layer one by expanding every virtual node that has
// virtual out-neighbors, leaving only the final (penultimate-to-target)
// layer — the conversion Section 5.2.2 suggests before running the
// single-layer deduplication algorithms. maxEdges bounds the growth
// (0 = unlimited); on overflow the graph is left partially flattened but
// still equivalent, and ErrTooLarge is returned.
func (g *Graph) FlattenToSingleLayer(maxEdges int64) error {
	for {
		expanded := false
		for v := int32(0); int(v) < len(g.vLayer); v++ {
			if g.vDead[v] || len(g.vOutVirt[v]) == 0 {
				continue
			}
			g.expandVirtualNode(v)
			expanded = true
		}
		if !expanded {
			break
		}
		if maxEdges > 0 && g.RepEdges() > maxEdges {
			return ErrTooLarge
		}
	}
	for v := int32(0); int(v) < len(g.vLayer); v++ {
		if !g.vDead[v] {
			g.vLayer[v] = 1
		}
	}
	g.layerHint = 1
	return nil
}

// ExpandedEdgeCount computes the number of edges the EXP representation
// would have, without materializing it. The paper computes this for free as
// a side effect of deduplication and uses it to decide whether to expand.
func (g *Graph) ExpandedEdgeCount() int64 { return g.LogicalEdges() }

// Expand materializes the fully expanded graph (EXP). maxEdges bounds the
// number of expanded edges; 0 means unlimited. On overflow it returns
// ErrTooLarge, modelling the paper's infeasible-EXP cases.
func (g *Graph) Expand(maxEdges int64) (*Graph, error) {
	ng := New(EXP)
	ng.SelfLoops = g.SelfLoops
	ng.Symmetric = g.Symmetric
	// remap takes a source index to its index in ng; tombstones are skipped
	// by ForEachReal and never looked up (ForNeighbors emits live nodes).
	remap := make([]int32, len(g.realID))
	g.ForEachReal(func(r int32) bool {
		nr := ng.AddRealNode(g.realID[r])
		remap[r] = nr
		for k, v := range g.props[r] {
			ng.SetProperty(nr, k, v)
		}
		return true
	})
	var count int64
	var overflow bool
	g.ForEachReal(func(r int32) bool {
		nr := remap[r]
		g.ForNeighbors(r, func(t int32) bool {
			ng.AddDirectEdgeIdx(nr, remap[t])
			count++
			if maxEdges > 0 && count > maxEdges {
				overflow = true
				return false
			}
			return true
		})
		return !overflow
	})
	if overflow {
		return nil, ErrTooLarge
	}
	return ng, nil
}
