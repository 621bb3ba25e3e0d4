package core

import "errors"

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
// direct in->out edges added) when in*out <= in+out+1. The candidates are
// the nodes the rule picks on the degrees before any expansion; expanding
// one node can change the degree of another, so each candidate is
// re-checked when its turn comes. Returns the number of virtual nodes
// expanded; their slots are dropped (compact.go).
//
// workers is ignored, and the pass is serial: a worker pool over the
// candidate scan timed within 0.2 % at 1 and 2 workers on a 2-vCPU Xeon.
// The parameter stays only while the benchmark harness (bench/) passes it.
func (g *Graph) PreprocessExpandSmall(workers int) int {
	var candidates []int32
	for v := int32(0); int(v) < len(g.vLayer); v++ {
		if !g.vDead[v] && g.inlinable(v) {
			candidates = append(candidates, v)
		}
	}
	expanded := 0
	for _, v := range candidates {
		if g.inlinable(v) {
			g.expandVirtualNode(v)
			expanded++
		}
	}
	g.compactVirtual()
	return expanded
}

// inlinable reports whether Step 6 expands virtual node v at its current
// degrees.
func (g *Graph) inlinable(v int32) bool {
	in := len(g.vIn[v]) + len(g.vInVirt[v])
	out := len(g.vOut[v]) + len(g.vOutVirt[v])
	return in*out <= in+out+1
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
// still equivalent, and ErrTooLarge is returned. Either way the expanded
// nodes' slots are dropped (compact.go).
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
			g.compactVirtual()
			return ErrTooLarge
		}
	}
	g.compactVirtual()
	for v := range g.vLayer {
		g.vLayer[v] = 1
	}
	g.layerHint = 1
	return nil
}

// Expand materializes the fully expanded graph (EXP). maxEdges bounds the
// number of expanded edges; 0 means unlimited. On overflow it returns
// ErrTooLarge, modelling the paper's infeasible-EXP cases.
//
// The build counts, then fills. One ForNeighbors sweep collects each
// vertex's logical out-neighbors into a reused buffer, stores them as an
// exactly sized out-row and counts in-degrees on the way. Each in-row is
// then allocated at its exact size and filled by transposing the out-rows
// in ascending source order, the order in which appending edge by edge
// would fill it. Every row has len == cap, and the graph holds two
// allocations per vertex with edges besides its per-graph arrays.
func (g *Graph) Expand(maxEdges int64) (*Graph, error) {
	ng := New(EXP)
	ng.SelfLoops = g.SelfLoops
	ng.Symmetric = g.Symmetric
	// remap takes a source index to its index in ng; tombstones are skipped
	// by ForEachReal and never looked up (ForNeighbors emits live nodes).
	remap := make([]int32, len(g.realID))
	ng.Grow(g.NumRealNodes())
	g.ForEachReal(func(r int32) bool {
		remap[r] = ng.AddRealNode(g.realID[r])
		return true
	})
	ng.CopyProperties(g, remap)
	inDeg := make([]int32, len(ng.realID))
	var row []int32
	var count int64
	var overflow bool
	collect := func(t int32) bool {
		nt := remap[t]
		row = append(row, nt)
		inDeg[nt]++
		count++
		if maxEdges > 0 && count > maxEdges {
			overflow = true
			return false
		}
		return true
	}
	g.ForEachReal(func(r int32) bool {
		row = row[:0]
		g.ForNeighbors(r, collect)
		if len(row) > 0 && !overflow {
			out := make([]int32, len(row))
			copy(out, row)
			ng.outReal[remap[r]] = out
		}
		return !overflow
	})
	if overflow {
		return nil, ErrTooLarge
	}
	for t, d := range inDeg {
		if d > 0 {
			ng.inReal[t] = make([]int32, 0, d)
		}
	}
	for s, out := range ng.outReal {
		for _, t := range out {
			ng.inReal[t] = append(ng.inReal[t], int32(s))
		}
	}
	return ng, nil
}
