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
	in := len(g.vIn.row(v)) + len(g.vInVirt.row(v))
	out := len(g.vOut.row(v)) + len(g.vOutVirt.row(v))
	return in*out <= in+out+1
}

// expandVirtualNode removes virtual node v and connects every in-neighbor
// to every out-neighbor directly, preserving the path structure.
func (g *Graph) expandVirtualNode(v int32) {
	ins := append([]int32(nil), g.vIn.row(v)...)
	insV := append([]int32(nil), g.vInVirt.row(v)...)
	outs := append([]int32(nil), g.vOut.row(v)...)
	outsV := append([]int32(nil), g.vOutVirt.row(v)...)
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
			if g.vDead[v] || len(g.vOutVirt.row(v)) == 0 {
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
// The build counts, then fills. One ForNeighbors sweep appends each
// vertex's logical out-neighbors to a slab of chunks that are never
// copied, and counts in-degrees on the way. The out-arena is then one
// copy of the slab, and the in-arena is allocated at its exact size and
// filled by transposing the out-rows in ascending source order, the order
// in which appending edge by edge would fill it. Both arenas have every
// row at cap == len and no slack, and the build allocates per graph, not
// per vertex.
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
	n := len(ng.realID)
	inDeg := make([]int32, n)
	outRecs := make([]rowRec, n)
	var out slab
	var overflow bool
	collect := func(t int32) bool {
		nt := remap[t]
		out.push(nt)
		inDeg[nt]++
		if maxEdges > 0 && int64(out.n) > maxEdges {
			overflow = true
			return false
		}
		return true
	}
	g.ForEachReal(func(r int32) bool {
		start := out.n
		g.ForNeighbors(r, collect)
		d := uint32(out.n - start)
		outRecs[remap[r]] = rowRec{uint32(start), d, d}
		return !overflow
	})
	if overflow {
		return nil, ErrTooLarge
	}
	if out.n == 0 {
		return ng, nil
	}
	outs := make([]int32, 0, out.n)
	for _, c := range out.chunks {
		outs = append(outs, c...)
	}
	ng.outReal = adjacency{arena: outs, recs: outRecs}
	ins := adjacency{arena: make([]int32, out.n), recs: make([]rowRec, n)}
	off := uint32(0)
	for t, d := range inDeg {
		ins.recs[t] = rowRec{off, 0, uint32(d)}
		off += uint32(d)
	}
	for s, r := range outRecs {
		for _, t := range outs[r.off : r.off+r.len] {
			in := &ins.recs[t]
			ins.arena[in.off+in.len] = int32(s)
			in.len++
		}
	}
	ng.inReal = ins
	return ng, nil
}
