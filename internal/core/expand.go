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
//
// The scan's pool does not pay: full extractions timed within 0.2 % at 1
// and 2 workers on a 2-vCPU Xeon. It stays only because the benchmark
// harness (bench/) passes a worker count to this method.
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
