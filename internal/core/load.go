package core

import "slices"

// LoadDedup2 writes a finished DEDUP-2 structure into g, which must hold
// real nodes and nothing else: no edges and no virtual nodes. It creates nv
// virtual nodes; node(v) returns virtual node v's member set (real
// indices, each both a source and a target of v) and its undirected
// neighbors, and is called twice per node, in ascending order, once to
// count and once to fill. Real node r gets the direct neighbors direct[r]
// in both directions, so len(direct) is at most NumRealSlots.
//
// The build counts, then fills, like Expand: every row is cut at its exact
// size from one backing array, so each has len == cap and a later append
// to it reallocates instead of writing into a neighbour. Virtual rows keep
// the order given; a real node's virtual rows list its virtual nodes in
// ascending order, the order in which adding members node by node would
// fill them. The slices are copied, not retained. The graph has no
// tombstoned virtual slot.
func (g *Graph) LoadDedup2(nv int, node func(v int32) (members, undir []int32), direct [][]int32) {
	if len(g.vLayer) > 0 {
		panic("core: LoadDedup2 on a graph that already has virtual nodes")
	}
	deg := make([]int32, len(g.realID))
	total := 0
	for v := int32(0); int(v) < nv; v++ {
		members, undir := node(v)
		total += 4*len(members) + len(undir) // vIn, vOut, outVirt, inVirt; vUndir
		for _, r := range members {
			deg[r]++
		}
	}
	for _, s := range direct {
		total += 2 * len(s)
	}
	arena := make([]int32, total)
	take := func(s []int32) []int32 {
		if len(s) == 0 {
			return nil
		}
		row := arena[:len(s):len(s)]
		arena = arena[len(s):]
		copy(row, s)
		return row
	}

	g.vLayer = make([]int32, nv)
	g.vIn = make([][]int32, nv)
	g.vInVirt = make([][]int32, nv)
	g.vOut = make([][]int32, nv)
	g.vOutVirt = make([][]int32, nv)
	g.vDead = make([]bool, nv)
	g.vUndir = make([][]int32, nv)
	g.vOutSorted = true
	for v := int32(0); int(v) < nv; v++ {
		members, undir := node(v)
		g.vLayer[v] = 1
		g.vOut[v] = take(members)
		g.vIn[v] = take(members)
		g.vUndir[v] = take(undir)
		if !slices.IsSorted(members) {
			g.vOutSorted = false
		}
	}
	if nv > 0 {
		g.layerHint = 1
	}
	for r, d := range deg {
		if d > 0 {
			g.outVirt[r] = arena[:0:d]
			arena = arena[d:]
		}
	}
	for v, members := range g.vOut {
		for _, r := range members {
			g.outVirt[r] = append(g.outVirt[r], int32(v))
		}
	}
	for r := range deg {
		g.inVirt[r] = take(g.outVirt[r])
	}
	for r, s := range direct {
		g.outReal[r] = take(s)
		g.inReal[r] = take(s)
	}
}
