package core

import "fmt"

// This file contains invariant checkers used by tests and by the dedup
// constructors to validate that a representation's contract holds.

// VerifyNoDuplicates checks the deduplicated-representation contract: plain
// physical traversal (ignoring the C-DUP mark set) reaches every logical
// neighbor of every real node exactly once. It must hold for EXP, DEDUP-1,
// DEDUP-2, and BITMAP graphs, and typically fails for raw C-DUP.
func (g *Graph) VerifyNoDuplicates() error {
	var err error
	g.ForEachReal(func(r int32) bool {
		seen := make(map[int32]struct{})
		dup := g.rawTraversalHasDup(r, seen)
		if dup != none {
			err = fmt.Errorf("duplicate neighbor %d of node %d in %s graph",
				g.realID[dup], g.realID[r], g.mode)
			return false
		}
		return true
	})
	return err
}

// rawTraversalHasDup walks r with its mode's own walker minus the C-DUP
// mark set (C-DUP takes DEDUP-1's plain DFS), recording seen targets; it
// returns the first duplicated target index or none.
func (g *Graph) rawTraversalHasDup(r int32, seen map[int32]struct{}) int32 {
	dup := none
	visit := func(t int32) bool {
		if _, ok := seen[t]; ok {
			dup = t
			return false
		}
		seen[t] = struct{}{}
		return true
	}
	switch g.mode {
	case EXP:
		g.scanDirect(r, g.outReal.row(r), visit)
	case BITMAP:
		g.forNeighborsBitmap(r, visit)
	case DEDUP2:
		g.forNeighborsDedup2(r, visit)
	default: // CDUP, DEDUP1
		g.walkPlain(r, g.outReal.row(r), g.outVirt.row(r), &g.vOut, &g.vOutVirt, visit)
	}
	return dup
}

// EdgeSet returns the logical edge set as a map of packed (src,dst) dense
// index pairs. Tests use it to assert cross-representation equivalence.
func (g *Graph) EdgeSet() map[int64]struct{} {
	set := make(map[int64]struct{})
	g.ForEachReal(func(r int32) bool {
		g.ForNeighbors(r, func(t int32) bool {
			set[pairKey(r, t)] = struct{}{}
			return true
		})
		return true
	})
	return set
}

// EdgeSetByID returns the logical edge set keyed by external (srcID, dstID)
// pairs, comparable across graphs with different dense layouts.
func (g *Graph) EdgeSetByID() map[[2]int64]struct{} {
	set := make(map[[2]int64]struct{})
	g.ForEachReal(func(r int32) bool {
		g.ForNeighbors(r, func(t int32) bool {
			set[[2]int64{g.realID[r], g.realID[t]}] = struct{}{}
			return true
		})
		return true
	})
	return set
}

// VerifyDAG checks condition (2) of the condensed-representation definition:
// the virtual-node subgraph is acyclic (real nodes cannot participate in
// cycles because sources have no in-edges and targets no out-edges).
func (g *Graph) VerifyDAG() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(g.vLayer))
	var visit func(v int32) error
	visit = func(v int32) error {
		color[v] = gray
		for _, w := range g.vOutVirt.row(v) {
			switch color[w] {
			case gray:
				return fmt.Errorf("cycle through virtual node %d", w)
			case white:
				if err := visit(w); err != nil {
					return err
				}
			}
		}
		color[v] = black
		return nil
	}
	for v := int32(0); int(v) < len(g.vLayer); v++ {
		if g.vDead[v] || color[v] != white {
			continue
		}
		if err := visit(v); err != nil {
			return err
		}
	}
	return nil
}

// VerifyDedup2Invariants checks the DEDUP-2 structural invariants from
// Appendix B: (1) any two virtual nodes share at most one member, with
// adjacent (undirected-edge-connected) virtual nodes sharing none, and
// (2) the virtual neighbors of any virtual node are pairwise disjoint.
func (g *Graph) VerifyDedup2Invariants() error {
	memberSet := func(v int32) map[int32]struct{} {
		m := make(map[int32]struct{}, len(g.vOut.row(v)))
		for _, t := range g.vOut.row(v) {
			m[t] = struct{}{}
		}
		return m
	}
	overlap := func(a map[int32]struct{}, b []int32) int {
		n := 0
		for _, t := range b {
			if _, ok := a[t]; ok {
				n++
			}
		}
		return n
	}
	var err error
	g.ForEachVirtual(func(v int32) bool {
		mv := memberSet(v)
		// Adjacent virtual nodes must be member-disjoint.
		for _, w := range g.vUndir.row(v) {
			if n := overlap(mv, g.vOut.row(w)); n > 0 {
				err = fmt.Errorf("adjacent virtual nodes %d and %d share %d members", v, w, n)
				return false
			}
		}
		// Virtual neighbors of v must be pairwise disjoint.
		for i, w1 := range g.vUndir.row(v) {
			m1 := memberSet(w1)
			for _, w2 := range g.vUndir.row(v)[i+1:] {
				if n := overlap(m1, g.vOut.row(w2)); n > 0 {
					err = fmt.Errorf("virtual neighbors %d,%d of %d share %d members", w1, w2, v, n)
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return g.VerifyNoDuplicates()
}

// VerifyLayout checks the adjacency storage of every kind (adj.go): one
// row record per slot, or none for a kind that never held an entry; every
// row inside its arena and within its capacity; no two rows sharing arena
// space; the slack equal to the arena's length minus the rows'
// capacities, and at most half the arena plus a constant.
func (g *Graph) VerifyLayout() error {
	names := [...]string{"outVirt", "outReal", "inVirt", "inReal", "vIn", "vInVirt", "vOut", "vOutVirt", "vUndir"}
	rk, vk := g.realKinds(), g.virtKinds()
	kinds := append(rk[:], vk[:]...)
	for i, a := range kinds {
		slots := len(g.realID)
		if i >= 4 {
			slots = len(g.vLayer)
		}
		if err := a.verify(slots); err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
	}
	return nil
}
