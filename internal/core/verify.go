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

// rawTraversalHasDup walks r's representation the way its mode's Neighbors
// does but WITHOUT any on-the-fly dedup, recording seen targets; it returns
// the first duplicated target index or none.
func (g *Graph) rawTraversalHasDup(r int32, seen map[int32]struct{}) int32 {
	check := func(t int32) int32 {
		if g.dead[t] || (t == r && !g.SelfLoops) {
			return none
		}
		if _, dup := seen[t]; dup {
			return t
		}
		seen[t] = struct{}{}
		return none
	}
	for _, t := range g.outReal[r] {
		if d := check(t); d != none {
			return d
		}
	}
	switch g.mode {
	case EXP:
		return none
	case DEDUP2:
		for _, v := range g.outVirt[r] {
			for _, t := range g.vOut[v] {
				if t == r {
					continue
				}
				if d := check(t); d != none {
					return d
				}
			}
			for _, w := range g.vUndir[v] {
				for _, t := range g.vOut[w] {
					if t == r {
						continue
					}
					if d := check(t); d != none {
						return d
					}
				}
			}
		}
		return none
	case BITMAP:
		// Traversal honoring bitmaps but with no real-node mark set.
		var seenVirt map[int32]struct{}
		if g.multiLayer() {
			seenVirt = make(map[int32]struct{}, 8)
		}
		var stack []int32
		stack = append(stack, g.outVirt[r]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seenVirt != nil {
				if _, dup := seenVirt[v]; dup {
					continue
				}
				seenVirt[v] = struct{}{}
			}
			bmp, hasBmp := g.Bitmap(v, r)
			nOut := len(g.vOut[v])
			for i, t := range g.vOut[v] {
				if hasBmp && !bmp.Get(i) {
					continue
				}
				if d := check(t); d != none {
					return d
				}
			}
			for i, w := range g.vOutVirt[v] {
				if hasBmp && bmp.Len() > nOut && !bmp.Get(nOut+i) {
					continue
				}
				stack = append(stack, w)
			}
		}
		return none
	default: // CDUP, DEDUP1: raw DFS
		var stack []int32
		stack = append(stack, g.outVirt[r]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range g.vOut[v] {
				if d := check(t); d != none {
					return d
				}
			}
			stack = append(stack, g.vOutVirt[v]...)
		}
		return none
	}
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
		for _, w := range g.vOutVirt[v] {
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
		m := make(map[int32]struct{}, len(g.vOut[v]))
		for _, t := range g.vOut[v] {
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
		for _, w := range g.vUndir[v] {
			if n := overlap(mv, g.vOut[w]); n > 0 {
				err = fmt.Errorf("adjacent virtual nodes %d and %d share %d members", v, w, n)
				return false
			}
		}
		// Virtual neighbors of v must be pairwise disjoint.
		for i, w1 := range g.vUndir[v] {
			m1 := memberSet(w1)
			for _, w2 := range g.vUndir[v][i+1:] {
				if n := overlap(m1, g.vOut[w2]); n > 0 {
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
