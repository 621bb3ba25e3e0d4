package core

// This file computes the size metrics reported throughout the paper's
// evaluation: representation (physical) edge counts, logical (expanded)
// edge counts, and estimated memory footprints.

// RepEdges returns the number of physical edges stored by the current
// representation: real->virtual, virtual->real, virtual->virtual (directed),
// direct real->real, plus DEDUP-2 undirected virtual-virtual edges (counted
// once). This is the "Edges" number of Figure 10 and Table 1.
func (g *Graph) RepEdges() int64 {
	var n int64
	for r := range g.realID {
		if g.dead[r] {
			continue
		}
		n += int64(len(g.outVirt[r])) + int64(len(g.outReal[r]))
	}
	var undir int64
	for v := range g.vLayer {
		if g.vDead[v] {
			continue
		}
		n += int64(len(g.vOut[v])) + int64(len(g.vOutVirt[v]))
		undir += int64(len(g.vUndir[v]))
	}
	return n + undir/2
}

// LogicalEdges returns the number of edges of the expanded graph, computed
// by iterating every live real node's deduplicated neighborhood. The paper
// obtains this count as a free side effect of its deduplication algorithms;
// here it doubles as a correctness oracle in tests.
func (g *Graph) LogicalEdges() int64 {
	var n int64
	g.ForEachReal(func(r int32) bool {
		g.ForNeighbors(r, func(int32) bool { n++; return true })
		return true
	})
	return n
}

// TotalNodes returns live real + virtual node counts (the "Nodes" bars of
// Figure 10).
func (g *Graph) TotalNodes() int { return g.NumRealNodes() + g.NumVirtualNodes() }

// MemBytes estimates the heap footprint of the representation, mirroring
// the memory columns of Tables 3 and 4. It accounts for node arrays, the
// vertex ID map, adjacency slices, the property columns (per key a string
// header and a set flag per slot, plus the value bytes), and BITMAP's
// masks.
// Lengths are counted, not capacities.
func (g *Graph) MemBytes() int64 {
	const (
		sliceHeader = 24
		mapEntry    = 48 // rough per-entry cost of a small Go map
	)
	var b int64
	// Real node arrays: id (8), dead (1), 4 slice headers + elements.
	b += int64(len(g.realID)) * (8 + 1 + 4*sliceHeader)
	for r := range g.realID {
		b += int64(len(g.outVirt[r])+len(g.outReal[r])+len(g.inVirt[r])+len(g.inReal[r])) * 4
	}
	b += int64(len(g.realIdx)) * mapEntry
	b += propBytes(g.props)
	// Virtual node arrays.
	b += int64(len(g.vLayer)) * (4 + 1 + 5*sliceHeader)
	for v := range g.vLayer {
		b += int64(len(g.vIn[v])+len(g.vInVirt[v])+len(g.vOut[v])+len(g.vOutVirt[v])+len(g.vUndir[v])) * 4
	}
	// Masks: two slice headers per virtual slot once the store exists,
	// then 4 B per origin and 8 B per word.
	b += int64(len(g.masks)) * 2 * sliceHeader
	for _, m := range g.masks {
		b += int64(len(m.origins))*4 + int64(len(m.words))*8
	}
	return b
}

// AvgVirtualSize returns the average number of real targets per live virtual
// node (the "Avg Size" column of Table 2).
func (g *Graph) AvgVirtualSize() float64 {
	var sum, n int64
	g.ForEachVirtual(func(v int32) bool {
		sum += int64(len(g.vOut[v]))
		n++
		return true
	})
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// DuplicationStats reports, over all ordered real pairs with at least one
// path, the total number of physical paths and the number of duplicated
// pairs (pairs with more than one path). Single-layer graphs only; used by
// dedup orderings and by tests.
func (g *Graph) DuplicationStats() (paths int64, dupPairs int64) {
	counts := make(map[int64]int32)
	g.ForEachVirtual(func(v int32) bool {
		for _, s := range g.vIn[v] {
			for _, t := range g.vOut[v] {
				if s == t && !g.SelfLoops {
					continue
				}
				counts[pairKey(s, t)]++
			}
		}
		return true
	})
	g.ForEachReal(func(r int32) bool {
		for _, t := range g.outReal[r] {
			if r == t && !g.SelfLoops {
				continue
			}
			counts[pairKey(r, t)]++
		}
		return true
	})
	for _, c := range counts {
		paths += int64(c)
		if c > 1 {
			dupPairs++
		}
	}
	return paths, dupPairs
}

func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }
