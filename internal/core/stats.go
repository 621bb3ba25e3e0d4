package core

// This file computes the size metrics reported throughout the paper's
// evaluation: representation (physical) edge counts, logical (expanded)
// edge counts, and estimated memory footprints.

// RepEdges returns the number of physical edges stored by the current
// representation: real->virtual, virtual->real, virtual->virtual (directed),
// direct real->real, plus DEDUP-2 undirected virtual-virtual edges (counted
// once). This is the "Edges" number of Figure 10 and Table 1.
func (g *Graph) RepEdges() int64 {
	n := g.outVirt.entries(g.dead) + g.outReal.entries(g.dead) +
		g.vOut.entries(g.vDead) + g.vOutVirt.entries(g.vDead)
	return n + g.vUndir.entries(g.vDead)/2
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

// MemBytes prices the heap footprint of the representation, mirroring
// the memory columns of Tables 3 and 4. It counts the per-slot node
// arrays (ID and tombstone per real slot, layer and tombstone per virtual
// slot) at their lengths; each adjacency kind at its arena's capacity,
// slack and spare room included, plus 12 B per row record (adj.go); the
// property columns (per key a string header and a set flag per slot, plus
// the value bytes); BITMAP's masks; and the vertex ID map at idMapEntry
// per entry.
func (g *Graph) MemBytes() int64 {
	const sliceHeader = 24
	b := int64(len(g.realID))*(8+1) + int64(len(g.vLayer))*(4+1)
	b += int64(len(g.realIdx)) * idMapEntry
	b += propBytes(g.props)
	for _, a := range g.realKinds() {
		b += a.bytes()
	}
	for _, a := range g.virtKinds() {
		b += a.bytes()
	}
	// Masks: two slice headers per virtual slot once the store exists,
	// then 4 B per origin and 8 B per word.
	b += int64(len(g.masks)) * 2 * sliceHeader
	for _, m := range g.masks {
		b += int64(len(m.origins))*4 + int64(len(m.words))*8
	}
	return b
}

// idMapEntry is the bytes per entry of the int64 -> int32 ID map at the Go
// runtime's average load: a swiss-table slot (key and index, aligned to
// the key) plus its control byte, over the ~5/8 of slots a map keeps
// filled (Go 1.24). The runtime does not report a map's capacity, so the
// map is the one estimated part of MemBytes.
const idMapEntry = (16 + 1) * 8 / 5

// AvgVirtualSize returns the average number of real targets per live virtual
// node (the "Avg Size" column of Table 2).
func (g *Graph) AvgVirtualSize() float64 {
	var sum, n int64
	g.ForEachVirtual(func(v int32) bool {
		sum += int64(len(g.vOut.row(v)))
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
		for _, s := range g.vIn.row(v) {
			for _, t := range g.vOut.row(v) {
				if s == t && !g.SelfLoops {
					continue
				}
				counts[pairKey(s, t)]++
			}
		}
		return true
	})
	g.ForEachReal(func(r int32) bool {
		for _, t := range g.outReal.row(r) {
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
