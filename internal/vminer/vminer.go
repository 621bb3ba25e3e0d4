// Package vminer implements the Virtual Node Miner baseline of Buehrer &
// Chellapilla (WSDM'08) that the paper compares against in Section 6.1.1:
// a pattern-mining graph compressor that finds bicliques (node groups A, B
// with every a->b edge present), replaces each with a virtual node
// (a -> V -> b), and iterates over multiple passes.
//
// Faithful to the comparison's point, VMiner operates on the EXPANDED graph:
// it cannot exploit the implicit condensed structure in the database, so a
// C-DUP input must be expanded first (Mine does this), which is exactly why
// it is infeasible for the paper's larger datasets.
package vminer

import (
	"sort"

	"graphgen/internal/core"
)

// Options tunes the miner.
type Options struct {
	// Passes bounds the number of mining passes (paper-guided default 4).
	Passes int
	// MinShingles is the number of min-hash shingles used to cluster
	// nodes with similar neighborhoods (default 2).
	MinShingles int
	// MaxEdges guards the expansion step; 0 means unlimited.
	MaxEdges int64
}

// Stats reports a mining run.
type Stats struct {
	// ExpandedEdges is the size of the expanded graph VMiner had to
	// materialize before compressing.
	ExpandedEdges int64
	// VirtualNodesCreated counts mined bicliques.
	VirtualNodesCreated int
	// EdgesSaved is the reduction in physical edges.
	EdgesSaved int64
}

// Mine expands the input graph and compresses it by biclique mining. The
// result is duplicate-free (DEDUP-1 semantics: at most one path per pair).
func Mine(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	if opts.Passes <= 0 {
		opts.Passes = 4
	}
	if opts.MinShingles <= 0 {
		opts.MinShingles = 2
	}
	var st Stats
	exp, err := g.Expand(opts.MaxEdges)
	if err != nil {
		return nil, st, err
	}
	st.ExpandedEdges = exp.RepEdges()
	for pass := 0; pass < opts.Passes; pass++ {
		if minePass(exp, &st, int64(pass)) == 0 {
			break
		}
	}
	exp.Pack()
	exp.SetMode(core.DEDUP1)
	exp.SortAdjacency()
	st.EdgesSaved = st.ExpandedEdges - exp.RepEdges()
	return exp, st, nil
}

// minePass clusters nodes by min-hash shingles of their direct out-neighbor
// lists and extracts one biclique per cluster when profitable. Returns the
// number of virtual nodes created.
func minePass(exp *core.Graph, st *Stats, salt int64) int {
	clusters := make(map[uint64][]int32)
	exp.ForEachReal(func(r int32) bool {
		outs := exp.OutDirect(r)
		if len(outs) < 2 {
			return true
		}
		sig := shingleSignature(outs, salt)
		clusters[sig] = append(clusters[sig], r)
		return true
	})
	// Deterministic cluster order.
	sigs := make([]uint64, 0, len(clusters))
	for s := range clusters {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })

	created := 0
	for _, sig := range sigs {
		group := clusters[sig]
		if len(group) < 2 {
			continue
		}
		// Biclique candidate: sources = group, targets = intersection
		// of their direct out-neighbors.
		inter := append([]int32(nil), exp.OutDirect(group[0])...)
		for _, r := range group[1:] {
			inter = intersect(inter, exp.OutDirect(r))
			if len(inter) < 2 {
				break
			}
		}
		if len(inter) < 2 {
			continue
		}
		nA, nB := len(group), len(inter)
		// Profitable when |A|*|B| direct edges collapse into
		// |A| + |B| virtual edges.
		if nA*nB <= nA+nB+1 {
			continue
		}
		v := exp.AddVirtualNode(1)
		for _, a := range group {
			for _, b := range inter {
				exp.RemoveDirectEdgeIdx(a, b)
			}
			exp.ConnectRealToVirt(a, v)
		}
		for _, b := range inter {
			exp.ConnectVirtToReal(v, b)
		}
		created++
		st.VirtualNodesCreated++
	}
	return created
}

// shingleSignature computes a small min-hash over the neighbor list; nodes
// sharing many neighbors likely collide.
func shingleSignature(outs []int32, salt int64) uint64 {
	var m1, m2 uint64 = 1<<64 - 1, 1<<64 - 1
	for _, t := range outs {
		h := mix(uint64(t) + uint64(salt)*0x9e3779b97f4a7c15)
		if h < m1 {
			m1 = h
		}
		h2 := mix(h ^ 0xbf58476d1ce4e5b9)
		if h2 < m2 {
			m2 = h2
		}
	}
	return m1<<32 ^ m2
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func intersect(a, b []int32) []int32 {
	set := make(map[int32]struct{}, len(b))
	for _, x := range b {
		set[x] = struct{}{}
	}
	out := a[:0]
	for _, x := range a {
		if _, ok := set[x]; ok {
			out = append(out, x)
		}
	}
	return out
}
