// Package datagen generates the evaluation datasets of Section 6 and
// Appendix C: a synthetic condensed-graph generator in the spirit of the
// paper's Barabási–Albert-flavoured Appendix C.1 algorithm, and relational
// database generators that stand in for the real DBLP, IMDB, TPC-H, and
// UNIV datasets (same schemas, scaled cardinalities, skewed membership
// distributions), plus the selectivity-controlled Layered_*/Single_*
// datasets of Appendix C.2. All generators are seeded and deterministic.
package datagen

import (
	"math/rand"
	"sort"

	"graphgen/internal/core"
)

// CondensedConfig parameterizes the synthetic condensed-graph generator.
type CondensedConfig struct {
	Seed int64
	// RealNodes and VirtualNodes set the node counts (n1 and n2 in
	// Appendix C.1).
	RealNodes, VirtualNodes int
	// MeanSize and StdDev define the normal distribution virtual-node
	// sizes are drawn from.
	MeanSize, StdDev float64
}

// Condensed generates a single-layer symmetric condensed graph following
// Appendix C.1: virtual-node sizes are drawn from a normal distribution,
// 15% of the virtual nodes are filled uniformly at random, and the rest use
// preferential attachment — members are drawn from the neighborhood of an
// anchor real node with probability proportional to the square of their
// degree, which preserves the local densities of real-world networks that
// plain preferential attachment loses. Larger virtual nodes are split
// before assignment and re-merged afterwards, letting the two halves pick
// correlated but distinct neighborhoods.
func Condensed(cfg CondensedConfig) *core.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := core.New(core.CDUP)
	g.Symmetric = true
	n := cfg.RealNodes
	for i := 0; i < n; i++ {
		g.AddRealNode(int64(i + 1))
	}
	// degree tracks virtual memberships per real node for the
	// preferential choices; degreeTotal is the sum of degree+1.
	degree := make([]int, n)
	degreeTotal := n

	sampleSize := func() int {
		s := int(rng.NormFloat64()*cfg.StdDev + cfg.MeanSize)
		if s < 2 {
			s = 2
		}
		if s > n {
			s = n
		}
		return s
	}

	// Step 1-2: sizes, with large nodes split into two halves.
	type vspec struct {
		size      int
		fromSplit bool
		mergeWith int // index of the sibling half, or -1
	}
	var specs []vspec
	for v := 0; v < cfg.VirtualNodes; v++ {
		size := sampleSize()
		splitProb := float64(size) / (cfg.MeanSize * 4)
		if size >= 4 && rng.Float64() < splitProb {
			half := size / 2
			specs = append(specs, vspec{size: half, fromSplit: true, mergeWith: len(specs) + 1})
			specs = append(specs, vspec{size: size - half, fromSplit: true, mergeWith: -1})
		} else {
			specs = append(specs, vspec{size: size, mergeWith: -1})
		}
	}

	assignRandom := func(members map[int32]struct{}, size int) {
		for len(members) < size {
			members[int32(rng.Intn(n))] = struct{}{}
		}
	}

	// Step 3: initial batch of ~15% random virtual nodes to bootstrap
	// degrees; Step 4: preferential attachment for the rest.
	bootstrap := len(specs) * 15 / 100
	if bootstrap == 0 {
		bootstrap = 1
	}
	memberSets := make([]map[int32]struct{}, len(specs))
	for i, spec := range specs {
		members := make(map[int32]struct{}, spec.size)
		switch {
		case i < bootstrap:
			assignRandom(members, spec.size)
		case spec.fromSplit && rng.Float64() < 0.35:
			assignRandom(members, spec.size)
		default:
			// Anchor on a real node weighted by degree, then fill
			// from its 2-hop membership neighborhood weighted by
			// degree squared.
			anchor := pickWeighted(rng, degree, degreeTotal)
			members[int32(anchor)] = struct{}{}
			cands := neighborhood(memberSets[:i], degree, int32(anchor))
			for len(members) < spec.size && len(cands) > 0 {
				k := pickWeightedSquared(rng, cands, degree)
				members[cands[k]] = struct{}{}
				cands = append(cands[:k], cands[k+1:]...)
			}
			assignRandom(members, spec.size)
		}
		memberSets[i] = members
		for m := range members {
			degree[m]++
		}
		degreeTotal += len(members)
	}
	// Step 5: merge split halves back into one virtual node.
	for i, spec := range specs {
		if spec.mergeWith >= 0 {
			for m := range memberSets[spec.mergeWith] {
				memberSets[i][m] = struct{}{}
			}
			memberSets[spec.mergeWith] = nil
		}
	}
	for _, members := range memberSets {
		if members == nil || len(members) < 2 {
			continue
		}
		sorted := make([]int32, 0, len(members))
		for m := range members {
			sorted = append(sorted, m)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		v := g.AddVirtualNode(1)
		for _, m := range sorted {
			g.AddMember(v, m)
		}
	}
	g.SortAdjacency()
	return g
}

// pickWeighted picks an index with probability proportional to weight+1;
// total is the sum of those, which callers keep as they change weights
// instead of having every pick re-add them all. Weights are non-negative.
//
// The pick is the first index whose running sum exceeds a uniform draw
// below total. The scan skips whole blocks of four while the draw lies
// past them, then walks the block that holds it: the same index in a
// quarter of the compare-and-branch steps. The scan is most of what
// generating a large membership table costs; a one-element loop also made
// that cost swing by a fifth with where the linker happened to place it.
func pickWeighted(rng *rand.Rand, weights []int, total int) int {
	x := rng.Intn(total)
	i := 0
	for ; i+4 <= len(weights); i += 4 {
		s := weights[i] + weights[i+1] + weights[i+2] + weights[i+3] + 4
		if x < s {
			break
		}
		x -= s
	}
	for ; i < len(weights); i++ {
		x -= weights[i] + 1
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// pickWeightedSquared picks a position in cands with probability
// proportional to (degree+1)^2.
func pickWeightedSquared(rng *rand.Rand, cands []int32, degree []int) int {
	total := 0
	for _, c := range cands {
		d := degree[c] + 1
		total += d * d
	}
	x := rng.Intn(total)
	for i, c := range cands {
		d := degree[c] + 1
		x -= d * d
		if x < 0 {
			return i
		}
	}
	return len(cands) - 1
}

// neighborhood returns the co-members of anchor across the virtual nodes
// assigned so far (bounded scan for generation speed). The result is sorted
// so that weighted selection is deterministic for a fixed seed despite map
// storage of the member sets.
func neighborhood(memberSets []map[int32]struct{}, degree []int, anchor int32) []int32 {
	seen := make(map[int32]struct{})
	var out []int32
	scanned := 0
	for i := len(memberSets) - 1; i >= 0 && scanned < 64; i-- {
		ms := memberSets[i]
		if ms == nil {
			continue
		}
		if _, ok := ms[anchor]; !ok {
			continue
		}
		scanned++
		for m := range ms {
			if m == anchor {
				continue
			}
			if _, dup := seen[m]; dup {
				continue
			}
			seen[m] = struct{}{}
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
