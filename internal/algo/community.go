package algo

import (
	"math/rand"
	"slices"
)

// This file implements the heavier analyses the paper's introduction
// motivates GraphGen with — community detection and dense-subgraph style
// measures — which "require random and arbitrary access to the graph, and
// cannot be efficiently, if at all, executed using basic SQL". All run on
// any representation through the deduplicated neighbor iteration.

// LabelPropagation runs synchronous label propagation community detection
// for at most maxIters rounds: every node adopts the most frequent label in
// its (undirected) neighborhood, ties broken by the smallest label, with a
// seeded shuffle of the visit order per round. Returns labels per dense
// index and the number of communities.
func LabelPropagation(g Graph, maxIters int, seed int64) ([]int32, int) {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int32, g.NumRealSlots())
	var nodes []int32
	for r := range int32(len(labels)) {
		if g.Alive(r) {
			labels[r] = r
			nodes = append(nodes, r)
		}
	}
	counts := make(map[int32]int)
	scan := func(t int32) bool {
		counts[labels[t]]++
		return true
	}
	for it := 0; it < maxIters; it++ {
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		changed := false
		for _, r := range nodes {
			clear(counts)
			g.ForNeighbors(r, scan)
			g.ForInNeighbors(r, scan)
			if len(counts) == 0 {
				continue
			}
			best, bestN := labels[r], -1
			for lbl, n := range counts {
				if n > bestN || (n == bestN && lbl < best) {
					best, bestN = lbl, n
				}
			}
			if best != labels[r] {
				labels[r] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	distinct := make(map[int32]struct{})
	for _, r := range nodes {
		distinct[labels[r]] = struct{}{}
	}
	return labels, len(distinct)
}

// KCore computes the core number of every node (undirected degeneracy
// ordering via the standard peeling algorithm). Dead slots report 0.
func KCore(g Graph) []int {
	slots := g.NumRealSlots()
	deg := make([]int, slots)
	adj := make([][]int32, slots)
	for r, set := range undirectedSets(g) {
		for t := range set {
			adj[r] = append(adj[r], t)
		}
		slices.Sort(adj[r])
		deg[r] = len(adj[r])
	}
	// Bucket peeling.
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for r := range int32(slots) {
		if g.Alive(r) {
			buckets[deg[r]] = append(buckets[deg[r]], r)
		}
	}
	core := make([]int, slots)
	removed := make([]bool, slots)
	cur := make([]int, slots)
	copy(cur, deg)
	for d := 0; d <= maxDeg; d++ {
		for len(buckets[d]) > 0 {
			r := buckets[d][len(buckets[d])-1]
			buckets[d] = buckets[d][:len(buckets[d])-1]
			if removed[r] || cur[r] != d {
				continue // stale bucket entry
			}
			removed[r] = true
			core[r] = d
			for _, t := range adj[r] {
				if removed[t] || cur[t] <= d {
					continue
				}
				cur[t]--
				buckets[cur[t]] = append(buckets[cur[t]], t)
			}
		}
	}
	return core
}

// ClusteringCoefficient returns the global clustering coefficient
// (3 x triangles / open+closed wedges) of the undirected graph.
func ClusteringCoefficient(g Graph) float64 {
	var wedges int64
	for _, set := range undirectedSets(g) {
		d := int64(len(set))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(CountTriangles(g)) / float64(wedges)
}

// DegreeHistogram returns the out-degree distribution: hist[d] is the
// number of live nodes with logical out-degree d.
func DegreeHistogram(g Graph) map[int]int {
	hist := make(map[int]int)
	for _, d := range Degrees(g) {
		hist[d]++
	}
	// Degrees reports 0 for dead slots too; drop the overcount.
	dead := g.NumRealSlots() - g.NumRealNodes()
	if dead > 0 {
		hist[0] -= dead
		if hist[0] <= 0 {
			delete(hist, 0)
		}
	}
	return hist
}
