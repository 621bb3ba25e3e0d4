package dedup

import (
	"math/rand"
	"slices"

	"graphgen/internal/core"
	"graphgen/internal/parallel"
)

// This file implements the four DEDUP-1 algorithms of Section 5.2.1. All of
// them operate on single-layer symmetric membership graphs: every virtual
// node V carries a member set M(V) (= I(V) = O(V)), realizing the clique on
// M(V); the deduplicated target state is that every real pair is connected
// through at most one virtual node or one direct edge. "Removing a node from
// a virtual node" removes the full membership (both edge directions), and
// every removal is compensated with undirected direct edges for the pairs
// that would otherwise lose their only path — so the logical graph is
// preserved exactly (minimizing the edges added is NP-hard; these are the
// paper's heuristics).

// Dedup1NaiveVirtualFirst implements "Naive Virtual Nodes First": virtual
// nodes are added one at a time to an (initially virtual-free) partial graph
// that is kept duplication-free throughout. For each processed virtual node
// Ri overlapping the incoming V in more than one member, overlap members are
// evicted one at a time — from the smaller of the two virtual nodes, since
// that requires fewer compensating direct edges.
func Dedup1NaiveVirtualFirst(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	return dedup1VirtualFirst(g, opts, false)
}

// Dedup1GreedyVirtualFirst implements "Greedy Virtual Nodes First"
// (Algorithm 3): like the naive variant it adds virtual nodes one at a time,
// but each eviction picks the (member, side) pair with the best benefit/cost
// ratio, where benefit counts how many pairwise intersections the removal
// shrinks and cost counts the direct edges needed to compensate. This is the
// algorithm the paper uses for DEDUP-1 in its evaluation (Section 6.1.1).
func Dedup1GreedyVirtualFirst(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	return dedup1VirtualFirst(g, opts, true)
}

func dedup1VirtualFirst(g *core.Graph, opts Options, greedy bool) (*core.Graph, Stats, error) {
	if err := requireSymmetricSingleLayer(g, opts.Workers); err != nil {
		return nil, Stats{}, err
	}
	out := g.Clone()
	out.SortAdjacency()
	out.NormalizeDirects()
	var st Stats
	st.RepEdgesBefore = out.RepEdges()
	rng := rand.New(rand.NewSource(opts.Seed))

	order := virtualOrder(out, opts)
	processed := make(map[int32]bool, len(order))
	// memberIndex maps a real node to the processed virtual nodes it
	// belongs to, so overlap candidates are found without a full scan.
	memberIndex := make(map[int32][]int32)

	for _, v := range order {
		if !out.VirtAlive(v) {
			continue
		}
		if greedy {
			dedupVirtualGreedy(out, v, processed, memberIndex, &st, opts.Workers)
		} else {
			dedupVirtualNaive(out, v, processed, memberIndex, rng, &st)
		}
		processed[v] = true
		for _, m := range out.VirtTargets(v) {
			memberIndex[m] = append(memberIndex[m], v)
		}
	}
	out.SetMode(core.DEDUP1)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}

// relevantProcessed returns the processed virtual nodes sharing at least
// minShared members with v, using the member index.
func relevantProcessed(out *core.Graph, v int32, memberIndex map[int32][]int32, minShared int) []int32 {
	counts := make(map[int32]int)
	for _, m := range out.VirtTargets(v) {
		for _, w := range memberIndex[m] {
			if out.VirtAlive(w) && slices.Contains(out.VirtTargets(w), m) {
				counts[w]++
			}
		}
	}
	var rel []int32
	for w, c := range counts {
		if c >= minShared {
			rel = append(rel, w)
		}
	}
	slices.Sort(rel)
	return rel
}

func dedupVirtualNaive(out *core.Graph, v int32, processed map[int32]bool, memberIndex map[int32][]int32, rng *rand.Rand, st *Stats) {
	for _, ri := range relevantProcessed(out, v, memberIndex, 2) {
		for {
			c := intersectSorted(out.VirtTargets(v), out.VirtTargets(ri))
			if len(c) <= 1 {
				break
			}
			r := c[rng.Intn(len(c))]
			// Evict from the lower-degree virtual node: fewer
			// compensating direct edges.
			side := v
			if len(out.VirtTargets(ri)) < len(out.VirtTargets(v)) {
				side = ri
			}
			removeMembershipWithCompensation(out, side, r, st)
		}
	}
	// A direct edge between two members of v would itself be a duplicate
	// path: v covers that pair now, so the direct edge is dropped.
	dropRedundantDirects(out, v, st)
}

func dedupVirtualGreedy(out *core.Graph, v int32, processed map[int32]bool, memberIndex map[int32][]int32, st *Stats, workers int) {
	for {
		rel := relevantProcessed(out, v, memberIndex, 2)
		if len(rel) == 0 {
			break
		}
		// Find the (member, side) eviction with the best benefit/cost
		// ratio across all intersections (Algorithm 3's
		// maxBenefitRatio).
		type choice struct {
			side, member int32
			ratio        float64
		}
		best := choice{ratio: -1}
		memberDupCount := make(map[int32]int)
		intersections := make([][]int32, len(rel))
		for i, s := range rel {
			intersections[i] = intersectSorted(out.VirtTargets(v), out.VirtTargets(s))
			for _, m := range intersections[i] {
				memberDupCount[m]++
			}
		}
		// compensationCost dominates the scan. The candidate (side,
		// member) pairs are collected in the serial encounter order,
		// their costs computed concurrently (each is a read-only
		// coverage check), and the winner picked by a serial reduction
		// over that same order — so the eviction chosen is identical to
		// the serial algorithm's for every worker count.
		type cand struct {
			side, member int32
		}
		var cands []cand
		candIdx := make(map[int64]int)
		idxOf := func(side, m int32) int {
			key := int64(side)<<32 | int64(uint32(m))
			if i, ok := candIdx[key]; ok {
				return i
			}
			candIdx[key] = len(cands)
			cands = append(cands, cand{side: side, member: m})
			return len(cands) - 1
		}
		for i, s := range rel {
			if len(intersections[i]) <= 1 {
				continue
			}
			for _, m := range intersections[i] {
				idxOf(v, m)
				idxOf(s, m)
			}
		}
		costs := make([]int, len(cands))
		parallel.RunMin(len(cands), workers, 4, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				costs[i] = compensationCost(out, cands[i].side, cands[i].member)
			}
		})
		for i, s := range rel {
			if len(intersections[i]) <= 1 {
				continue
			}
			for _, m := range intersections[i] {
				// Removing m from v shrinks every intersection
				// containing m; removing it from s shrinks one.
				evalChoice := func(side int32, benefit int) {
					cost := costs[idxOf(side, m)]
					ratio := float64(benefit) / float64(cost+1)
					if ratio > best.ratio {
						best = choice{side: side, member: m, ratio: ratio}
					}
				}
				evalChoice(v, memberDupCount[m])
				evalChoice(s, 1)
			}
		}
		if best.ratio < 0 {
			break
		}
		removeMembershipWithCompensation(out, best.side, best.member, st)
	}
	dropRedundantDirects(out, v, st)
}

// compensationCost counts the direct-edge pairs that removing member m from
// virtual node v would require.
func compensationCost(out *core.Graph, v, m int32) int {
	cost := 0
	for _, y := range out.VirtTargets(v) {
		if y == m {
			continue
		}
		if !coveredPairExcluding(out, m, y, v) {
			cost++
		}
	}
	return cost
}

// coveredPairExcluding reports whether the pair (a, b) has a path not going
// through virtual node exclude.
func coveredPairExcluding(g *core.Graph, a, b, exclude int32) bool {
	return coveredPair(g, a, b, exclude)
}

// dropRedundantDirects removes direct edges between members of v, which are
// duplicates of the paths through v.
func dropRedundantDirects(out *core.Graph, v int32, st *Stats) {
	members := out.VirtTargets(v)
	if len(members) < 2 {
		return
	}
	inV := make(map[int32]struct{}, len(members))
	for _, m := range members {
		inV[m] = struct{}{}
	}
	for _, m := range members {
		for _, t := range append([]int32(nil), out.OutDirect(m)...) {
			if _, ok := inV[t]; ok && t != m {
				out.RemoveDirectEdgeIdx(m, t)
				st.DirectEdgesAdded--
			}
		}
	}
}

// Dedup1NaiveRealFirst implements "Naive Real Nodes First": each real node's
// virtual neighborhood is deduplicated pairwise in encounter order, with the
// processed set scoped to that neighborhood and cleared per real node.
func Dedup1NaiveRealFirst(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	if err := requireSymmetricSingleLayer(g, opts.Workers); err != nil {
		return nil, Stats{}, err
	}
	out := g.Clone()
	out.SortAdjacency()
	out.NormalizeDirects()
	var st Stats
	st.RepEdgesBefore = out.RepEdges()
	rng := rand.New(rand.NewSource(opts.Seed))

	for _, rn := range realOrder(out, opts) {
		var local []int32 // processed set scoped to rn's neighborhood
		for _, v := range append([]int32(nil), out.OutVirtuals(rn)...) {
			if !out.VirtAlive(v) || slices.Contains(local, v) {
				continue
			}
			for _, w := range local {
				if !out.VirtAlive(w) {
					continue
				}
				for {
					c := intersectSorted(out.VirtTargets(v), out.VirtTargets(w))
					if len(c) <= 1 {
						break
					}
					r := c[rng.Intn(len(c))]
					side := v
					if len(out.VirtTargets(w)) < len(out.VirtTargets(v)) {
						side = w
					}
					removeMembershipWithCompensation(out, side, r, &st)
				}
			}
			local = append(local, v)
		}
	}
	out.SetMode(core.DEDUP1)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}

// Dedup1GreedyRealFirst implements "Greedy Real Nodes First": each real node
// u is deduplicated individually with a set-cover flavored heuristic. u's
// virtual memberships are split into a kept set V' and a dropped set V”:
// greedily move the virtual node with the highest benefit (new coverage of
// N(u) minus eviction cost) into V'; members of a newly kept node that are
// already covered are evicted from it (with compensation); when no node has
// positive benefit, u is removed from the remaining nodes and connected to
// any still-uncovered neighbors with direct edges.
func Dedup1GreedyRealFirst(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	if err := requireSymmetricSingleLayer(g, opts.Workers); err != nil {
		return nil, Stats{}, err
	}
	out := g.Clone()
	out.SortAdjacency()
	out.NormalizeDirects()
	var st Stats
	st.RepEdgesBefore = out.RepEdges()

	for _, u := range realOrder(out, opts) {
		covered := make(map[int32]struct{}) // X: neighbors covered via V'
		for _, t := range out.OutDirect(u) {
			covered[t] = struct{}{}
		}
		remaining := append([]int32(nil), out.OutVirtuals(u)...)
		for {
			bestIdx := -1
			bestBenefit := 0
			for i, v := range remaining {
				if v < 0 || !out.VirtAlive(v) {
					continue
				}
				gain, evictions := 0, 0
				for _, m := range out.VirtTargets(v) {
					if m == u {
						continue
					}
					if _, ok := covered[m]; ok {
						evictions++
					} else {
						gain++
					}
				}
				benefit := gain - evictions
				if gain > 0 && benefit > bestBenefit {
					bestBenefit, bestIdx = benefit, i
				}
			}
			if bestIdx < 0 {
				break
			}
			v := remaining[bestIdx]
			remaining[bestIdx] = -1
			// Evict already-covered members (other than u) so that
			// u sees each of them through exactly one path.
			for _, m := range append([]int32(nil), out.VirtTargets(v)...) {
				if m == u {
					continue
				}
				if _, ok := covered[m]; ok {
					removeMembershipWithCompensation(out, v, m, &st)
				} else {
					covered[m] = struct{}{}
				}
			}
		}
		// Drop u from the remaining (not kept) virtual nodes; any of
		// their members not covered through V' get direct edges via
		// the standard compensation path.
		for _, v := range remaining {
			if v < 0 || !out.VirtAlive(v) {
				continue
			}
			removeMembershipWithCompensation(out, v, u, &st)
		}
	}
	out.SetMode(core.DEDUP1)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}
