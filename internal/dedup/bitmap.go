package dedup

import (
	"graphgen/internal/core"
	"graphgen/internal/markset"
)

// This file implements the BITMAP preprocessing algorithms of Section 5.1.
//
// BITMAP-1 (Algorithm 2) associates bitmaps only with virtual nodes in the
// penultimate layer (those with outgoing edges to real targets): for every
// real node u it walks u's reachable virtual nodes once, and in each node's
// target list marks 1 the first occurrence of every real target and 0 any
// repeat. The edge structure is untouched.
//
// BITMAP-2 (Algorithm 1) phrases the per-origin problem as set cover (the
// minimal-bitmaps problem is NP-hard, Section 5.1.2) and runs the standard
// greedy approximation: repeatedly pick the reachable virtual node covering
// the most uncovered targets. Chosen nodes get a bitmap with exactly the
// newly covered bits set; unchosen reachable nodes get an all-zero mask; and
// first-layer edges whose subtree contributed nothing are deleted outright
// ("the edges from us to those nodes are simply deleted since there is no
// reason to traverse those"). Outgoing edges of virtual nodes are never
// deleted — another origin may need them.

// Bitmap1 builds the BITMAP representation with the naive BITMAP-1
// algorithm. It accepts any condensed graph (single- or multi-layer).
func Bitmap1(g *core.Graph) (*core.Graph, Stats, error) {
	out := g.Clone()
	var st Stats
	st.RepEdgesBefore = out.RepEdges()
	out.NormalizeDirects()

	var sc planScratch
	out.ForEachReal(func(u int32) bool {
		sc.covered.Reset(out.NumRealSlots())
		sc.seenVirt.Reset(out.NumVirtualSlots())
		sc.words = sc.words[:0]
		sc.work = append(sc.work[:0], out.OutVirtuals(u)...)
		for len(sc.work) > 0 {
			v := sc.work[len(sc.work)-1]
			sc.work = sc.work[:len(sc.work)-1]
			if !sc.seenVirt.Mark(v) {
				continue
			}
			targets := out.VirtTargets(v)
			if len(targets) > 0 {
				mask := sc.mask(len(targets))
				for i, t := range targets {
					if t == u && !out.SelfLoops {
						continue // self edge: leave masked
					}
					if sc.covered.Mark(t) {
						mask[i>>6] |= 1 << (i & 63)
					}
				}
				out.SetBitmap(v, u, mask)
				st.BitmapsCreated++
			}
			sc.work = append(sc.work, out.VirtOutVirt(v)...)
		}
		return true
	})
	out.Pack()
	out.SetMode(core.BITMAP)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}

// bitmap2Plan is BITMAP-2's decision for one origin: which virtual nodes get
// which bitmaps and which first-layer edges are deleted. It lives in the
// planScratch, masks included, until the next plan.
type bitmap2Plan struct {
	bitmaps []plannedBitmap
	drop    []int32 // first-layer virtual nodes to disconnect from origin
}

type plannedBitmap struct {
	virt  int32
	words []uint64 // the mask, laid out as core.Graph.SetBitmap takes it
}

// Bitmap2 builds the BITMAP representation with the greedy set-cover
// BITMAP-2 algorithm. It accepts any condensed graph. Each origin is
// planned and applied before the next: a plan reads only the origin's own
// first-layer edges and the virtual nodes' targets and virtual out-edges,
// none of which applying another origin's plan changes.
func Bitmap2(g *core.Graph) (*core.Graph, Stats, error) {
	out := g.Clone()
	var st Stats
	st.RepEdgesBefore = out.RepEdges()
	out.NormalizeDirects()

	var sc planScratch
	out.ForEachReal(func(u int32) bool {
		p := planBitmap2(out, u, &sc)
		if p == nil {
			return true
		}
		for _, pb := range p.bitmaps {
			out.SetBitmap(pb.virt, u, pb.words)
			st.BitmapsCreated++
		}
		for _, v := range p.drop {
			out.DisconnectRealToVirt(u, v)
		}
		return true
	})
	out.Pack()
	out.SetMode(core.BITMAP)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}

// planScratch is the per-origin working memory of the BITMAP builders. One
// conversion reuses it for every origin, so the dense sets are paid for
// once per conversion rather than once per origin.
type planScratch struct {
	seenVirt  markset.Set // virtual nodes reachable from the origin
	reachable markset.Set // virtual nodes still reachable after the drops
	covered   markset.Set // real targets some bitmap already yields
	// chosen[v] is the mask the set cover gave virtual node v, nil
	// otherwise; only entries of reach are ever set, and planBitmap2 puts
	// them back to nil before it returns.
	chosen [][]uint64
	reach  []int32  // reachable virtual nodes in discovery order
	work   []int32  // BITMAP-1's DFS stack; BITMAP-2's not-yet-chosen nodes
	words  []uint64 // the current origin's masks, cut by mask
	plan   bitmap2Plan
}

// mask returns a zeroed mask over n targets, cut from the current origin's
// words. A mask stays valid until the next origin resets words: growing
// words moves later masks to a new array and leaves earlier ones where
// they are.
func (sc *planScratch) mask(n int) []uint64 {
	start := len(sc.words)
	sc.words = append(sc.words, make([]uint64, (n+63)>>6)...)
	return sc.words[start:len(sc.words):len(sc.words)]
}

// collect appends the virtual nodes reachable from v to reach, each once, in
// depth-first discovery order.
func (sc *planScratch) collect(g *core.Graph, v int32) {
	if !sc.seenVirt.Mark(v) {
		return
	}
	sc.reach = append(sc.reach, v)
	for _, w := range g.VirtOutVirt(v) {
		sc.collect(g, w)
	}
}

// markReachable marks v and everything below it as still reachable.
func (sc *planScratch) markReachable(g *core.Graph, v int32) {
	if !sc.reachable.Mark(v) {
		return
	}
	for _, w := range g.VirtOutVirt(v) {
		sc.markReachable(g, w)
	}
}

// subtreeHasChosen reports whether v or a virtual node below it was
// chosen. A chosen mask always has a bit set: the cover picks only nodes
// with a positive gain.
func (sc *planScratch) subtreeHasChosen(g *core.Graph, v int32) bool {
	if sc.chosen[v] != nil {
		return true
	}
	for _, w := range g.VirtOutVirt(v) {
		if sc.subtreeHasChosen(g, w) {
			return true
		}
	}
	return false
}

// planBitmap2 computes the greedy set cover for one origin, or nil when the
// origin has no first-layer edges. It only reads the graph.
func planBitmap2(g *core.Graph, u int32, sc *planScratch) *bitmap2Plan {
	first := g.OutVirtuals(u)
	if len(first) == 0 {
		return nil
	}
	nVirt := g.NumVirtualSlots()
	if nVirt > len(sc.chosen) {
		sc.chosen = append(sc.chosen, make([][]uint64, nVirt-len(sc.chosen))...)
	}
	// Collect the virtual nodes reachable from u (each once), in an order
	// that does not depend on anything but the graph.
	sc.seenVirt.Reset(nVirt)
	sc.reach = sc.reach[:0]
	sc.words = sc.words[:0]
	for _, v := range first {
		sc.collect(g, v)
	}
	// Greedy set cover over the reachable nodes' target lists.
	sc.covered.Reset(g.NumRealSlots())
	remaining := append(sc.work[:0], sc.reach...)
	for {
		bestIdx, bestGain := -1, 0
		for i, v := range remaining {
			if v < 0 {
				continue
			}
			gain := 0
			for _, t := range g.VirtTargets(v) {
				if t == u && !g.SelfLoops {
					continue
				}
				if !sc.covered.Has(t) {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		v := remaining[bestIdx]
		remaining[bestIdx] = -1
		targets := g.VirtTargets(v)
		mask := sc.mask(len(targets))
		for i, t := range targets {
			if t == u && !g.SelfLoops {
				continue
			}
			if sc.covered.Mark(t) {
				mask[i>>6] |= 1 << (i & 63)
			}
		}
		sc.chosen[v] = mask
	}
	sc.work = remaining
	// Emit the chosen bitmaps in discovery (reach) order, so a plan's bitmap
	// sequence is identical run to run.
	p := &sc.plan
	p.bitmaps, p.drop = p.bitmaps[:0], p.drop[:0]
	for _, v := range sc.reach {
		if mask := sc.chosen[v]; mask != nil {
			p.bitmaps = append(p.bitmaps, plannedBitmap{virt: v, words: mask})
		}
	}
	// Prune first-layer edges whose whole subtree contributed nothing.
	sc.reachable.Reset(nVirt)
	for _, v := range first {
		if !sc.subtreeHasChosen(g, v) {
			p.drop = append(p.drop, v)
		} else {
			sc.markReachable(g, v)
		}
	}
	// Unchosen nodes still reachable after the drops get an all-zero mask
	// so traversal skips their targets but still descends their subtrees.
	// Nodes made unreachable by the drops need no mask at all — on
	// single-layer graphs this eliminates every redundant bitmap.
	for _, v := range sc.reach {
		if sc.chosen[v] != nil {
			sc.chosen[v] = nil
			continue
		}
		if !sc.reachable.Has(v) {
			continue
		}
		if n := len(g.VirtTargets(v)); n > 0 {
			p.bitmaps = append(p.bitmaps, plannedBitmap{virt: v, words: sc.mask(n)})
		}
	}
	return p
}
