package dedup

import (
	"graphgen/internal/bitset"
	"graphgen/internal/core"
	"graphgen/internal/markset"
	"graphgen/internal/parallel"
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
//
// The per-origin walks are independent and read-only, so they run on the
// shared worker pool (Options.Workers); each chunk stages its planned
// bitmaps and the mutations apply serially afterwards, making the output
// identical for every worker count.
func Bitmap1(g *core.Graph, opts ...Options) (*core.Graph, Stats, error) {
	workers := 0 // the Options contract: <= 0 means GOMAXPROCS
	if len(opts) > 0 {
		workers = opts[0].Workers
	}
	out := g.Clone()
	var st Stats
	st.RepEdgesBefore = out.RepEdges()
	out.NormalizeDirects()

	var origins []int32
	out.ForEachReal(func(u int32) bool { origins = append(origins, u); return true })
	chunks := parallel.MapChunks(len(origins), workers, 8, func(lo, hi int) []bitmap2Plan {
		var plans []bitmap2Plan
		var sc planScratch
		for _, u := range origins[lo:hi] {
			sc.covered.Reset(out.NumRealSlots())
			sc.seenVirt.Reset(out.NumVirtualSlots())
			p := bitmap2Plan{origin: u}
			sc.work = append(sc.work[:0], out.OutVirtuals(u)...)
			for len(sc.work) > 0 {
				v := sc.work[len(sc.work)-1]
				sc.work = sc.work[:len(sc.work)-1]
				if !sc.seenVirt.Mark(v) {
					continue
				}
				targets := out.VirtTargets(v)
				if len(targets) > 0 {
					bmp := bitset.New(len(targets))
					for i, t := range targets {
						if t == u && !out.SelfLoops {
							continue // self edge: leave masked
						}
						if sc.covered.Mark(t) {
							bmp.Set(i)
						}
					}
					p.bitmaps = append(p.bitmaps, plannedBitmap{virt: v, bits: bmp})
				}
				sc.work = append(sc.work, out.VirtOutVirt(v)...)
			}
			if len(p.bitmaps) > 0 {
				plans = append(plans, p)
			}
		}
		return plans
	})
	for _, ps := range chunks {
		for _, p := range ps {
			for _, pb := range p.bitmaps {
				out.SetBitmap(pb.virt, p.origin, pb.bits)
				st.BitmapsCreated++
			}
		}
	}
	out.SetMode(core.BITMAP)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}

// bitmap2Plan is the per-origin result of the parallel analysis phase of
// BITMAP-2: which virtual nodes get which bitmaps and which first-layer
// edges are deleted. Mutations are applied serially afterwards; the paper
// notes its own multi-threaded implementation needed careful concurrency
// control for exactly this reason.
type bitmap2Plan struct {
	origin  int32
	bitmaps []plannedBitmap
	drop    []int32 // first-layer virtual nodes to disconnect from origin
}

type plannedBitmap struct {
	virt int32
	bits *bitset.Set
}

// Bitmap2 builds the BITMAP representation with the greedy set-cover
// BITMAP-2 algorithm. It accepts any condensed graph; the analysis phase is
// parallelized over chunks of real nodes (Section 5.1.3).
func Bitmap2(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	out := g.Clone()
	var st Stats
	st.RepEdgesBefore = out.RepEdges()
	out.NormalizeDirects()

	var origins []int32
	out.ForEachReal(func(r int32) bool { origins = append(origins, r); return true })

	plans := parallel.MapChunks(len(origins), opts.Workers, 8, func(lo, hi int) []bitmap2Plan {
		var ps []bitmap2Plan
		var sc planScratch
		for _, u := range origins[lo:hi] {
			if p := planBitmap2(out, u, &sc); p != nil {
				ps = append(ps, *p)
			}
		}
		return ps
	})

	for _, ps := range plans {
		for _, p := range ps {
			for _, pb := range p.bitmaps {
				out.SetBitmap(pb.virt, p.origin, pb.bits)
				st.BitmapsCreated++
			}
			for _, v := range p.drop {
				out.DisconnectRealToVirt(p.origin, v)
			}
		}
	}
	out.SetMode(core.BITMAP)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}

// planScratch is the per-origin working memory of the BITMAP planners. One
// worker chunk owns one and reuses it for every origin it plans, so the
// dense sets are paid for once per chunk rather than once per origin.
type planScratch struct {
	seenVirt  markset.Set // virtual nodes reachable from the origin
	reachable markset.Set // virtual nodes still reachable after the drops
	covered   markset.Set // real targets some bitmap already yields
	// chosen[v] is the bitmap the set cover gave virtual node v, nil
	// otherwise; only entries of reach are ever set, and planBitmap2 puts
	// them back to nil before it returns.
	chosen []*bitset.Set
	reach  []int32 // reachable virtual nodes in discovery order
	work   []int32 // BITMAP-1's DFS stack; BITMAP-2's not-yet-chosen nodes
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

// subtreeHasChosen reports whether v or a virtual node below it was chosen
// with at least one bit set.
func (sc *planScratch) subtreeHasChosen(g *core.Graph, v int32) bool {
	if bmp := sc.chosen[v]; bmp != nil && bmp.Any() {
		return true
	}
	for _, w := range g.VirtOutVirt(v) {
		if sc.subtreeHasChosen(g, w) {
			return true
		}
	}
	return false
}

// planBitmap2 computes the greedy set cover for one origin. It only reads
// the graph, so it is safe to run concurrently with other origins, each
// with its own scratch.
func planBitmap2(g *core.Graph, u int32, sc *planScratch) *bitmap2Plan {
	first := g.OutVirtuals(u)
	if len(first) == 0 {
		return nil
	}
	nVirt := g.NumVirtualSlots()
	if nVirt > len(sc.chosen) {
		sc.chosen = append(sc.chosen, make([]*bitset.Set, nVirt-len(sc.chosen))...)
	}
	// Collect the virtual nodes reachable from u (each once), in an order
	// that does not depend on anything but the graph.
	sc.seenVirt.Reset(nVirt)
	sc.reach = sc.reach[:0]
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
		bmp := bitset.New(len(targets))
		for i, t := range targets {
			if t == u && !g.SelfLoops {
				continue
			}
			if sc.covered.Mark(t) {
				bmp.Set(i)
			}
		}
		sc.chosen[v] = bmp
	}
	sc.work = remaining
	// Emit the chosen bitmaps in discovery (reach) order, so a plan's bitmap
	// sequence is identical run to run.
	p := &bitmap2Plan{origin: u}
	for _, v := range sc.reach {
		if bmp := sc.chosen[v]; bmp != nil {
			p.bitmaps = append(p.bitmaps, plannedBitmap{virt: v, bits: bmp})
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
			p.bitmaps = append(p.bitmaps, plannedBitmap{virt: v, bits: bitset.New(n)})
		}
	}
	return p
}
