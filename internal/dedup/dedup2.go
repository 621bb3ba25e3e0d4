package dedup

import (
	"slices"

	"graphgen/internal/core"
	"graphgen/internal/markset"
)

// This file implements the DEDUP-2 greedy algorithm of Appendix B. DEDUP-2
// targets single-layer symmetric condensed graphs and enriches the
// representation with undirected edges between virtual nodes: a member u of
// virtual node V is logically connected to M(V) and to the members of V's
// 1-hop undirected virtual neighborhood, so an undirected edge A <-> B
// realizes the complete bipartite pair set M(A) x M(B) with a single edge.
//
// The algorithm processes the input's virtual nodes one at a time, keeping
// the partial graph duplicate-free. Incorporating a member set S:
//
//  1. find the processed virtual node V1 with the highest member overlap;
//  2. split V1 into W1 = S ∩ M(V1) and W2 = M(V1) - W1 connected by an
//     undirected edge, both inheriting V1's previous virtual neighbors
//     (this preserves every pair V1 realized);
//  3. the rest of S splits into W4 — members that appear in V1's old
//     neighborhood, whose pairs with W1 are therefore already realized "for
//     free" — and W3, which is clean;
//  4. W4 then W3 are incorporated recursively, and the piece lists are
//     linked: W1 <-> pieces(W3) and pieces(W3) <-> pieces(W4).
//
// Every virtual-virtual edge is added through a checked path that verifies
// the structural invariants (adjacent virtual nodes member-disjoint, virtual
// neighborhoods pairwise disjoint) and that no pair would become duplicated;
// when a check fails the affected uncovered pairs fall back to direct edges,
// so equivalence always holds. Singleton virtual nodes represent what would
// otherwise be direct edges, as in the paper; pure fallback pairs use direct
// edges for compactness.

// Dedup2Greedy converts a single-layer symmetric C-DUP graph into the
// DEDUP-2 representation.
func Dedup2Greedy(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	if err := requireSymmetricSingleLayer(g); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	st.RepEdgesBefore = g.RepEdges()

	// Work from a normalized copy: direct edges that duplicate virtual
	// paths disappear, the rest must be carried into the output.
	src := g.Clone()
	src.NormalizeDirects()
	g = src

	b := &dedup2Builder{out: core.New(core.DEDUP2), st: &st}
	b.out.Symmetric = true
	b.out.SelfLoops = false
	// Real nodes copy. The output drops the source's tombstones, so source
	// indices reach output indices through remap; a tombstone maps to -1
	// and its memberships and direct edges are left behind.
	remap := make([]int32, g.NumRealSlots())
	for i := range remap {
		remap[i] = -1
	}
	g.ForEachReal(func(r int32) bool {
		nr := b.out.AddRealNode(g.RealID(r))
		remap[r] = nr
		for key, val := range g.Properties(r) {
			b.out.SetProperty(nr, key, val)
		}
		return true
	})
	b.idx = make([][]int32, b.out.NumRealSlots())

	for _, v := range virtualOrder(g, opts) {
		members := make([]int32, 0, len(g.VirtTargets(v)))
		b.marks.Reset(len(b.idx))
		for _, m := range g.VirtTargets(v) {
			if nr := remap[m]; nr >= 0 && b.marks.Mark(nr) {
				members = append(members, nr)
			}
		}
		b.resolve(members)
	}
	// Carry over the input's surviving direct edges (symmetric pairs)
	// unless the constructed virtual structure already covers them.
	g.ForEachReal(func(u int32) bool {
		nu := remap[u]
		for _, w := range g.OutDirect(u) {
			nw := remap[w]
			if nw < 0 || nu == nw || b.covered(nu, nw) {
				continue
			}
			b.out.AddDirectEdgeIdx(nu, nw)
			b.out.AddDirectEdgeIdx(nw, nu)
			st.DirectEdgesAdded += 2
		}
		return true
	})
	st.RepEdgesAfter = b.out.RepEdges()
	return b.out, st, nil
}

type dedup2Builder struct {
	out *core.Graph
	// idx maps a real node to the processed virtual nodes it belongs to.
	idx [][]int32
	st  *Stats

	// Working sets over out's real nodes, reused for the whole build.
	// marks holds whichever member set the serial code is probing right
	// now (the input's members, M(V1), the split part, one side of a
	// disjointness check) and is dead by the next Reset; neigh holds V1's
	// neighborhood members across the split in resolve.
	marks, neigh markset.Set
	// counts[v] is maxOverlap's overlap counter for virtual node v, zero
	// between calls; touched lists the counters a call has to put back.
	counts  []int32
	touched []int32
}

func (b *dedup2Builder) members(v int32) []int32 { return b.out.VirtTargets(v) }

func (b *dedup2Builder) virtsOf(m int32) []int32 {
	// Filter dead or stale entries lazily.
	vs := b.idx[m][:0]
	for _, v := range b.idx[m] {
		if b.out.VirtAlive(v) && slices.Contains(b.members(v), m) {
			vs = append(vs, v)
		}
	}
	b.idx[m] = vs
	return vs
}

// newVirtual creates a processed virtual node with the given member set.
func (b *dedup2Builder) newVirtual(members []int32) int32 {
	v := b.out.AddVirtualNode(1)
	b.st.VirtualNodesCreated++
	for _, m := range members {
		b.out.AddMember(v, m)
		b.idx[m] = append(b.idx[m], v)
	}
	return v
}

// covered reports whether the pair (a, c) is already realized: by a direct
// edge, by co-membership, or through a 1-hop virtual edge.
func (b *dedup2Builder) covered(a, c int32) bool {
	if slices.Contains(b.out.OutDirect(a), c) {
		return true
	}
	for _, v := range b.virtsOf(a) {
		if slices.Contains(b.members(v), c) {
			return true
		}
		for _, n := range b.out.VirtUndirected(v) {
			if slices.Contains(b.members(n), c) {
				return true
			}
		}
	}
	return false
}

// split replaces virtual node v with w1 (members = part) and w2 (the rest),
// both inheriting v's undirected neighbors, with w1 <-> w2 linking them.
// If part covers all of v's members, v is reused unchanged.
func (b *dedup2Builder) split(v int32, part []int32) (w1, w2 int32) {
	all := b.members(v)
	if len(part) == len(all) {
		return v, -1
	}
	b.markAll(part)
	var restMembers []int32
	for _, m := range all {
		if !b.marks.Has(m) {
			restMembers = append(restMembers, m)
		}
	}
	oldNeighbors := append([]int32(nil), b.out.VirtUndirected(v)...)
	b.out.RemoveVirtualNode(v)
	w1 = b.newVirtual(part)
	w2 = b.newVirtual(restMembers)
	b.out.ConnectVirtUndirected(w1, w2)
	for _, n := range oldNeighbors {
		if b.out.VirtAlive(n) {
			b.out.ConnectVirtUndirected(w1, n)
			b.out.ConnectVirtUndirected(w2, n)
		}
	}
	return w1, w2
}

// maxOverlap returns the processed virtual node sharing the most members
// with s (the lowest-numbered one on a tie), or -1.
func (b *dedup2Builder) maxOverlap(s []int32) (int32, int) {
	if n := b.out.NumVirtualSlots(); n > len(b.counts) {
		b.counts = append(b.counts, make([]int32, n-len(b.counts))...)
	}
	touched := b.touched[:0]
	for _, m := range s {
		for _, v := range b.virtsOf(m) {
			if b.counts[v] == 0 {
				touched = append(touched, v)
			}
			b.counts[v]++
		}
	}
	best, bestN := int32(-1), 0
	for _, v := range touched {
		n := int(b.counts[v])
		b.counts[v] = 0
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	b.touched = touched
	return best, bestN
}

// markAll makes marks hold exactly the given members.
func (b *dedup2Builder) markAll(members []int32) {
	b.marks.Reset(len(b.idx))
	for _, m := range members {
		b.marks.Mark(m)
	}
}

// disjoint reports whether member sets a and c share no real node.
func (b *dedup2Builder) disjoint(a, c []int32) bool {
	b.markAll(a)
	for _, m := range c {
		if b.marks.Has(m) {
			return false
		}
	}
	return true
}

// resolve incorporates member set s into the partial graph and returns the
// virtual-node pieces that now partition s.
func (b *dedup2Builder) resolve(s []int32) []int32 {
	if len(s) == 0 {
		return nil
	}
	v1, overlap := b.maxOverlap(s)
	if v1 < 0 || overlap == 0 {
		return []int32{b.newVirtual(s)}
	}
	b.markAll(b.members(v1))
	var w1set, rest []int32
	for _, m := range s {
		if b.marks.Has(m) {
			w1set = append(w1set, m)
		} else {
			rest = append(rest, m)
		}
	}
	// Neighborhood members of v1 BEFORE the split decide the W3/W4 split.
	b.neigh.Reset(len(b.idx))
	for _, n := range b.out.VirtUndirected(v1) {
		for _, m := range b.members(n) {
			b.neigh.Mark(m)
		}
	}
	w1, _ := b.split(v1, w1set)
	if len(rest) == 0 {
		return []int32{w1}
	}
	var w3set, w4set []int32
	for _, m := range rest {
		if b.neigh.Has(m) {
			w4set = append(w4set, m) // pairs with W1 realized for free
		} else {
			w3set = append(w3set, m)
		}
	}
	p4 := b.resolve(w4set)
	p3 := b.resolve(w3set)
	// Link the pieces: W1 <-> W3 pieces, W3 pieces <-> W4 pieces.
	for _, p := range p3 {
		b.addEdgeChecked(w1, p)
	}
	for _, a := range p3 {
		for _, c := range p4 {
			b.addEdgeChecked(a, c)
		}
	}
	pieces := append([]int32{w1}, p3...)
	return append(pieces, p4...)
}

// addEdgeChecked adds the undirected virtual edge a <-> c when doing so is
// provably safe; otherwise it covers the not-yet-covered pairs with direct
// edges. It never creates a duplicate pair and never loses a pair.
func (b *dedup2Builder) addEdgeChecked(a, c int32) {
	if a == c || !b.out.VirtAlive(a) || !b.out.VirtAlive(c) {
		return
	}
	if slices.Contains(b.out.VirtUndirected(a), c) {
		return
	}
	if b.linkable(a, c) {
		b.out.ConnectVirtUndirected(a, c)
		return
	}
	// Fallback: direct edges for the uncovered pairs.
	for _, x := range b.members(a) {
		for _, y := range b.members(c) {
			if x == y || b.covered(x, y) {
				continue
			}
			b.out.AddDirectEdgeIdx(x, y)
			b.out.AddDirectEdgeIdx(y, x)
			b.st.DirectEdgesAdded += 2
		}
	}
}

// linkable reports whether the undirected edge a <-> c keeps the partial
// graph duplicate-free: a and c are member-disjoint, each one's virtual
// neighborhood is disjoint from the other, and no pair of M(a) x M(c) is
// covered yet.
func (b *dedup2Builder) linkable(a, c int32) bool {
	ma, mc := b.members(a), b.members(c)
	if !b.disjoint(ma, mc) {
		return false
	}
	for _, n := range b.out.VirtUndirected(a) {
		if !b.disjoint(b.members(n), mc) {
			return false
		}
	}
	for _, n := range b.out.VirtUndirected(c) {
		if !b.disjoint(b.members(n), ma) {
			return false
		}
	}
	for _, x := range ma {
		for _, y := range mc {
			if b.covered(x, y) {
				return false
			}
		}
	}
	return true
}
