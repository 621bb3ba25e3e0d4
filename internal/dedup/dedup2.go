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

// The builder keeps its working state outside the output graph and writes
// the graph once, at the end. A virtual node's member set never changes
// after it is created — a split tombstones the node and creates two — so
// every member set lives in one append-only arena. The output holds only
// the live virtual nodes, numbered by live rank, which keeps the order of
// every adjacency list.

// Dedup2Greedy converts a single-layer symmetric C-DUP graph into the
// DEDUP-2 representation. The input is read, not copied; the output has no
// tombstoned virtual slots (NumVirtualSlots == NumVirtualNodes).
func Dedup2Greedy(g *core.Graph, opts Options) (*core.Graph, Stats, error) {
	if err := requireSymmetricSingleLayer(g); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	st.RepEdgesBefore = g.RepEdges()

	out := core.New(core.DEDUP2)
	out.Symmetric = true
	out.SelfLoops = false
	// Real nodes copy. The output drops the source's tombstones, so source
	// indices reach output indices through remap; a tombstone maps to -1
	// and its memberships and direct edges are left behind.
	remap := make([]int32, g.NumRealSlots())
	for i := range remap {
		remap[i] = -1
	}
	out.Grow(g.NumRealNodes())
	g.ForEachReal(func(r int32) bool {
		remap[r] = out.AddRealNode(g.RealID(r))
		return true
	})
	out.CopyProperties(g, remap)
	n := out.NumRealSlots()
	b := &dedup2Builder{st: &st, idx: make([][]int32, n), direct: make([][]int32, n)}

	for _, v := range virtualOrder(g, opts) {
		b.marks.Reset(n)
		for _, m := range g.VirtTargets(v) {
			if nr := remap[m]; nr >= 0 && b.marks.Mark(nr) {
				b.stack = append(b.stack, nr)
			}
		}
		b.resolve(b.stack)
		b.stack, b.pieces = b.stack[:0], b.pieces[:0]
	}
	// Carry over the input's direct edges (symmetric pairs) unless the
	// input reaches them through a virtual node (NormalizeDirects' test)
	// or the constructed virtual structure already covers them.
	g.ForEachReal(func(u int32) bool {
		nu := remap[u]
		for _, w := range g.OutDirect(u) {
			nw := remap[w]
			if nw < 0 || nu == nw || g.ReachableViaVirtual(u, w) || b.covered(nu, nw) {
				continue
			}
			b.addDirect(nu, nw)
		}
		return true
	})
	b.emit(out)
	st.RepEdgesAfter = out.RepEdges()
	return out, st, nil
}

type dedup2Builder struct {
	st *Stats

	// Virtual nodes, by creation order, with their member sets in arena.
	// The nodes are kept in fixed-size chunks, so adding one never copies
	// the others.
	arena    []int32
	chunks   []*[1 << nodeChunkBits]vnode
	numNodes int32

	// Real nodes, in output numbering. idx[m] lists the virtual nodes m
	// belongs to, tombstones filtered lazily; direct[m] lists m's direct
	// neighbors, every pair stored on both sides.
	idx    [][]int32
	direct [][]int32

	// Working sets over the real nodes, reused for the whole build.
	// marks holds whichever member set the serial code is probing right
	// now (M(V1), the split part, M(c) in a linkability check) and is dead
	// by the next Reset; neigh holds V1's neighborhood members across the
	// split in resolve; other holds one member's coverage.
	marks, neigh, other markset.Set
	// holdA and holdC mark the virtual nodes holding a member of a and of
	// c in a linkability check.
	holdA, holdC markset.Set
	// stack holds the member sets resolve is working on, each call's above
	// its caller's; pieces holds the pieces resolve calls return, likewise.
	stack, pieces []int32
	// touched lists the overlap counters maxOverlap has to put back.
	touched []int32
}

const nodeChunkBits = 10

type vnode struct {
	off   int   // members are arena[off : off+n]
	n     int32 // member count
	count int32 // maxOverlap's overlap counter, zero between calls
	alive bool
	undir []int32 // undirected neighbors, all alive
}

func (b *dedup2Builder) node(v int32) *vnode {
	return &b.chunks[v>>nodeChunkBits][v&(1<<nodeChunkBits-1)]
}

func (b *dedup2Builder) members(v int32) []int32 {
	nd := b.node(v)
	return b.arena[nd.off : nd.off+int(nd.n)]
}

// virtsOf returns the live virtual nodes real node m belongs to, dropping
// tombstoned ones from its list as it goes.
func (b *dedup2Builder) virtsOf(m int32) []int32 {
	vs := b.idx[m][:0]
	for _, v := range b.idx[m] {
		if b.node(v).alive {
			vs = append(vs, v)
		}
	}
	b.idx[m] = vs
	return vs
}

// newVirtual creates a processed virtual node with the given member set.
func (b *dedup2Builder) newVirtual(members []int32) int32 {
	off := len(b.arena)
	b.arena = append(reserve(b.arena, len(members)), members...)
	return b.seal(off)
}

// seal creates a processed virtual node whose members are the arena from
// off on.
func (b *dedup2Builder) seal(off int) int32 {
	v := b.numNodes
	if v&(1<<nodeChunkBits-1) == 0 {
		b.chunks = append(b.chunks, new([1 << nodeChunkBits]vnode))
	}
	b.numNodes++
	*b.node(v) = vnode{off: off, n: int32(len(b.arena) - off), alive: true}
	b.st.VirtualNodesCreated++
	for _, m := range b.arena[off:] {
		b.idx[m] = append(b.idx[m], v)
	}
	return v
}

// reserve makes room for k more elements, at least doubling the capacity
// when it has to grow, so building a slice element by element allocates
// about twice its final size in all.
func reserve[T any](s []T, k int) []T {
	if len(s)+k <= cap(s) {
		return s
	}
	return slices.Grow(s, max(k, len(s)))
}

// connect adds the undirected virtual edge v <-> w.
func (b *dedup2Builder) connect(v, w int32) {
	nv, nw := b.node(v), b.node(w)
	nv.undir = append(nv.undir, w)
	nw.undir = append(nw.undir, v)
}

// addDirect adds the undirected direct edge x <-> y.
func (b *dedup2Builder) addDirect(x, y int32) {
	b.direct[x] = append(b.direct[x], y)
	b.direct[y] = append(b.direct[y], x)
	b.st.DirectEdgesAdded += 2
}

// covered reports whether the pair (a, c) is already realized: by a direct
// edge, by co-membership, or through a 1-hop virtual edge.
func (b *dedup2Builder) covered(a, c int32) bool {
	if slices.Contains(b.direct[a], c) {
		return true
	}
	for _, v := range b.virtsOf(a) {
		if slices.Contains(b.members(v), c) {
			return true
		}
		for _, n := range b.node(v).undir {
			if slices.Contains(b.members(n), c) {
				return true
			}
		}
	}
	return false
}

// markCoverage makes other hold every real node whose pair with x is
// realized: x's direct neighbors, and the members of x's virtual nodes and
// of their 1-hop virtual neighbors. other.Has(c) then answers covered(x, c)
// for c != x.
func (b *dedup2Builder) markCoverage(x int32) {
	b.other.Reset(len(b.idx))
	markInto(&b.other, b.direct[x])
	for _, v := range b.virtsOf(x) {
		markInto(&b.other, b.members(v))
		for _, n := range b.node(v).undir {
			markInto(&b.other, b.members(n))
		}
	}
}

// split replaces virtual node v with w1 (members = part) and w2 (the rest),
// both inheriting v's undirected neighbors, with w1 <-> w2 linking them,
// and returns w1. If part covers all of v's members, v is reused unchanged.
func (b *dedup2Builder) split(v int32, part []int32) int32 {
	all := b.members(v)
	if len(part) == len(all) {
		return v
	}
	b.markAll(part)
	w1 := b.newVirtual(part)
	off := len(b.arena)
	for _, m := range all {
		if !b.marks.Has(m) {
			b.arena = append(reserve(b.arena, 1), m)
		}
	}
	w2 := b.seal(off)
	// Tombstone v. Each neighbor drops v from its list and gains w1 and w2
	// at the end; w1's list is [w2, v's neighbors...] and w2's [w1, ...].
	nd := b.node(v)
	old := nd.undir
	nd.undir, nd.alive = nil, false
	for _, n := range old {
		nn := b.node(n)
		i := slices.Index(nn.undir, v)
		copy(nn.undir[i:], nn.undir[i+1:])
		nn.undir[len(nn.undir)-1] = w1
		nn.undir = append(nn.undir, w2)
	}
	u2 := make([]int32, 1+len(old))
	u2[0] = w1
	copy(u2[1:], old)
	b.node(w2).undir = u2
	b.node(w1).undir = slices.Insert(old, 0, w2)
	return w1
}

// maxOverlap returns the processed virtual node sharing the most members
// with s (the lowest-numbered one on a tie), or -1.
func (b *dedup2Builder) maxOverlap(s []int32) (int32, int) {
	touched := b.touched[:0]
	for _, m := range s {
		for _, v := range b.virtsOf(m) {
			nd := b.node(v)
			if nd.count == 0 {
				touched = append(touched, v)
			}
			nd.count++
		}
	}
	best, bestN := int32(-1), 0
	for _, v := range touched {
		nd := b.node(v)
		n := int(nd.count)
		nd.count = 0
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
	markInto(&b.marks, members)
}

// resolve incorporates member set s into the partial graph and pushes the
// virtual-node pieces that now partition s onto pieces. Its working sets
// go on stack above s and are popped on return.
func (b *dedup2Builder) resolve(s []int32) {
	if len(s) == 0 {
		return
	}
	v1, overlap := b.maxOverlap(s)
	if v1 < 0 || overlap == 0 {
		b.pieces = append(b.pieces, b.newVirtual(s))
		return
	}
	base := len(b.stack)
	defer func() { b.stack = b.stack[:base] }()
	// s = W1 ∪ rest, W1 = s ∩ M(v1), pushed as [W1 | rest].
	b.markAll(b.members(v1))
	for _, m := range s {
		if b.marks.Has(m) {
			b.stack = append(b.stack, m)
		}
	}
	nw1 := len(b.stack) - base
	for _, m := range s {
		if !b.marks.Has(m) {
			b.stack = append(b.stack, m)
		}
	}
	w1set, rest := b.stack[base:base+nw1], b.stack[base+nw1:]
	// Neighborhood members of v1 BEFORE the split decide the W3/W4 split.
	b.neigh.Reset(len(b.idx))
	for _, n := range b.node(v1).undir {
		markInto(&b.neigh, b.members(n))
	}
	w1 := b.split(v1, w1set)
	if len(rest) == 0 {
		b.pieces = append(b.pieces, w1)
		return
	}
	// rest = W4 ∪ W3, pushed as [W4 | W3]; W4's pairs with W1 are realized
	// for free.
	mid := len(b.stack)
	for _, m := range rest {
		if b.neigh.Has(m) {
			b.stack = append(b.stack, m)
		}
	}
	nw4 := len(b.stack) - mid
	for _, m := range rest {
		if !b.neigh.Has(m) {
			b.stack = append(b.stack, m)
		}
	}
	pb := len(b.pieces)
	b.resolve(b.stack[mid : mid+nw4])
	np4 := len(b.pieces) - pb
	b.resolve(b.stack[mid+nw4:])
	p4, p3 := b.pieces[pb:pb+np4], b.pieces[pb+np4:]
	// Link the pieces: W1 <-> W3 pieces, W3 pieces <-> W4 pieces.
	for _, p := range p3 {
		b.addEdgeChecked(w1, p)
	}
	for _, a := range p3 {
		for _, c := range p4 {
			b.addEdgeChecked(a, c)
		}
	}
	// Return [w1, p3..., p4...]: [p4 | p3 | w1] reversed, then each run
	// reversed back.
	np3 := len(p3)
	b.pieces = append(b.pieces, w1)
	ps := b.pieces[pb:]
	slices.Reverse(ps)
	slices.Reverse(ps[1 : 1+np3])
	slices.Reverse(ps[1+np3:])
}

// addEdgeChecked adds the undirected virtual edge a <-> c when doing so is
// provably safe; otherwise it covers the not-yet-covered pairs with direct
// edges. It never creates a duplicate pair and never loses a pair.
func (b *dedup2Builder) addEdgeChecked(a, c int32) {
	if a == c || !b.node(a).alive || !b.node(c).alive {
		return
	}
	if slices.Contains(b.node(a).undir, c) {
		return
	}
	if b.linkable(a, c) {
		b.connect(a, c)
		return
	}
	// Fallback: direct edges for the uncovered pairs. The edges added for
	// x pair it with distinct members of c, so x's coverage, marked once,
	// answers for the whole row.
	mc := b.members(c)
	for _, x := range b.members(a) {
		b.markCoverage(x)
		for _, y := range mc {
			if x != y && !b.other.Has(y) {
				b.addDirect(x, y)
			}
		}
	}
}

// linkable reports whether the undirected edge a <-> c keeps the partial
// graph duplicate-free: a and c are member-disjoint, each one's virtual
// neighborhood is disjoint from the other, and no pair of M(a) x M(c) is
// covered yet. A virtual node meets M(c) exactly when it holds a member
// of c, so the checks run on marks over virtual nodes: each side's
// holders are marked once, and each member of a walks its own virtual
// nodes and their neighbors once.
func (b *dedup2Builder) linkable(a, c int32) bool {
	ma, mc := b.members(a), b.members(c)
	b.markAll(mc)
	if anyMarked(&b.marks, ma) {
		return false
	}
	b.markHolders(&b.holdC, mc)
	if anyMarked(&b.holdC, b.node(a).undir) {
		return false
	}
	b.markHolders(&b.holdA, ma)
	if anyMarked(&b.holdA, b.node(c).undir) {
		return false
	}
	for _, x := range ma {
		if anyMarked(&b.marks, b.direct[x]) {
			return false
		}
		for _, v := range b.virtsOf(x) {
			if b.holdC.Has(v) || anyMarked(&b.holdC, b.node(v).undir) {
				return false
			}
		}
	}
	return true
}

// markHolders makes set hold exactly the virtual nodes that have a member
// in ms.
func (b *dedup2Builder) markHolders(set *markset.Set, ms []int32) {
	set.Reset(int(b.numNodes))
	for _, m := range ms {
		markInto(set, b.virtsOf(m))
	}
}

// emit writes the finished structure into out, which holds the real nodes:
// the live virtual nodes, renumbered by live rank, and the direct edges.
func (b *dedup2Builder) emit(out *core.Graph) {
	// The live slots go on the (empty) stack, their ranks into the (zero)
	// overlap counters.
	live := b.stack[:0]
	for v := int32(0); v < b.numNodes; v++ {
		if nd := b.node(v); nd.alive {
			nd.count = int32(len(live))
			live = append(live, v)
		}
	}
	for _, v := range live {
		ns := b.node(v).undir
		for i, w := range ns {
			ns[i] = b.node(w).count
		}
	}
	out.LoadDedup2(len(live), func(v int32) ([]int32, []int32) {
		return b.members(live[v]), b.node(live[v]).undir
	}, b.direct)
}

func markInto(set *markset.Set, members []int32) {
	for _, m := range members {
		set.Mark(m)
	}
}

// anyMarked reports whether set holds some element of s.
func anyMarked(set *markset.Set, s []int32) bool {
	for _, m := range s {
		if set.Has(m) {
			return true
		}
	}
	return false
}
