// Package algo implements the graph algorithms used throughout the paper's
// evaluation — Degree, BFS, PageRank, Connected Components, and triangle
// counting — against representation-independent neighbor iteration, so
// every algorithm runs unchanged on C-DUP, EXP, DEDUP-1, DEDUP-2, and
// BITMAP graphs (*core.Graph) and on their frozen CSR views (*core.Frozen).
//
// The algorithms reach the graph only through Graph, an interface, so the
// callbacks they pass escape to the heap: each algorithm builds its
// callbacks once per call, never once per vertex.
//
// Degrees, BFSFrom and ConnectedComponents have a second loop for a graph
// that also hands out its rows as flat slices (flatRows; *core.Frozen, the
// view every served analysis runs on). They check for it once per call and
// then range over the slices, so a traversal of a view pays no indirect
// call per edge. Every other graph, *core.Graph included, takes the
// callback loop. PageRank, which sweeps every edge once per iteration,
// ranges over a view's rows too, and on any other graph builds an exact
// copy of the logical in-edges first when that copy costs no more than
// the graph itself (see pullRows). Triangles and the community kernels
// are callback-only.
package algo

import "math"

// Graph is the traversal surface the algorithms need: dense real-node
// indices in [0, NumRealSlots) of which the Alive ones are vertices, and the
// paper's getNeighbors in both directions, each logical neighbor exactly
// once. *core.Graph and *core.Frozen satisfy it.
type Graph interface {
	NumRealSlots() int
	NumRealNodes() int
	Alive(r int32) bool
	RealIndex(id int64) (int32, bool)
	ForNeighbors(r int32, fn func(t int32) bool)
	ForInNeighbors(r int32, fn func(s int32) bool)
}

// flatRows is a Graph whose adjacency is stored as flat rows: OutRow(r)
// and InRow(r) are exactly the neighbors ForNeighbors and ForInNeighbors
// yield, as one read-only slice each. *core.Frozen satisfies it.
type flatRows interface {
	Graph
	OutRow(r int32) []int32
	InRow(r int32) []int32
}

// Degrees returns the logical out-degree of every real node, indexed by
// dense node index (dead slots report 0). Self loops follow the graph's
// SelfLoops setting.
func Degrees(g Graph) []int {
	deg := make([]int, g.NumRealSlots())
	if fg, ok := g.(flatRows); ok {
		for r := range int32(len(deg)) {
			if fg.Alive(r) {
				deg[r] = len(fg.OutRow(r))
			}
		}
		return deg
	}
	n := 0
	count := func(int32) bool { n++; return true }
	for r := range int32(len(deg)) {
		if g.Alive(r) {
			n = 0
			g.ForNeighbors(r, count)
			deg[r] = n
		}
	}
	return deg
}

// BFSResult reports a breadth-first traversal.
type BFSResult struct {
	// Visited is the number of nodes reached (including the source).
	Visited int
	// MaxDepth is the eccentricity of the source within its component.
	MaxDepth int
	// Dist maps dense node index to BFS depth; -1 means unreached.
	Dist []int32
}

// BFS runs a single-threaded breadth-first search from the node with
// external ID src, following logical out-edges (the paper's Figure 11 BFS).
func BFS(g Graph, src int64) BFSResult {
	res := BFSResult{Dist: make([]int32, g.NumRealSlots())}
	var seeds []int32
	if s, ok := g.RealIndex(src); ok {
		seeds = []int32{s}
	}
	visited, depth, _ := BFSFrom(g, seeds, res.Dist)
	res.Visited, res.MaxDepth = visited, int(depth)
	return res
}

// BFSFrom runs one breadth-first search from all seeds at once (dense
// indices; dead or repeated seeds are skipped) and fills dist, which must
// have NumRealSlots entries, with each vertex's hop distance from the
// nearest seed, -1 when unreached. It reports the number of vertices
// reached (seeds included), the largest distance and the sum of distances.
func BFSFrom(g Graph, seeds []int32, dist []int32) (reached int, maxDepth int32, sumDist int64) {
	for i := range dist {
		dist[i] = -1
	}
	frontier := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if g.Alive(s) && dist[s] < 0 {
			dist[s] = 0
			frontier = append(frontier, s)
		}
	}
	reached = len(frontier)
	if fg, ok := g.(flatRows); ok {
		return bfsRows(fg, frontier, dist, reached)
	}
	var next []int32
	var depth int32
	visit := func(t int32) bool {
		if dist[t] < 0 {
			dist[t] = depth
			next = append(next, t)
		}
		return true
	}
	for depth = 1; len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			g.ForNeighbors(u, visit)
		}
		if len(next) > 0 {
			maxDepth = depth
		}
		reached += len(next)
		sumDist += int64(depth) * int64(len(next))
		frontier, next = next, frontier
	}
	return reached, maxDepth, sumDist
}

// bfsRows is BFSFrom's level loop on flat rows, from the seeded frontier.
func bfsRows(g flatRows, frontier, dist []int32, reached int) (int, int32, int64) {
	var next []int32
	var maxDepth int32
	var sumDist int64
	for depth := int32(1); len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, t := range g.OutRow(u) {
				if dist[t] < 0 {
					dist[t] = depth
					next = append(next, t)
				}
			}
		}
		if len(next) > 0 {
			maxDepth = depth
		}
		reached += len(next)
		sumDist += int64(depth) * int64(len(next))
		frontier, next = next, frontier
	}
	return reached, maxDepth, sumDist
}

// PageRank runs iters iterations of textbook damped PageRank and returns
// the rank per dense node index. It is a pull-based formulation over
// logical in-neighbors; dangling mass is dropped (not redistributed), the
// same convention the vertex-centric and BSP implementations follow, so
// all three engines agree up to float summation order.
//
// Each iteration divides every source's rank by its out-degree once and
// then sums, per vertex, its in-neighbors' shares in the order
// ForInNeighbors yields them. The in-neighbors come from pullRows: a
// view's own rows, a flat copy of the logical in-edges, or — when that
// copy would cost more than the graph itself — one callback per edge.
// All three sum in the same order, so the ranks are the same bits.
func PageRank(g Graph, iters int, damping float64) []float64 {
	n := g.NumRealNodes()
	slots := int32(g.NumRealSlots())
	rank := make([]float64, slots)
	next := make([]float64, slots)
	if n == 0 {
		return rank
	}
	outDeg, rows := pullRows(g)
	for r := range slots {
		if g.Alive(r) {
			rank[r] = 1.0 / float64(n)
		}
	}
	base := (1 - damping) / float64(n)
	// share[s] is rank[s]/outDeg[s]; a source without out-edges keeps 0.
	share := make([]float64, slots)
	sum := 0.0
	pull := func(s int32) bool {
		sum += share[s]
		return true
	}
	for it := 0; it < iters; it++ {
		for s, d := range outDeg {
			if d > 0 {
				share[s] = rank[s] / float64(d)
			}
		}
		for r := range slots {
			if !g.Alive(r) {
				continue
			}
			if rows == nil {
				sum = 0
				g.ForInNeighbors(r, pull)
				next[r] = base + damping*sum
				continue
			}
			acc := 0.0
			for _, s := range rows.InRow(r) {
				acc += share[s]
			}
			next[r] = base + damping*acc
		}
		rank, next = next, rank
	}
	return rank
}

// inRows hands out each vertex's logical in-neighbors as one slice, in
// ForInNeighbors order. *core.Frozen and *inAdjacency satisfy it.
type inRows interface {
	InRow(r int32) []int32
}

// inAdjacency is an exactly sized copy of a graph's logical in-edges:
// the in-neighbors of r are src[off[r]:off[r+1]].
type inAdjacency struct {
	off []int32
	src []int32
}

func (a *inAdjacency) InRow(r int32) []int32 {
	lo, hi := a.off[r], a.off[r+1]
	return a.src[lo:hi:hi]
}

// pullRows returns PageRank's inputs: every slot's logical out-degree and
// the in-neighbor rows, or nil rows when PageRank must pull through
// ForInNeighbors instead.
//
// A view's rows are its own, and nothing is built. Any other graph is
// swept once with ForNeighbors, counting out- and in-degrees. When 4 B per
// logical edge is no more than the graph's own MemBytes (and the edges fit
// int32 offsets), one ForInNeighbors sweep then fills an exact copy of the
// in-rows. Otherwise rows is nil: a condensed graph whose expansion is
// large against the graph — the paper's reason to keep it condensed — is
// not expanded behind the caller's back. A graph that does not report
// MemBytes is never copied.
func pullRows(g Graph) ([]int32, inRows) {
	outDeg := make([]int32, g.NumRealSlots())
	if fg, ok := g.(flatRows); ok {
		for r := range int32(len(outDeg)) {
			if fg.Alive(r) {
				outDeg[r] = int32(len(fg.OutRow(r)))
			}
		}
		return outDeg, fg
	}
	inDeg := make([]int32, len(outDeg)+1)
	var edges int64
	var src int32
	count := func(t int32) bool {
		outDeg[src]++
		inDeg[t]++
		return true
	}
	for src = range int32(len(outDeg)) {
		if g.Alive(src) {
			g.ForNeighbors(src, count)
			edges += int64(outDeg[src])
		}
	}
	sized, ok := g.(interface{ MemBytes() int64 })
	if !ok || edges > math.MaxInt32 || 4*edges > sized.MemBytes() {
		return outDeg, nil
	}
	// inDeg becomes the offsets in place: off[r] is the sum of the
	// in-degrees before r.
	off := inDeg
	var at int32
	for r, d := range off {
		off[r] = at
		at += d
	}
	adj := &inAdjacency{off: off, src: make([]int32, edges)}
	var pos int32
	fill := func(s int32) bool {
		adj.src[pos] = s
		pos++
		return true
	}
	for r := range int32(len(outDeg)) {
		pos = off[r]
		g.ForInNeighbors(r, fill)
	}
	return outDeg, adj
}

// ConnectedComponents labels weakly connected components (edges treated as
// undirected) and returns the label array plus the component count. It is a
// duplicate-insensitive algorithm, so it is safe to run directly on C-DUP
// (Section 4.1).
func ConnectedComponents(g Graph) ([]int32, int) {
	labels := make([]int32, g.NumRealSlots())
	for i := range labels {
		labels[i] = -1
	}
	if fg, ok := g.(flatRows); ok {
		return labels, componentsRows(fg, labels)
	}
	count := 0
	var stack []int32
	var lbl int32
	visit := func(t int32) bool {
		if labels[t] < 0 {
			labels[t] = lbl
			stack = append(stack, t)
		}
		return true
	}
	for s := range int32(len(labels)) {
		if !g.Alive(s) || labels[s] >= 0 {
			continue
		}
		lbl = int32(count)
		count++
		labels[s] = lbl
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.ForNeighbors(u, visit)
			g.ForInNeighbors(u, visit)
		}
	}
	return labels, count
}

// componentsRows is ConnectedComponents' search on flat rows; labels
// arrive all -1.
func componentsRows(g flatRows, labels []int32) int {
	count := 0
	var stack []int32
	for s := range int32(len(labels)) {
		if !g.Alive(s) || labels[s] >= 0 {
			continue
		}
		lbl := int32(count)
		count++
		labels[s] = lbl
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, row := range [2][]int32{g.OutRow(u), g.InRow(u)} {
				for _, t := range row {
					if labels[t] < 0 {
						labels[t] = lbl
						stack = append(stack, t)
					}
				}
			}
		}
	}
	return count
}

// CountTriangles counts undirected triangles {a, b, c} (each counted once).
// It materializes undirected neighbor sets, so it is intended for the
// small/medium graphs of the microbenchmarks.
func CountTriangles(g Graph) int64 {
	adj := undirectedSets(g)
	var count int64
	for a := range adj {
		for b := range adj[a] {
			if b <= int32(a) {
				continue
			}
			for c := range adj[b] {
				if c <= b {
					continue
				}
				if _, ok := adj[a][c]; ok {
					count++
				}
			}
		}
	}
	return count
}

// undirectedSets returns, per dense index, the set of distinct neighbors
// in either direction, self excluded (nil for dead slots).
func undirectedSets(g Graph) []map[int32]struct{} {
	adj := make([]map[int32]struct{}, g.NumRealSlots())
	var set map[int32]struct{}
	add := func(t int32) bool {
		set[t] = struct{}{}
		return true
	}
	for r := range int32(len(adj)) {
		if !g.Alive(r) {
			continue
		}
		set = make(map[int32]struct{})
		g.ForNeighbors(r, add)
		g.ForInNeighbors(r, add)
		delete(set, r)
		adj[r] = set
	}
	return adj
}
