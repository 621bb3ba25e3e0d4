package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// This file checks the pooled mark-set traversal of neighbors.go against the
// hash-set walk it replaced, which survives here as the oracle, on random
// condensed graphs nobody hand-wrote. The dedup package has the twin that
// covers the converted representations (BITMAP, DEDUP-1, DEDUP-2).

// refWalk is the oracle: the depth-first walk with one hash set over real
// nodes and one over virtual nodes that ForNeighbors and ForInNeighbors used
// for C-DUP before the mark sets. It returns the neighbors in emission order.
func refWalk(g *Graph, r int32, in bool) []int32 {
	if !g.Alive(r) {
		return nil
	}
	direct, first, vReal, vVirt := g.OutDirect(r), g.OutVirtuals(r), g.VirtTargets, g.VirtOutVirt
	if in {
		direct, first, vReal, vVirt = g.InDirect(r), g.InVirtuals(r), g.VirtSources, g.VirtInVirt
	}
	seen := make(map[int32]struct{})
	seenVirt := make(map[int32]struct{})
	var out []int32
	visit := func(t int32) {
		if _, dup := seen[t]; dup {
			return
		}
		seen[t] = struct{}{}
		if g.dead[t] || (t == r && !g.SelfLoops) {
			return
		}
		out = append(out, t)
	}
	for _, t := range direct {
		visit(t)
	}
	stack := append([]int32(nil), first...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, dup := seenVirt[v]; dup {
			continue
		}
		seenVirt[v] = struct{}{}
		for _, t := range vReal(v) {
			visit(t)
		}
		stack = append(stack, vVirt(v)...)
	}
	return out
}

func collectOut(g *Graph, r int32) []int32 {
	var out []int32
	g.ForNeighbors(r, func(t int32) bool { out = append(out, t); return true })
	return out
}

func collectIn(g *Graph, r int32) []int32 {
	var out []int32
	g.ForInNeighbors(r, func(s int32) bool { out = append(out, s); return true })
	return out
}

// randomCondensed builds a random C-DUP graph: up to three layers of
// virtual nodes with several paths between the same real pair, asymmetric
// source and target sides, direct edges that duplicate virtual paths,
// tombstoned real nodes, either SelfLoops setting, sorted or unsorted
// adjacency.
func randomCondensed(seed int64, multi bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(CDUP)
	g.SelfLoops = rng.Intn(2) == 0
	nReal := 5 + rng.Intn(40)
	for i := 0; i < nReal; i++ {
		g.AddRealNode(int64(100 + i))
	}
	real := func() int32 { return int32(rng.Intn(nReal)) }
	layers := 1
	if multi {
		layers = 2 + rng.Intn(2)
	}
	// byLayer[l] holds the virtual nodes of layer l+1; edges go from a
	// layer to any deeper one, so the virtual subgraph stays acyclic.
	byLayer := make([][]int32, layers)
	for l := layers - 1; l >= 0; l-- {
		for i := 0; i < 2+rng.Intn(6); i++ {
			v := g.AddVirtualNode(int32(l + 1))
			byLayer[l] = append(byLayer[l], v)
			if l == 0 || rng.Intn(3) == 0 {
				for k := 0; k < 1+rng.Intn(4); k++ {
					g.ConnectRealToVirt(real(), v)
				}
			}
			if l == layers-1 || rng.Intn(2) == 0 {
				for k := 0; k < 1+rng.Intn(6); k++ {
					g.ConnectVirtToReal(v, real())
				}
			}
			for d := l + 1; d < layers; d++ {
				for k := 0; k < rng.Intn(3); k++ {
					g.ConnectVirtToVirt(v, byLayer[d][rng.Intn(len(byLayer[d]))])
				}
			}
		}
	}
	// Direct edges: random ones, and ones that repeat a virtual path.
	for k := 0; k < rng.Intn(nReal); k++ {
		g.AddDirectEdgeIdx(real(), real())
	}
	for k := 0; k < rng.Intn(nReal); k++ {
		u := real()
		if ns := refWalk(g, u, false); len(ns) > 0 {
			g.AddDirectEdgeIdx(u, ns[rng.Intn(len(ns))])
		}
	}
	if rng.Intn(2) == 0 {
		g.SortAdjacency()
	}
	for k := 0; k < rng.Intn(1+nReal/5); k++ {
		_ = g.DeleteVertexID(g.realID[real()]) // an already-deleted ID just reports an error
	}
	return g
}

// checkAgainstReference compares every traversal entry point with the
// oracle on every real slot, dead and out-of-range ones included.
func checkAgainstReference(t *testing.T, name string, g *Graph) {
	t.Helper()
	n := int32(g.NumRealSlots())
	for r := int32(-1); r <= n; r++ {
		wantOut, wantIn := refWalk(g, r, false), refWalk(g, r, true)
		if got := collectOut(g, r); !slices.Equal(got, wantOut) {
			t.Fatalf("%s: ForNeighbors(%d) = %v, reference %v", name, r, got, wantOut)
		}
		if got := collectIn(g, r); !slices.Equal(got, wantIn) {
			t.Fatalf("%s: ForInNeighbors(%d) = %v, reference %v", name, r, got, wantIn)
		}
		if got := g.OutDegree(r); got != len(wantOut) {
			t.Fatalf("%s: OutDegree(%d) = %d, reference %d", name, r, got, len(wantOut))
		}
		for w := int32(-1); w <= n; w++ {
			if got, want := g.HasEdgeIdx(r, w), slices.Contains(wantOut, w); got != want {
				t.Fatalf("%s: HasEdgeIdx(%d, %d) = %v, reference %v", name, r, w, got, want)
			}
		}
	}
}

// checkAgainstExpanded compares g with its EXP materialization by external
// ID, in both directions.
func checkAgainstExpanded(t *testing.T, name string, g *Graph) {
	t.Helper()
	exp, err := g.Expand(0)
	if err != nil {
		t.Fatalf("%s: Expand: %v", name, err)
	}
	ids := func(h *Graph, idx []int32) []int64 {
		out := make([]int64, len(idx))
		for i, x := range idx {
			out[i] = h.realID[x]
		}
		slices.Sort(out)
		return out
	}
	g.ForEachReal(func(r int32) bool {
		er, ok := exp.RealIndex(g.realID[r])
		if !ok {
			t.Fatalf("%s: vertex %d missing from EXP", name, g.realID[r])
		}
		if got, want := ids(exp, collectOut(exp, er)), ids(g, collectOut(g, r)); !slices.Equal(got, want) {
			t.Fatalf("%s: EXP out-neighbors of %d = %v, C-DUP %v", name, g.realID[r], got, want)
		}
		if got, want := ids(exp, collectIn(exp, er)), ids(g, collectIn(g, r)); !slices.Equal(got, want) {
			t.Fatalf("%s: EXP in-neighbors of %d = %v, C-DUP %v", name, g.realID[r], got, want)
		}
		return true
	})
	if exp.NumRealNodes() != g.NumRealNodes() {
		t.Fatalf("%s: EXP has %d vertices, C-DUP %d", name, exp.NumRealNodes(), g.NumRealNodes())
	}
}

func TestTraversalMatchesHashSetReference(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		for _, multi := range []bool{false, true} {
			g := randomCondensed(seed, multi)
			name := fmt.Sprintf("seed %d multi %v", seed, multi)
			checkAgainstReference(t, name, g)
			checkAgainstExpanded(t, name, g)
		}
	}
}

func TestTraversalEarlyStop(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		g := randomCondensed(seed, seed%2 == 0)
		for r := int32(0); int(r) < g.NumRealSlots(); r++ {
			for _, in := range []bool{false, true} {
				want := refWalk(g, r, in)
				for stopAt := 1; stopAt <= len(want); stopAt++ {
					var got []int32
					fn := func(t int32) bool { got = append(got, t); return len(got) < stopAt }
					if in {
						g.ForInNeighbors(r, fn)
					} else {
						g.ForNeighbors(r, fn)
					}
					if !slices.Equal(got, want[:stopAt]) {
						t.Fatalf("seed %d node %d in=%v stop after %d: got %v, reference prefix %v",
							seed, r, in, stopAt, got, want[:stopAt])
					}
				}
			}
		}
		// Abandoned walks must leave nothing behind for the next one.
		checkAgainstReference(t, fmt.Sprintf("seed %d after early stops", seed), g)
	}
}

// TestTraversalReentrant iterates from inside fn — on the same graph and on a
// second graph of a different size — the way triangle counting and
// clustering do. The nested call must not disturb the walk it runs inside.
func TestTraversalReentrant(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := randomCondensed(seed, true)
		other := randomCondensed(1000+seed, seed%2 == 0)
		for r := int32(0); int(r) < g.NumRealSlots(); r++ {
			want := refWalk(g, r, false)
			var got []int32
			g.ForNeighbors(r, func(t int32) bool {
				got = append(got, t)
				if inner := collectOut(g, t); !slices.Equal(inner, refWalk(g, t, false)) {
					panic(fmt.Sprintf("nested ForNeighbors(%d) = %v", t, inner))
				}
				if inner := collectIn(g, t); !slices.Equal(inner, refWalk(g, t, true)) {
					panic(fmt.Sprintf("nested ForInNeighbors(%d) = %v", t, inner))
				}
				g.ForInNeighbors(t, func(s int32) bool {
					// Third level, and an edge probe that borrows too.
					if g.HasEdgeIdx(s, t) != slices.Contains(refWalk(g, s, false), t) {
						panic(fmt.Sprintf("nested HasEdgeIdx(%d, %d)", s, t))
					}
					return true
				})
				o := t % int32(other.NumRealSlots())
				if inner := collectOut(other, o); !slices.Equal(inner, refWalk(other, o, false)) {
					panic(fmt.Sprintf("nested ForNeighbors(%d) on the other graph = %v", o, inner))
				}
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: outer ForNeighbors(%d) = %v with nested walks, reference %v", seed, r, got, want)
			}
		}
	}
}

// TestTraversalInterleavesGraphs alternates, on one goroutine and hence on
// one pooled scratch, between a large and a small graph.
func TestTraversalInterleavesGraphs(t *testing.T) {
	big := New(CDUP)
	for i := 0; i < 5000; i++ {
		big.AddRealNode(int64(i))
	}
	hub := big.AddVirtualNode(1)
	for i := 0; i < 5000; i += 7 {
		big.AddMember(hub, int32(i))
	}
	tail := big.AddVirtualNode(1)
	for i := 4990; i < 5000; i++ {
		big.AddMember(tail, int32(i))
	}
	for seed := int64(1); seed <= 20; seed++ {
		small := randomCondensed(seed, seed%2 == 0)
		for r := int32(0); int(r) < small.NumRealSlots(); r++ {
			b := (r * 7) % 5000
			if got, want := collectOut(big, b), refWalk(big, b, false); !slices.Equal(got, want) {
				t.Fatalf("big graph node %d: %d neighbors, reference %d", b, len(got), len(want))
			}
			if got, want := collectOut(small, r), refWalk(small, r, false); !slices.Equal(got, want) {
				t.Fatalf("seed %d small graph node %d = %v, reference %v", seed, r, got, want)
			}
			if got, want := collectIn(big, 4995), refWalk(big, 4995, true); !slices.Equal(got, want) {
				t.Fatalf("big graph in-neighbors of 4995: %d, reference %d", len(got), len(want))
			}
			if got, want := collectIn(small, r), refWalk(small, r, true); !slices.Equal(got, want) {
				t.Fatalf("seed %d small graph in-neighbors of %d = %v, reference %v", seed, r, got, want)
			}
		}
	}
}

// TestTraversalAfterGrowth adds real and virtual nodes between calls: the
// scratch a previous call sized for the smaller graph must cover the new
// slots.
func TestTraversalAfterGrowth(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		g := randomCondensed(seed, seed%2 == 0)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			checkAgainstReference(t, fmt.Sprintf("seed %d round %d", seed, round), g)
			// New nodes take the highest indices, which is where an
			// undersized mark set would be read out of range.
			v := g.AddVirtualNode(g.layerHint + int32(rng.Intn(2)))
			for k := 0; k < 1+rng.Intn(3); k++ {
				nr := g.AddRealNode(int64(10_000*int(seed) + 100*round + k))
				g.ConnectVirtToReal(v, nr)
				g.ConnectRealToVirt(nr, v)
				g.ConnectRealToVirt(int32(rng.Intn(int(nr)+1)), v)
			}
		}
	}
}

// TestTraversalEpochWrap puts the pooled scratch on the brink of the epoch
// wrap-around. The first walk below runs at epoch 1 and marks every neighbor
// of the hub; the next borrow wraps and the epoch is 1 again, so unless the
// wrap cleared the stamps every one of them would read as already seen.
func TestTraversalEpochWrap(t *testing.T) {
	g := New(CDUP)
	const n = 64
	for i := 0; i < n; i++ {
		g.AddRealNode(int64(i))
	}
	top := g.AddVirtualNode(1)
	g.ConnectRealToVirt(0, top)
	for l := 0; l < 2; l++ { // two layer-2 nodes both reached from top
		v := g.AddVirtualNode(2)
		g.ConnectVirtToVirt(top, v)
		for i := 1; i < n; i++ {
			g.ConnectVirtToReal(v, int32(i))
		}
	}
	want := refWalk(g, 0, false)
	if len(want) != n-1 {
		t.Fatalf("hub has %d reference neighbors, want %d", len(want), n-1)
	}
	// The pool may hand a walk some other scratch than the one put in last
	// (the race detector makes Put drop items at random), so a round only
	// counts when the walks left their traces in sc.
	for attempt := 0; attempt < 200; attempt++ {
		scratchPool.Get() // empty this P's slot so that the Put below fills it
		sc := new(scratch)
		scratchPool.Put(sc)
		if got := collectOut(g, 0); !slices.Equal(got, want) { // epoch 1
			t.Fatalf("epoch 1: ForNeighbors = %v, reference %v", got, want)
		}
		if cap(sc.stack) == 0 {
			continue
		}
		sc.real.SeedEpoch(math.MaxUint32)
		sc.virt.SeedEpoch(math.MaxUint32)
		if got := collectOut(g, 0); !slices.Equal(got, want) { // wraps to epoch 1
			t.Fatalf("across the wrap: ForNeighbors = %v, reference %v", got, want)
		}
		if !sc.real.Has(1) {
			continue
		}
		if !g.HasEdgeIdx(0, n-1) || g.HasEdgeIdx(1, 0) {
			t.Fatal("after the wrap: HasEdgeIdx wrong")
		}
		if got, want := collectIn(g, 5), refWalk(g, 5, true); !slices.Equal(got, want) {
			t.Fatalf("after the wrap: ForInNeighbors = %v, reference %v", got, want)
		}
		return
	}
	t.Fatal("the pool never handed the seeded scratch to a walk; the wrap was not exercised")
}

// TestTraversalSurvivesPanickingCallback abandons walks by panicking out of
// fn at every depth and checks that later walks are unaffected.
func TestTraversalSurvivesPanickingCallback(t *testing.T) {
	g := randomCondensed(7, true)
	for r := int32(0); int(r) < g.NumRealSlots(); r++ {
		for _, in := range []bool{false, true} {
			for stopAt := 1; stopAt <= len(refWalk(g, r, in)); stopAt++ {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("node %d: callback did not panic", r)
						}
					}()
					seen := 0
					fn := func(int32) bool {
						if seen++; seen == stopAt {
							panic("boom")
						}
						return true
					}
					if in {
						g.ForInNeighbors(r, fn)
					} else {
						g.ForNeighbors(r, fn)
					}
				}()
			}
		}
	}
	checkAgainstReference(t, "after panics", g)
}

// TestTraversalConcurrentReaders runs many readers over two shared graphs,
// nested walks included; go test -race turns any scratch sharing between
// them into a failure, and the comparisons catch a corrupted walk.
func TestTraversalConcurrentReaders(t *testing.T) {
	graphs := []*Graph{randomCondensed(11, true), randomCondensed(12, false), randomCondensed(13, true)}
	type ref struct{ out, in [][]int32 }
	refs := make([]ref, len(graphs))
	for i, g := range graphs {
		for r := int32(0); int(r) < g.NumRealSlots(); r++ {
			refs[i].out = append(refs[i].out, refWalk(g, r, false))
			refs[i].in = append(refs[i].in, refWalk(g, r, true))
		}
	}
	const readers = 8
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				i := (w + round) % len(graphs)
				g := graphs[i]
				for r := int32(0); int(r) < g.NumRealSlots(); r++ {
					var got []int32
					g.ForNeighbors(r, func(x int32) bool {
						got = append(got, x)
						if inner := collectIn(g, x); !slices.Equal(inner, refs[i].in[x]) {
							t.Errorf("reader %d: nested ForInNeighbors(%d) = %v, reference %v", w, x, inner, refs[i].in[x])
						}
						return true
					})
					if !slices.Equal(got, refs[i].out[r]) {
						t.Errorf("reader %d: ForNeighbors(%d) = %v, reference %v", w, r, got, refs[i].out[r])
						return
					}
					for _, x := range got {
						if !g.HasEdgeIdx(r, x) {
							t.Errorf("reader %d: HasEdgeIdx(%d, %d) = false", w, r, x)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEdgeProbeOnSortedTargets pins containsSorted's replacement: a miss on
// a long sorted target list is a binary search, not a binary search
// followed by the scan that used to verify the order, and a list appended
// to after the sort still answers correctly.
func TestEdgeProbeOnSortedTargets(t *testing.T) {
	const n = 10_000
	g := New(CDUP)
	for i := 0; i < 2*n+3; i++ {
		g.AddRealNode(int64(i))
	}
	v := g.AddVirtualNode(1)
	src := int32(2*n + 2)
	g.ConnectRealToVirt(src, v)
	for i := n - 1; i >= 0; i-- { // even targets, inserted in descending order
		g.ConnectVirtToReal(v, int32(2*i))
	}
	if g.vOutSorted {
		t.Fatal("descending appends left the graph marked sorted")
	}
	g.SortAdjacency()
	if !g.vOutSorted {
		t.Fatal("SortAdjacency did not mark the target lists sorted")
	}
	probe := func() {
		for w := int32(0); w < 2*n; w++ {
			if got, want := g.HasEdgeIdx(src, w), w%2 == 0; got != want {
				t.Fatalf("HasEdgeIdx(src, %d) = %v, want %v", w, got, want)
			}
		}
	}
	probe()
	// missNS times probes that all miss (odd targets from 3 up), best of
	// five rounds.
	missNS := func() float64 {
		const probes = 2000
		best := math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < probes; i++ {
				if g.HasEdgeIdx(src, int32(2*(i%(n-1))+3)) {
					t.Fatal("hit on an odd target")
				}
			}
			best = math.Min(best, float64(time.Since(start))/probes)
		}
		return best
	}
	sortedNS := missNS()

	// An in-order append keeps the lists sorted; an out-of-order one is
	// noticed, and from then on a probe is one scan.
	g.ConnectVirtToReal(v, 2*n)
	if !g.vOutSorted || !g.HasEdgeIdx(src, 2*n) {
		t.Fatal("in-order append: flag cleared or edge not found")
	}
	g.ConnectVirtToReal(v, 2*n+1) // still ascending
	g.ConnectVirtToReal(v, 1)     // not any more
	if g.vOutSorted {
		t.Fatal("out-of-order append left the graph marked sorted")
	}
	if !g.HasEdgeIdx(src, 1) || !g.HasEdgeIdx(src, 2*n+1) || g.HasEdgeIdx(src, 3) {
		t.Fatal("probe wrong after an out-of-order append")
	}
	if c := g.Clone(); c.vOutSorted || !c.HasEdgeIdx(src, 1) {
		t.Fatal("Clone lost the unsorted state")
	}
	scanNS := missNS()
	// 14 comparisons against 10 000: two orders of magnitude in theory;
	// a factor of ten leaves room for a noisy machine.
	if sortedNS*10 > scanNS {
		t.Fatalf("a miss on %d sorted targets took %.0f ns, a full scan takes %.0f ns: the sorted probe is not sublinear", n, sortedNS, scanNS)
	}
	g.SortAdjacency()
	if !g.vOutSorted || !g.HasEdgeIdx(src, 1) || !g.HasEdgeIdx(src, 2*n) || g.HasEdgeIdx(src, 3) {
		t.Fatal("re-sorting did not restore the flag, or probes are wrong after it")
	}
}
